//! Asynchronous thread-state sampling.
//!
//! "The collector tool can request the state of a thread at any given
//! point of the program execution" (paper §IV-D). On real hardware the
//! "any point" is a profiling interrupt executing *on* the sampled thread;
//! here the sampler piggybacks on event callbacks (which likewise run on
//! the firing thread) and on explicit in-line sample calls, issuing
//! `OMP_REQ_STATE` queries and histogramming the answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::event::Event;
use ora_core::request::OraResult;
use ora_core::state::{ThreadState, ALL_STATES, STATE_COUNT};
use ora_core::sync::Mutex;

use crate::discovery::{Registrations, RuntimeHandle};
use crate::report;

/// A histogram of observed thread states.
///
/// The sampler owns its event registrations: [`StateSampler::detach`]
/// (called automatically on drop) unregisters every callback installed
/// by [`StateSampler::sample_on`], so sampling callbacks never outlive
/// the histogram they feed.
pub struct StateSampler {
    handle: RuntimeHandle,
    counts: Arc<[AtomicU64; STATE_COUNT]>,
    registrations: Mutex<Registrations>,
}

impl StateSampler {
    /// A sampler over `handle`. Does not itself send `Start`; combine with
    /// a profiler/tracer or send the request first when using event-driven
    /// sampling.
    pub fn new(handle: RuntimeHandle) -> StateSampler {
        StateSampler {
            registrations: Mutex::new(Registrations::new(handle.clone())),
            handle,
            counts: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Take one sample on the calling thread.
    pub fn sample(&self) -> OraResult<ThreadState> {
        let (state, _) = self.handle.query_state()?;
        self.counts[state.index()].fetch_add(1, Ordering::Relaxed);
        Ok(state)
    }

    /// Register sampling callbacks on `events`: every occurrence samples
    /// the firing thread's state. (The query runs on the thread that hit
    /// the event, which is what makes the answer meaningful.)
    pub fn sample_on(&self, events: &[Event]) -> OraResult<()> {
        for &event in events {
            let handle = self.handle.clone();
            let counts = self.counts.clone();
            self.registrations.lock().register(
                event,
                Arc::new(move |_| {
                    if let Ok((state, _)) = handle.query_state() {
                        counts[state.index()].fetch_add(1, Ordering::Relaxed);
                    }
                }),
            )?;
        }
        Ok(())
    }

    /// Unregister every callback installed by [`StateSampler::sample_on`]
    /// and release the interned tokens. Idempotent; returns how many
    /// registrations were released. Errors from an already-stopped
    /// runtime (which clears registrations itself) are ignored.
    pub fn detach(&self) -> usize {
        self.registrations.lock().release()
    }

    /// Samples observed for `state`.
    pub fn count(&self, state: ThreadState) -> u64 {
        self.counts[state.index()].load(Ordering::Relaxed)
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Render the histogram (non-zero states only).
    pub fn render(&self) -> String {
        report::table(
            &["state", "samples"],
            ALL_STATES
                .iter()
                .filter(|s| self.count(**s) > 0)
                .map(|s| vec![s.name().to_string(), self.count(*s).to_string()]),
        )
    }
}
