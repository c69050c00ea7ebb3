//! Per-thread time-in-state accounting.
//!
//! The introduction's motivation for thread states is telling "when a
//! thread performs a fork/join operation and goes from a serial state to
//! another state (i.e. parallel overhead state or parallel work state)".
//! This collector turns the state machinery into a profile: it registers
//! for every event the runtime supports, and at each event (which runs on
//! the firing thread) issues an `OMP_REQ_STATE` query, attributing the
//! time since the thread's previous event to the previously observed
//! state. The result is a per-thread breakdown of work / overhead /
//! barrier / wait / idle time — the classic OpenMP efficiency report.

use std::sync::Arc;

use ora_core::pad::CachePadded;
use ora_core::sync::Mutex;

use ora_core::event::ALL_EVENTS;
use ora_core::registry::EventData;
use ora_core::request::{OraResult, Request};
use ora_core::state::{ThreadState, ALL_STATES, STATE_COUNT};

use crate::clock;
use crate::discovery::{Registrations, RuntimeHandle};
use crate::report;

pub use crate::profiler::MAX_THREADS;

#[derive(Clone, Copy)]
struct ThreadSlot {
    last_tick: u64,
    last_state: Option<ThreadState>,
    per_state: [u64; STATE_COUNT],
}

impl Default for ThreadSlot {
    fn default() -> Self {
        ThreadSlot {
            last_tick: 0,
            last_state: None,
            per_state: [0; STATE_COUNT],
        }
    }
}

pub(crate) struct TimerState {
    handle: RuntimeHandle,
    /// One slot per thread, each on its own cache line: a thread's event
    /// writes only its own slot.
    threads: Vec<CachePadded<Mutex<ThreadSlot>>>,
}

impl TimerState {
    pub(crate) fn new(handle: RuntimeHandle) -> TimerState {
        TimerState {
            handle,
            threads: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The event callback: query the firing thread's state and charge
    /// the time since its previous event to the state it was in then.
    #[inline]
    pub(crate) fn on_event(&self, d: &EventData) {
        if d.gtid >= MAX_THREADS {
            return;
        }
        let Ok((now_state, _)) = self.handle.query_state() else {
            return;
        };
        let now = clock::ticks();
        let mut slot = self.threads[d.gtid].lock();
        if let Some(prev) = slot.last_state {
            let elapsed = now.saturating_sub(slot.last_tick);
            slot.per_state[prev.index()] += elapsed;
        }
        slot.last_tick = now;
        slot.last_state = Some(now_state);
    }

    /// The per-thread state-time profile accumulated so far.
    pub(crate) fn profile(&self) -> StateProfile {
        let threads = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(gtid, slot)| {
                let slot = slot.lock();
                slot.last_state?;
                Some(ThreadStateTimes {
                    gtid,
                    secs_per_state: std::array::from_fn(|i| clock::to_secs(slot.per_state[i])),
                })
            })
            .collect();
        StateProfile { threads }
    }
}

/// An attached state-time profiler.
pub struct StateTimer {
    registrations: Registrations,
    state: Arc<TimerState>,
}

impl StateTimer {
    /// Attach: send `Start` and register a sampling callback on every
    /// supported event.
    pub fn attach(handle: RuntimeHandle) -> OraResult<StateTimer> {
        handle.request_one(Request::Start)?;
        let state = Arc::new(TimerState::new(handle.clone()));

        let mut registrations = Registrations::new(handle);
        for event in ALL_EVENTS {
            let s = state.clone();
            registrations
                .register_if_supported(event, Arc::new(move |d: &EventData| s.on_event(d)))?;
        }
        Ok(StateTimer {
            registrations,
            state,
        })
    }

    /// Stop collection and produce the per-thread state-time profile.
    /// The callbacks — each of which holds the runtime handle — are
    /// released, so a finished timer keeps nothing of the runtime alive.
    pub fn finish(mut self) -> StateProfile {
        self.registrations.stop();
        self.state.profile()
    }
}

/// One thread's accumulated seconds per state.
#[derive(Debug, Clone)]
pub struct ThreadStateTimes {
    /// Thread ID.
    pub gtid: usize,
    /// Seconds attributed to each state, indexed by [`ThreadState::index`].
    pub secs_per_state: [f64; STATE_COUNT],
}

impl ThreadStateTimes {
    /// Seconds the thread spent in `state`.
    pub fn secs(&self, state: ThreadState) -> f64 {
        self.secs_per_state[state.index()]
    }

    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.secs_per_state.iter().sum()
    }

    /// Fraction of attributed time spent productively (work or serial).
    pub fn efficiency(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        (self.secs(ThreadState::Working) + self.secs(ThreadState::Serial)) / total
    }
}

/// The assembled per-thread state-time report.
#[derive(Debug, Clone)]
pub struct StateProfile {
    /// Threads that produced at least one sample.
    pub threads: Vec<ThreadStateTimes>,
}

impl StateProfile {
    /// Total seconds across threads spent in `state`.
    pub fn total_secs(&self, state: ThreadState) -> f64 {
        self.threads.iter().map(|t| t.secs(state)).sum()
    }

    /// Render the profile as a text table (non-zero states only).
    pub fn render(&self) -> String {
        let active_states: Vec<ThreadState> = ALL_STATES
            .iter()
            .copied()
            .filter(|s| self.total_secs(*s) > 0.0)
            .collect();
        let mut headers = vec!["thread".to_string()];
        headers.extend(active_states.iter().map(|s| s.name().to_string()));
        headers.push("efficiency".to_string());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        report::table(
            &header_refs,
            self.threads.iter().map(|t| {
                let mut row = vec![t.gtid.to_string()];
                row.extend(active_states.iter().map(|s| format!("{:.6}", t.secs(*s))));
                row.push(format!("{:.1}%", t.efficiency() * 100.0));
                row
            }),
        )
    }
}
