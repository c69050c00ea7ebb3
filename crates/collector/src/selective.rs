//! Overhead-controlled collection.
//!
//! The paper closes with the overhead-control plan: "tools can reduce the
//! number of times data is collected by distinguishing between either the
//! same parallel region or the calling context for a parallel region" and
//! the earlier advice to "avoid [callstack retrieval] for insignificant
//! events and small parallel regions" (§IV, §VI). [`SelectiveProfiler`]
//! implements both policies on top of the same fork/join callbacks as the
//! full profiler:
//!
//! * **duration gating** — join callstacks are only captured for regions
//!   whose fork→join time exceeds a threshold (small regions cost one
//!   comparison instead of an unwind + store);
//! * **calling-context dedup** — once a calling context (callstack
//!   signature) has been sampled `max_samples_per_site` times, further
//!   joins from the same context skip capture entirely.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::sync::Mutex;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraResult, Request};
use psx::unwind::Backtrace;

use crate::clock;
use crate::discovery::{Registrations, RuntimeHandle};

/// Policy knobs for selective collection.
#[derive(Debug, Clone)]
pub struct SelectivePolicy {
    /// Regions shorter than this (seconds) never get a callstack sample —
    /// "exclude small parallel regions where the collector tool did not
    /// gather any information".
    pub min_region_secs: f64,
    /// Maximum callstack samples kept per calling context.
    pub max_samples_per_site: u64,
}

impl Default for SelectivePolicy {
    fn default() -> Self {
        SelectivePolicy {
            min_region_secs: 20e-6,
            max_samples_per_site: 8,
        }
    }
}

#[derive(Default)]
struct SiteStats {
    samples: u64,
    calls: u64,
    total_ticks: u64,
}

struct SelState {
    policy: SelectivePolicy,
    fork_tick: Mutex<HashMap<u64, u64>>,
    /// Keyed by callstack signature (the calling context).
    sites: Mutex<HashMap<u64, SiteStats>>,
    stacks: Mutex<Vec<(u64, Backtrace)>>,
    joins: AtomicU64,
    skipped_small: AtomicU64,
    skipped_dedup: AtomicU64,
}

fn signature(bt: &Backtrace) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for ip in bt.frames() {
        ip.0.hash(&mut h);
    }
    h.finish()
}

/// The selective profiler.
pub struct SelectiveProfiler {
    registrations: Registrations,
    state: Arc<SelState>,
}

impl SelectiveProfiler {
    /// Attach with `policy`.
    pub fn attach(handle: RuntimeHandle, policy: SelectivePolicy) -> OraResult<SelectiveProfiler> {
        handle.request_one(Request::Start)?;
        let state = Arc::new(SelState {
            policy,
            fork_tick: Mutex::new(HashMap::new()),
            sites: Mutex::new(HashMap::new()),
            stacks: Mutex::new(Vec::new()),
            joins: AtomicU64::new(0),
            skipped_small: AtomicU64::new(0),
            skipped_dedup: AtomicU64::new(0),
        });
        let mut registrations = Registrations::new(handle);

        {
            let s = state.clone();
            registrations.register(
                Event::Fork,
                Arc::new(move |d: &EventData| {
                    s.fork_tick.lock().insert(d.region_id, clock::ticks());
                }),
            )?;
        }
        {
            let s = state.clone();
            registrations.register(
                Event::Join,
                Arc::new(move |d: &EventData| {
                    s.joins.fetch_add(1, Ordering::Relaxed);
                    let now = clock::ticks();
                    let dur = s
                        .fork_tick
                        .lock()
                        .remove(&d.region_id)
                        .map(|t| now.saturating_sub(t))
                        .unwrap_or(0);
                    // Duration gate: cheap comparison before any capture.
                    if clock::to_secs(dur) < s.policy.min_region_secs {
                        s.skipped_small.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let bt = psx::capture();
                    let sig = signature(&bt);
                    let mut sites = s.sites.lock();
                    let site = sites.entry(sig).or_default();
                    site.calls += 1;
                    site.total_ticks += dur;
                    if site.samples >= s.policy.max_samples_per_site {
                        s.skipped_dedup.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    site.samples += 1;
                    drop(sites);
                    s.stacks.lock().push((dur, bt));
                }),
            )?;
        }
        Ok(SelectiveProfiler {
            registrations,
            state,
        })
    }

    /// Stop and summarize.
    pub fn finish(mut self) -> SelectiveReport {
        self.registrations.stop();
        let state = self.state;
        let distinct_sites = state.sites.lock().len() as u64;
        let table = psx::SymbolTable::global();
        let mut tree = psx::CallTree::new();
        let stacks = state.stacks.lock();
        for (dur, bt) in stacks.iter() {
            tree.add(&psx::reconstruct(bt, table), clock::to_secs(*dur));
        }
        let sampled = stacks.len() as u64;
        drop(stacks);
        SelectiveReport {
            joins: state.joins.load(Ordering::Relaxed),
            sampled,
            skipped_small: state.skipped_small.load(Ordering::Relaxed),
            skipped_dedup: state.skipped_dedup.load(Ordering::Relaxed),
            distinct_sites,
            call_tree: tree,
        }
    }
}

/// Outcome of a selective-collection run.
pub struct SelectiveReport {
    /// Join events observed.
    pub joins: u64,
    /// Callstack samples actually stored.
    pub sampled: u64,
    /// Joins skipped by the duration gate.
    pub skipped_small: u64,
    /// Joins skipped by per-site dedup.
    pub skipped_dedup: u64,
    /// Distinct calling contexts seen (among captured joins).
    pub distinct_sites: u64,
    /// User-model call tree over the kept samples.
    pub call_tree: psx::CallTree,
}

impl SelectiveReport {
    /// Fraction of joins that did *not* pay for callstack capture+storage.
    pub fn savings(&self) -> f64 {
        if self.joins == 0 {
            return 0.0;
        }
        (self.skipped_small + self.skipped_dedup) as f64 / self.joins as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_distinguishes_stacks() {
        let a = Backtrace::from_ips(vec![1, 2, 3]);
        let b = Backtrace::from_ips(vec![1, 2, 4]);
        let c = Backtrace::from_ips(vec![1, 2, 3]);
        assert_ne!(signature(&a), signature(&b));
        assert_eq!(signature(&a), signature(&c));
    }

    #[test]
    fn default_policy_is_sane() {
        let p = SelectivePolicy::default();
        assert!(p.min_region_secs > 0.0);
        assert!(p.max_samples_per_site >= 1);
    }
}
