//! The five collection configurations overhead is compared across.
//!
//! The paper's evaluation (§V) reports workload slowdown for a ladder of
//! collector intrusiveness; the repository's benchmark (`benchmark/`)
//! times that ladder and the fuzzer (`ora-fuzz`) checks every rung
//! against its oracle. This module is the collector side of both: a
//! [`CollectionConfig`] names one rung, and [`CollectionConfig::attach`]
//! produces the corresponding live attachment so no harness hand-rolls
//! tool setup. The rungs:
//!
//! 1. [`Absent`](CollectionConfig::Absent) — no collector; the bare
//!    runtime fast path (the `ora-core` registry's unmonitored dispatch).
//! 2. [`RegisteredPaused`](CollectionConfig::RegisteredPaused) — the
//!    paper's tool attaches and registers fork/join/barrier callbacks,
//!    then suspends event generation with `OMP_REQ_PAUSE`. Events are
//!    gated off before callback invocation, so this isolates the cost of
//!    *having* a registered collector (dispatch gating, state tracking)
//!    from the cost of running its callbacks. (`OMP_REQ_STOP` would also
//!    silence events, but it *unregisters* the callbacks and
//!    de-initializes — pausing is the faithful "registered but quiescent"
//!    configuration.)
//! 3. [`StateQueries`](CollectionConfig::StateQueries) — collection
//!    STARTed with the state-query machinery exercised on every event:
//!    the [`StateTimer`] issues an `OMP_REQ_STATE` round trip per event
//!    and accumulates per-thread time-in-state.
//! 4. [`StreamingTrace`](CollectionConfig::StreamingTrace) — collection
//!    STARTed with every supported event recorded through the `ora-trace`
//!    lock-free ring + drainer pipeline (the `omp_prof trace record`
//!    path, minus the file I/O: records stream into a [`MemorySink`] so
//!    the measured cost is the pipeline, not the disk).
//! 5. [`Governed`](CollectionConfig::Governed) — the streaming-trace
//!    configuration with the adaptive overhead governor armed: monitored
//!    dispatch is budgeted (`OMP_ORA_BUDGET`, default 2%), the governor's
//!    feedback loop adjusts per-event-pair sampling rates online, and its
//!    retune decisions are persisted into the trace as metadata records
//!    so `omp_prof trace report` can show the sampling-rate timeline.

use std::sync::Arc;

use ora_core::governor::{parse_budget, GovernorConfig, DEFAULT_BUDGET_PPM};
use ora_trace::{MemorySink, TraceConfig};

use crate::clock;

use crate::discovery::RuntimeHandle;
use crate::profiler::{Profiler, ProfilerConfig};
use crate::state_timer::StateTimer;
use crate::tracer::{StreamError, StreamingTracer};

/// One rung of the collector-intrusiveness ladder (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionConfig {
    /// No collector attached.
    Absent,
    /// Callbacks registered, event generation paused (`OMP_REQ_PAUSE`).
    RegisteredPaused,
    /// STARTed, per-event `OMP_REQ_STATE` queries (state-time profile).
    StateQueries,
    /// STARTed, every event streamed through the `ora-trace` pipeline.
    StreamingTrace,
    /// STARTed, streaming trace with the overhead governor armed
    /// (budgeted sampled dispatch, `OMP_ORA_BUDGET`).
    Governed,
}

impl CollectionConfig {
    /// All configurations, in increasing order of intrusiveness (the
    /// governed rung sits last: it is the streaming rung plus the
    /// governor's admission gate, even though its *workload* cost is
    /// designed to undercut ungoverned streaming).
    pub const ALL: [CollectionConfig; 5] = [
        CollectionConfig::Absent,
        CollectionConfig::RegisteredPaused,
        CollectionConfig::StateQueries,
        CollectionConfig::StreamingTrace,
        CollectionConfig::Governed,
    ];

    /// Stable machine-readable key.
    pub const fn key(self) -> &'static str {
        match self {
            CollectionConfig::Absent => "absent",
            CollectionConfig::RegisteredPaused => "paused",
            CollectionConfig::StateQueries => "state",
            CollectionConfig::StreamingTrace => "trace",
            CollectionConfig::Governed => "governed",
        }
    }

    /// Parse a [`key`](Self::key) back into a configuration.
    pub fn from_key(key: &str) -> Option<CollectionConfig> {
        Self::ALL.into_iter().find(|c| c.key() == key)
    }

    /// One-line human description for reports.
    pub const fn describe(self) -> &'static str {
        match self {
            CollectionConfig::Absent => "no collector attached",
            CollectionConfig::RegisteredPaused => "callbacks registered, event generation paused",
            CollectionConfig::StateQueries => "started, per-event OMP_REQ_STATE queries",
            CollectionConfig::StreamingTrace => "started, streaming trace of every event",
            CollectionConfig::Governed => "started, governed sampling under an overhead budget",
        }
    }

    /// Attach this configuration to the runtime behind `handle`.
    ///
    /// [`Absent`](CollectionConfig::Absent) performs no requests at all;
    /// every other configuration sends `Start` and registers callbacks.
    pub fn attach(self, handle: &RuntimeHandle) -> Result<ActiveCollection, StreamError> {
        match self {
            CollectionConfig::Absent => Ok(ActiveCollection::Absent),
            CollectionConfig::RegisteredPaused => {
                let profiler = Profiler::attach(handle.clone(), ProfilerConfig::default())?;
                profiler.pause()?;
                Ok(ActiveCollection::RegisteredPaused(profiler))
            }
            CollectionConfig::StateQueries => Ok(ActiveCollection::StateQueries(
                StateTimer::attach(handle.clone())?,
            )),
            CollectionConfig::StreamingTrace => {
                let tracer =
                    StreamingTracer::attach(handle.clone(), streaming_config(), MemorySink::new())?;
                Ok(ActiveCollection::StreamingTrace(Box::new(tracer)))
            }
            CollectionConfig::Governed => {
                // Attach (and register) first, then arm the governor:
                // installation calibrates the unmonitored baseline by
                // probing a masked-out event, so it must run against the
                // final registration state. The governor shares the
                // collector's trace clock, putting retune-decision ticks
                // in the trace's time domain.
                let tracer =
                    StreamingTracer::attach(handle.clone(), streaming_config(), MemorySink::new())?;
                let budget_ppm = std::env::var("OMP_ORA_BUDGET")
                    .ok()
                    .and_then(|raw| parse_budget(&raw))
                    .unwrap_or(DEFAULT_BUDGET_PPM);
                handle.install_governor(GovernorConfig {
                    budget_ppm,
                    clock: Some(Arc::new(clock::ticks)),
                    // The library default window (2 ms) suits long-lived
                    // attachments; a collection that lives for one bench
                    // repetition or one fuzz scenario must converge
                    // inside sub-millisecond runs, so retune at 0.1 ms
                    // granularity. The stats pipeline still gates each
                    // retune on having enough cost samples.
                    min_window_ticks: 100_000,
                });
                Ok(ActiveCollection::Governed(Box::new(tracer)))
            }
        }
    }
}

/// Trace pipeline configuration shared by the streaming rungs.
///
/// Long drain epoch: the default 5 ms sweep makes the drainer thread
/// time-share the CPU with the workload on small machines, turning its
/// scheduling luck into bimodal timings. The ring has ample capacity to
/// buffer a measurement repetition; the final sweep in `finish` drains
/// whatever the epochs didn't.
fn streaming_config() -> TraceConfig {
    TraceConfig {
        epoch: std::time::Duration::from_millis(25),
        ..TraceConfig::default()
    }
}

/// A live attachment of one [`CollectionConfig`]. Always [`finish`]
/// (never drop) an active collection, so the runtime's callback slots are
/// released before the next configuration attaches.
///
/// [`finish`]: ActiveCollection::finish
pub enum ActiveCollection {
    /// Nothing attached.
    Absent,
    /// A paused profiler holding its registrations.
    RegisteredPaused(Profiler),
    /// A state-timer issuing per-event queries.
    StateQueries(StateTimer),
    /// A streaming tracer draining into memory.
    StreamingTrace(Box<StreamingTracer<MemorySink>>),
    /// A streaming tracer with the overhead governor armed.
    Governed(Box<StreamingTracer<MemorySink>>),
}

/// What a finished collection observed — enough for a harness to sanity
/// check that each configuration actually did its job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionSummary {
    /// Events the attached callbacks observed (0 for `Absent`, and 0 for
    /// a correctly paused configuration).
    pub events_observed: u64,
    /// Trace records persisted (streaming configuration only).
    pub records_drained: u64,
    /// Trace records lost to backpressure (streaming configuration only).
    pub records_dropped: u64,
    /// Whether the trace pipeline degraded mid-run (drainer death or sink
    /// failure). The workload still completed; the trace is partial.
    pub degraded: bool,
    /// Events the governor admitted (callbacks ran; governed rung only).
    pub events_sampled: u64,
    /// Events the governor sampled out (governed rung only).
    pub events_skipped: u64,
    /// Sampling-rate decision records appended to the trace (governed
    /// rung only; these are included in `records_drained` but are not
    /// events).
    pub governor_records: u64,
}

impl ActiveCollection {
    /// The configuration this attachment realizes.
    pub fn config(&self) -> CollectionConfig {
        match self {
            ActiveCollection::Absent => CollectionConfig::Absent,
            ActiveCollection::RegisteredPaused(_) => CollectionConfig::RegisteredPaused,
            ActiveCollection::StateQueries(_) => CollectionConfig::StateQueries,
            ActiveCollection::StreamingTrace(_) => CollectionConfig::StreamingTrace,
            ActiveCollection::Governed(_) => CollectionConfig::Governed,
        }
    }

    /// Detach: stop collection, release callback registrations, and
    /// discard the collected data.
    pub fn finish(self) -> Result<CollectionSummary, StreamError> {
        self.finish_with_trace().map(|(summary, _)| summary)
    }

    /// Like [`finish`](Self::finish), but for the
    /// [`StreamingTrace`](CollectionConfig::StreamingTrace) rung also
    /// returns the encoded trace bytes, so callers (the oracle-diff
    /// fuzzer, audits) can reconcile the persisted trace — per-lane drop
    /// counters, footer, decodable records — against the summary. Every
    /// other rung returns `None` for the trace.
    pub fn finish_with_trace(self) -> Result<(CollectionSummary, Option<Vec<u8>>), StreamError> {
        match self {
            ActiveCollection::Absent => Ok((CollectionSummary::default(), None)),
            ActiveCollection::RegisteredPaused(profiler) => {
                let events = profiler.events_observed();
                let _ = profiler.finish();
                Ok((
                    CollectionSummary {
                        events_observed: events,
                        ..CollectionSummary::default()
                    },
                    None,
                ))
            }
            ActiveCollection::StateQueries(timer) => {
                let profile = timer.finish();
                Ok((
                    CollectionSummary {
                        events_observed: profile.threads.iter().map(|t| t.events).sum(),
                        ..CollectionSummary::default()
                    },
                    None,
                ))
            }
            ActiveCollection::StreamingTrace(tracer) => finish_streaming(*tracer),
            ActiveCollection::Governed(tracer) => {
                // Snapshot the governor before Stop tears the masks
                // down, and persist its retune log into the trace ahead
                // of the final drain so the decisions ride the same
                // encoded stream as the events they throttled.
                let handle = tracer.handle().clone();
                let status = handle.query_governor().unwrap_or_default();
                let decisions = handle.take_governor_decisions();
                tracer.record_governor_decisions(&decisions);
                let result = finish_streaming(*tracer);
                // Disarm even on error, so later rungs (and reattached
                // collectors) see ungoverned dispatch again.
                handle.uninstall_governor();
                let (mut summary, trace) = result?;
                summary.events_sampled = status.events_sampled;
                summary.events_skipped = status.events_skipped;
                summary.governor_records = decisions.len() as u64;
                Ok((summary, trace))
            }
        }
    }
}

/// Shared teardown for the streaming rungs: stop, drain, and convert the
/// recording stats (or a dead drainer's partial accounting) into a
/// summary plus the encoded trace bytes.
fn finish_streaming(
    tracer: StreamingTracer<MemorySink>,
) -> Result<(CollectionSummary, Option<Vec<u8>>), StreamError> {
    let events = ora_core::event::ALL_EVENTS
        .iter()
        .map(|e| tracer.count(*e))
        .sum();
    let degraded = tracer.is_degraded();
    match tracer.finish() {
        Ok((sink, stats)) => Ok((
            CollectionSummary {
                events_observed: events,
                records_drained: stats.drained(),
                records_dropped: stats.dropped(),
                degraded,
                ..CollectionSummary::default()
            },
            Some(sink.into_bytes()),
        )),
        // A dead drainer is a degraded collection, not a failed run: the
        // workload finished and the partial accounting is right there in
        // the error.
        Err(StreamError::Trace(ora_trace::TraceError::DrainerFailed {
            drained, dropped, ..
        })) => Ok((
            CollectionSummary {
                events_observed: events,
                records_drained: drained,
                records_dropped: dropped,
                degraded: true,
                ..CollectionSummary::default()
            },
            None,
        )),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::OpenMp;

    fn handle(rt: &OpenMp) -> RuntimeHandle {
        RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol")
    }

    #[test]
    fn keys_round_trip_and_are_unique() {
        for c in CollectionConfig::ALL {
            assert_eq!(CollectionConfig::from_key(c.key()), Some(c));
        }
        assert_eq!(CollectionConfig::from_key("nonsense"), None);
        let mut keys: Vec<&str> = CollectionConfig::ALL.iter().map(|c| c.key()).collect();
        keys.dedup();
        assert_eq!(keys.len(), 5);
    }

    #[test]
    fn absent_attaches_without_observing_anything() {
        let rt = OpenMp::with_threads(2);
        let active = CollectionConfig::Absent.attach(&handle(&rt)).unwrap();
        rt.parallel(|_| {});
        let summary = active.finish().unwrap();
        assert_eq!(summary, CollectionSummary::default());
    }

    #[test]
    fn paused_configuration_sees_no_events() {
        let rt = OpenMp::with_threads(2);
        let active = CollectionConfig::RegisteredPaused
            .attach(&handle(&rt))
            .unwrap();
        for _ in 0..4 {
            rt.parallel(|_| {});
        }
        let summary = active.finish().unwrap();
        assert_eq!(
            summary.events_observed, 0,
            "paused dispatch must gate events off before the callbacks"
        );
    }

    #[test]
    fn streaming_configuration_records_events() {
        let rt = OpenMp::with_threads(2);
        let active = CollectionConfig::StreamingTrace
            .attach(&handle(&rt))
            .unwrap();
        for _ in 0..4 {
            rt.parallel(|_| {});
        }
        // Workers fire trailing end-of-barrier events asynchronously.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let summary = active.finish().unwrap();
        assert!(summary.events_observed >= 8, "4 regions fork+join at least");
        assert!(summary.records_drained > 0);
    }

    #[test]
    fn governed_configuration_samples_and_accounts() {
        let rt = OpenMp::with_threads(2);
        let active = CollectionConfig::Governed.attach(&handle(&rt)).unwrap();
        for _ in 0..8 {
            rt.parallel(|_| {});
        }
        // Workers fire trailing end-of-barrier events asynchronously.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (summary, trace) = active.finish_with_trace().unwrap();

        // The governed rung still observes the workload...
        assert!(summary.events_observed > 0, "{summary:?}");
        // ...and its sampling accounting is populated: every observed
        // callback was an admitted event (skips never reach callbacks).
        assert!(
            summary.events_sampled >= summary.events_observed,
            "{summary:?}"
        );
        // The decision log round-trips through the encoded trace: the
        // reader surfaces exactly the persisted decisions as a timeline
        // and keeps them out of the event stream.
        let bytes = trace.expect("governed rung returns a trace");
        let reader = ora_trace::TraceReader::from_bytes(bytes).unwrap();
        let timeline = reader.governor_timeline().unwrap();
        assert_eq!(timeline.len() as u64, summary.governor_records);
        let event_records = reader.records().unwrap().len() as u64;
        assert_eq!(
            event_records + summary.governor_records,
            summary.records_drained,
            "drained records are events plus governor decisions"
        );
    }

    #[test]
    fn each_config_attaches_and_detaches_cleanly_in_sequence() {
        let rt = OpenMp::with_threads(2);
        let h = handle(&rt);
        for config in CollectionConfig::ALL {
            let active = config.attach(&h).expect("attach");
            assert_eq!(active.config(), config);
            rt.parallel(|_| {});
            std::thread::sleep(std::time::Duration::from_millis(20));
            active.finish().expect("finish");
        }
    }
}
