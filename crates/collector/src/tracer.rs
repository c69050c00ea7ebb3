//! Full event tracing — the ORA-callback front of the `ora-trace`
//! pipeline.
//!
//! The optional ORA events exist "to support tracing"; this collector
//! registers for every event the runtime supports and records timestamped
//! records into `ora-trace`'s per-thread lock-free rings (one
//! reserve/commit pair per event — no mutex, no allocation on the hot
//! path). A background drainer epoch-flushes the rings into the binary
//! trace format through any [`TraceSink`]: an [`ora_trace::FileSink`] for
//! `omp_prof trace record`, an [`ora_trace::MemorySink`] when the trace
//! is read back in-process with [`ora_trace::TraceReader`]. Nothing here
//! materializes or interprets the timeline — that is the reader's and
//! `ora_trace::analyze`'s job, offline.
//!
//! The tracer also keeps per-event counters — which is how the
//! `table1_regions` harness measures the parallel-region call counts of
//! the paper's Tables I and II (one fork event per region call).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::event::{Event, EVENT_COUNT};
use ora_core::pad::CachePadded;
use ora_core::registry::EventData;
use ora_core::request::OraError;
use ora_trace::{
    pack_governor_decision, DrainerHealth, RawRecord, Recorder, RecordingStats, RingSet,
    TraceConfig, TraceError, TraceSink, GOVERNOR_EVENT_CODE,
};

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::lane::{Collector, Lane};

/// Why a streaming tracer could not attach or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The ORA handshake or registration failed.
    Ora(OraError),
    /// The trace pipeline failed (I/O, encoding).
    Trace(TraceError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Ora(e) => write!(f, "collector API error: {e:?}"),
            StreamError::Trace(e) => write!(f, "trace pipeline error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<OraError> for StreamError {
    fn from(e: OraError) -> Self {
        StreamError::Ora(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

/// What the tracer's callback touches per event: the counters (Table
/// I/II live here) and the ring set. [`ToolSuite`](crate::ToolSuite)'s
/// trace lane is one of these too.
///
/// The counters are kept per ring lane, each set on its own cache line,
/// so a thread bumps only its lane's words and the traced path shares
/// no written line across the team; [`StreamingTracer::count`] sums the
/// lanes.
pub(crate) struct TraceLane {
    counts: Box<[CachePadded<[AtomicU64; EVENT_COUNT]>]>,
    rings: Arc<RingSet>,
}

impl TraceLane {
    pub(crate) fn new(rings: Arc<RingSet>) -> TraceLane {
        TraceLane {
            counts: (0..rings.lane_count())
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            rings,
        }
    }

    /// Occurrences of `event` summed over the lanes.
    fn count(&self, event: Event) -> u64 {
        self.counts
            .iter()
            .map(|lane| lane[event.index()].load(Ordering::Relaxed))
            .sum()
    }
}

impl Lane for TraceLane {
    fn wants(&self, _: Event) -> bool {
        true
    }

    /// The event callback: count, timestamp, record, all on the
    /// thread's own lane.
    #[inline]
    fn on_event(&self, d: &EventData) {
        let lane = self.rings.lane_of(d.gtid);
        self.counts[lane][d.event.index()].fetch_add(1, Ordering::Relaxed);
        self.rings.lane(lane).record(
            RawRecord {
                tick: clock::ticks(),
                seq: 0, // assigned by the ring
                event: d.event as u32,
                gtid: d.gtid as u32,
                region_id: d.region_id,
                wait_id: d.wait_id,
            },
            self.rings.policy(),
        );
    }
}

/// A tracer streaming encoded chunks into an arbitrary [`TraceSink`].
pub struct StreamingTracer<S: TraceSink + 'static> {
    collector: Collector<TraceLane>,
    recorder: Recorder<S>,
}

impl<S: TraceSink + 'static> StreamingTracer<S> {
    /// Start the recording, then attach to a runtime, start collection,
    /// and register every event the runtime supports (unsupported
    /// registrations are skipped — the paper's runtime rejects
    /// atomic-wait events, for instance). Events stream into `sink` via
    /// the `ora-trace` drainer under `config`. A sink that fails its
    /// header write fails the attach before `Start` is sent.
    pub fn attach(
        handle: RuntimeHandle,
        config: TraceConfig,
        sink: S,
    ) -> Result<StreamingTracer<S>, StreamError> {
        let recorder = Recorder::start(config, sink)?;
        let collector = Collector::attach(handle, TraceLane::new(recorder.rings()))?;
        Ok(StreamingTracer {
            collector,
            recorder,
        })
    }

    /// Occurrences of `event` so far (counted even when the record
    /// itself was dropped by backpressure).
    pub fn count(&self, event: Event) -> u64 {
        self.collector.lane().count(event)
    }

    /// Parallel-region calls observed (fork events).
    pub fn region_calls(&self) -> u64 {
        self.count(Event::Fork)
    }

    /// The runtime handle this tracer is attached through.
    pub fn handle(&self) -> &RuntimeHandle {
        self.collector.handle()
    }

    /// Append the governor's sampling-rate decisions to the trace as
    /// metadata records (event code [`GOVERNOR_EVENT_CODE`]). Call
    /// before [`finish`](Self::finish) so the final drain persists
    /// them; readers drop these records from event streams and surface
    /// them through `TraceReader::governor_timeline`.
    pub fn record_governor_decisions(&self, decisions: &[ora_core::governor::GovernorDecision]) {
        let rings = self.recorder.rings();
        for d in decisions {
            rings.record(RawRecord {
                tick: d.tick,
                seq: 0, // assigned by the ring
                event: GOVERNOR_EVENT_CODE,
                gtid: 0,
                region_id: u64::from(d.event as u32),
                wait_id: pack_governor_decision(d.old_shift, d.new_shift, d.overhead_ppm),
            });
        }
    }

    /// Stop collection, drain everything in flight, write the footer,
    /// and hand back the sink plus the recording's loss accounting. The
    /// callbacks (and with them the ring set) are released.
    pub fn finish(mut self) -> Result<(S, RecordingStats), StreamError> {
        self.collector.stop();
        Ok(self.recorder.finish()?)
    }

    /// Snapshot of the background drainer's supervision state.
    pub fn health(&self) -> DrainerHealth {
        self.recorder.health()
    }

    /// Whether the drainer has died (panic or sink failure) and the
    /// recording is running in degraded mode — events still count, but
    /// new records are dropped instead of persisted.
    pub fn is_degraded(&self) -> bool {
        self.recorder.is_degraded()
    }
}
