//! Full event tracing — a thin adapter over the `ora-trace` pipeline.
//!
//! The optional ORA events exist "to support tracing"; this collector
//! registers for every event the runtime supports and records timestamped
//! records into `ora-trace`'s per-thread lock-free rings (one
//! reserve/commit pair per event — no mutex, no allocation on the hot
//! path). A background drainer epoch-flushes the rings into the binary
//! trace format; [`Tracer::finish`] decodes the encoded trace back into
//! the in-memory [`Trace`], merged **stably** by `(tick, gtid, per-ring
//! seq)` so records with colliding ticks still order deterministically.
//! The adapter also keeps per-event counters — which is how the
//! `table1_regions` harness measures the parallel-region call counts of
//! the paper's Tables I and II (one fork event per region call).
//!
//! [`StreamingTracer`] is the production entry point: it takes any
//! [`TraceSink`] (e.g. [`ora_trace::FileSink`]) and never materializes
//! the trace in memory — the `omp_prof trace record` subcommand is a
//! `StreamingTracer` writing to a file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::event::{Event, ALL_EVENTS, EVENT_COUNT};
use ora_core::registry::EventData;
use ora_core::request::{OraError, OraResult, Request};
use ora_trace::{
    pack_governor_decision, DrainerHealth, MemorySink, RawRecord, Recorder, RecordingStats,
    TraceConfig, TraceError, TraceReader, TraceSink, GOVERNOR_EVENT_CODE,
};

use crate::clock;
use crate::discovery::{Registrations, RuntimeHandle};

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Time of the event.
    pub tick: u64,
    /// Firing thread.
    pub gtid: usize,
    /// The event.
    pub event: Event,
    /// Region the thread was executing (0 outside regions).
    pub region_id: u64,
    /// Wait ID for wait events, else 0.
    pub wait_id: u64,
}

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

/// Per-event counters shared with the callbacks (Table I/II live here).
struct CountState {
    counts: [AtomicU64; EVENT_COUNT],
}

/// A tracer streaming encoded chunks into an arbitrary [`TraceSink`].
pub struct StreamingTracer<S: TraceSink + 'static> {
    registrations: Registrations,
    counts: Arc<CountState>,
    recorder: Recorder<S>,
}

impl<S: TraceSink + 'static> StreamingTracer<S> {
    /// Attach to a runtime, start collection, and register every event
    /// the runtime supports (unsupported registrations are skipped — the
    /// paper's runtime rejects atomic-wait events, for instance).
    /// Events stream into `sink` via the `ora-trace` drainer under
    /// `config`.
    pub fn attach(
        handle: RuntimeHandle,
        config: TraceConfig,
        sink: S,
    ) -> Result<StreamingTracer<S>, StreamError> {
        handle.request_one(Request::Start)?;
        let recorder = Recorder::start(config, sink)?;
        let rings = recorder.rings();
        let counts = Arc::new(CountState {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        });

        // Plan registrations from the capabilities bitmap when available
        // (one round trip instead of per-event UNSUPPORTED probing).
        let supported: Vec<Event> = match handle.request_one(Request::QueryCapabilities) {
            Ok(resp) => resp
                .supported_events()
                .unwrap_or_else(|| ALL_EVENTS.to_vec()),
            Err(_) => ALL_EVENTS.to_vec(),
        };
        let mut registrations = Registrations::new(handle);
        for event in supported {
            let rings = rings.clone();
            let counts = counts.clone();
            // Unsupported optional events are fine; anything else is not.
            registrations.register_if_supported(
                event,
                Arc::new(move |d: &EventData| {
                    counts.counts[d.event.index()].fetch_add(1, Ordering::Relaxed);
                    rings.record(RawRecord {
                        tick: clock::ticks(),
                        seq: 0, // assigned by the ring
                        event: d.event as u32,
                        gtid: d.gtid as u32,
                        region_id: d.region_id,
                        wait_id: d.wait_id,
                    });
                }),
            )?;
        }

        Ok(StreamingTracer {
            registrations,
            counts,
            recorder,
        })
    }

    /// Occurrences of `event` so far (counted even when the record
    /// itself was dropped by backpressure).
    pub fn count(&self, event: Event) -> u64 {
        self.counts.counts[event.index()].load(Ordering::Relaxed)
    }

    /// Parallel-region calls observed (fork events).
    pub fn region_calls(&self) -> u64 {
        self.count(Event::Fork)
    }

    /// The runtime handle this tracer is attached through.
    pub fn handle(&self) -> &RuntimeHandle {
        self.registrations.handle()
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
        self.registrations.stop();
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

    /// Snapshot of the per-event counters, indexed by [`Event::index`].
    fn counts_snapshot(&self) -> [u64; EVENT_COUNT] {
        std::array::from_fn(|i| self.counts.counts[i].load(Ordering::Relaxed))
    }
}

/// An attached tracer accumulating in memory (the legacy API — tools
/// that want a file on disk should use [`StreamingTracer`] with an
/// [`ora_trace::FileSink`]).
pub struct Tracer {
    inner: StreamingTracer<MemorySink>,
}

impl Tracer {
    /// Attach to a runtime, start collection, and register every event
    /// the runtime supports. `capacity` bounds the total records kept;
    /// past it the newest records are dropped (and counted). The
    /// drainer's epoch is effectively disabled so the bound applies to
    /// the whole run, exactly like the old mutex-shard tracer.
    pub fn attach(handle: RuntimeHandle, capacity: usize) -> OraResult<Tracer> {
        let config = TraceConfig {
            // Retain-at-most-`capacity` semantics: no mid-run draining.
            epoch: std::time::Duration::from_secs(3600),
            ..TraceConfig::with_total_capacity(capacity)
        };
        match StreamingTracer::attach(handle, config, MemorySink::new()) {
            Ok(inner) => Ok(Tracer { inner }),
            Err(StreamError::Ora(e)) => Err(e),
            Err(StreamError::Trace(e)) => unreachable!("memory sink cannot fail: {e}"),
        }
    }

    /// Occurrences of `event` so far.
    pub fn count(&self, event: Event) -> u64 {
        self.inner.count(event)
    }

    /// Parallel-region calls observed (fork events).
    pub fn region_calls(&self) -> u64 {
        self.inner.region_calls()
    }

    /// Stop collection and return the merged trace, stably ordered by
    /// `(tick, gtid, per-ring seq)`.
    pub fn finish(self) -> Trace {
        let counts = self.inner.counts_snapshot();
        let (sink, stats) = self.inner.finish().expect("memory sink cannot fail");
        let mut trace = Trace::from_encoded(sink.bytes()).expect("self-encoded trace decodes");
        trace.counts = counts;
        trace.dropped = stats.dropped();
        trace
    }
}

/// A finished trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Records stably ordered by `(tick, gtid, per-ring seq)`.
    pub records: Vec<TraceRecord>,
    /// Total occurrences per event (indexed by [`Event::index`]), counting
    /// records dropped past the capacity too.
    pub counts: [u64; EVENT_COUNT],
    /// Records dropped because the buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// Decode a binary `ora-trace` file into an in-memory trace. Counts
    /// are rebuilt from the persisted records; `dropped` comes from the
    /// footer's per-lane drop counters, so loss stays observable.
    pub fn from_encoded(bytes: &[u8]) -> Result<Trace, TraceError> {
        let reader = TraceReader::from_bytes(bytes.to_vec())?;
        let dropped = reader.dropped();
        let mut counts = [0u64; EVENT_COUNT];
        let records = reader
            .records()?
            .into_iter()
            .map(|e| {
                counts[e.event.index()] += 1;
                TraceRecord {
                    tick: e.tick,
                    gtid: e.gtid,
                    event: e.event,
                    region_id: e.region_id,
                    wait_id: e.wait_id,
                }
            })
            .collect();
        Ok(Trace {
            records,
            counts,
            dropped,
        })
    }

    /// Occurrences of `event`.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Records for one thread, in time order.
    pub fn for_thread(&self, gtid: usize) -> Vec<TraceRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| r.gtid == gtid)
            .collect()
    }

    /// Check begin/end pairing for an interval event pair on each thread:
    /// returns the number of unmatched begins.
    pub fn unmatched_begins(&self, begin: Event) -> u64 {
        let end = begin.pair().expect("paired event");
        let mut depth: std::collections::HashMap<usize, i64> = Default::default();
        let mut unmatched = 0i64;
        for r in &self.records {
            let d = depth.entry(r.gtid).or_insert(0);
            if r.event == begin {
                *d += 1;
            } else if r.event == end {
                if *d > 0 {
                    *d -= 1;
                } else {
                    unmatched += 1;
                }
            }
        }
        depth.values().sum::<i64>().unsigned_abs() + unmatched.unsigned_abs()
    }

    /// Export the trace as CSV (`tick,gtid,event,region_id,wait_id` with
    /// a header row) for offline analysis — the "reconstructing … is done
    /// offline after the application finishes" workflow.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("tick,gtid,event,region_id,wait_id\n");
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                r.tick, r.gtid, r.event as u32, r.region_id, r.wait_id
            );
        }
        out
    }

    /// Parse a CSV produced by [`Trace::to_csv`]. Counts are rebuilt from
    /// the records (dropped records are not representable in CSV).
    pub fn from_csv(csv: &str) -> Result<Trace, String> {
        let mut records = Vec::new();
        let mut counts = [0u64; EVENT_COUNT];
        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 || line.is_empty() {
                continue; // header
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(format!("line {}: expected 5 fields", lineno + 1));
            }
            let parse = |i: usize| -> Result<u64, String> {
                fields[i]
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: field {}: {e}", lineno + 1, i))
            };
            let event_raw = parse(2)? as u32;
            let event = Event::from_u32(event_raw)
                .ok_or_else(|| format!("line {}: unknown event {event_raw}", lineno + 1))?;
            counts[event.index()] += 1;
            records.push(TraceRecord {
                tick: parse(0)?,
                gtid: parse(1)? as usize,
                event,
                region_id: parse(3)?,
                wait_id: parse(4)?,
            });
        }
        Ok(Trace {
            records,
            counts,
            dropped: 0,
        })
    }

    /// Render the first `n` records as text.
    pub fn render_head(&self, n: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in self.records.iter().take(n) {
            let _ = writeln!(
                out,
                "{:>12} t{:<3} {:<34} region={} wait={}",
                r.tick,
                r.gtid,
                r.event.name(),
                r.region_id,
                r.wait_id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_trace::RingSet;

    fn sample_trace() -> Trace {
        let records = vec![
            TraceRecord {
                tick: 10,
                gtid: 0,
                event: Event::Fork,
                region_id: 1,
                wait_id: 0,
            },
            TraceRecord {
                tick: 20,
                gtid: 1,
                event: Event::ThreadBeginImplicitBarrier,
                region_id: 1,
                wait_id: 3,
            },
            TraceRecord {
                tick: 30,
                gtid: 0,
                event: Event::Join,
                region_id: 1,
                wait_id: 0,
            },
        ];
        let mut counts = [0u64; EVENT_COUNT];
        for r in &records {
            counts[r.event.index()] += 1;
        }
        Trace {
            records,
            counts,
            dropped: 0,
        }
    }

    #[test]
    fn csv_round_trips() {
        let trace = sample_trace();
        let csv = trace.to_csv();
        let parsed = Trace::from_csv(&csv).unwrap();
        assert_eq!(parsed.records, trace.records);
        assert_eq!(parsed.counts, trace.counts);
        // And a second serialization is identical.
        assert_eq!(parsed.to_csv(), csv);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "tick,gtid,event,region_id,wait_id");
        assert!(lines[1].starts_with("10,0,1,1,0"));
    }

    #[test]
    fn malformed_csv_is_rejected_with_line_numbers() {
        assert!(Trace::from_csv("tick,gtid\n1,2").is_err());
        let err = Trace::from_csv("header\n1,2,999,4,5").unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
        let err = Trace::from_csv("header\nx,2,1,4,5").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn empty_csv_parses_to_empty_trace() {
        let t = Trace::from_csv("tick,gtid,event,region_id,wait_id\n").unwrap();
        assert!(t.records.is_empty());
        assert_eq!(t.counts.iter().sum::<u64>(), 0);
    }

    /// Record a batch through the real ring→drain→encode→decode path.
    fn round_trip(records: &[RawRecord], lanes: usize) -> Trace {
        let cfg = TraceConfig {
            lanes,
            epoch: std::time::Duration::from_secs(3600),
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings: Arc<RingSet> = recorder.rings();
        for r in records {
            rings.record(*r);
        }
        let (sink, _) = recorder.finish().unwrap();
        Trace::from_encoded(sink.bytes()).unwrap()
    }

    /// Regression: records with *colliding ticks* must come out in a
    /// deterministic order — the merge is keyed by `(tick, gtid, seq)`,
    /// not tick alone (the old `sort_by_key(tick)` left equal-tick
    /// ordering to the sorting algorithm and shard iteration order).
    #[test]
    fn equal_tick_records_order_deterministically() {
        // Interleave two threads, every record at the same tick, plus a
        // same-thread run of identical ticks to exercise the seq key.
        let mut batch = Vec::new();
        for i in 0..20u32 {
            batch.push(RawRecord {
                tick: 500,
                gtid: i % 2,
                event: Event::Fork as u32,
                region_id: u64::from(i),
                ..RawRecord::default()
            });
        }
        let first = round_trip(&batch, 4);
        assert_eq!(first.records.len(), 20);
        // Deterministic: ten more encode/decode round trips agree exactly.
        for _ in 0..10 {
            let again = round_trip(&batch, 4);
            assert_eq!(again.records, first.records);
        }
        // And the order is the documented key: gtid ascending at equal
        // ticks, per-thread arrival (seq) order within a gtid.
        for w in first.records.windows(2) {
            assert!(w[0].gtid <= w[1].gtid);
        }
        let t0: Vec<u64> = first
            .records
            .iter()
            .filter(|r| r.gtid == 0)
            .map(|r| r.region_id)
            .collect();
        assert_eq!(t0, (0..20u64).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn from_encoded_rebuilds_counts_and_drops() {
        let batch: Vec<RawRecord> = (0..50)
            .map(|i| RawRecord {
                tick: 1000 + i,
                gtid: 0,
                event: Event::Join as u32,
                ..RawRecord::default()
            })
            .collect();
        let trace = round_trip(&batch, 1);
        assert_eq!(trace.count(Event::Join), 50);
        assert_eq!(trace.dropped, 0);
    }
}
