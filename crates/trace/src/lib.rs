//! # ora-trace — always-on streaming event traces
//!
//! The paper's position is that ORA event callbacks are cheap enough to
//! leave enabled in production. This crate supplies the pipeline that
//! makes the *data* production-grade too:
//!
//! * [`ring`] — per-thread lock-free bounded rings the event callback
//!   records into with one reserve/commit pair (no mutex, no allocation
//!   on the hot path), with configurable [`DropPolicy`] backpressure and
//!   per-ring drop counters so loss is always observable;
//! * [`drain`] — a background drainer thread that flushes rings into
//!   chunks through a [`TraceSink`] every epoch, and sooner when a
//!   Block lane rings its doorbell;
//! * [`format`] — the compact self-describing binary on-disk format
//!   (a record is one header byte plus a tick delta in the common case;
//!   CRC-validated chunks that carry their own tick ranges and region
//!   masks; a header with a clock anchor; a footer carrying drop
//!   counters and a chunk index) and the one walker of its chunk
//!   stream, which still reads version 1 files;
//! * [`sink`] — the [`TraceSink`] trait with file and in-memory
//!   implementations;
//! * [`reader`] — offline querying: a walked, CRC-checked chunk index
//!   (salvaged from the chunks alone when the footer is missing), lazy
//!   decode, and time-range / per-thread / per-region queries and a
//!   multi-rank merge for ProcSim (`workloads::mz`) runs, all read off
//!   one lazy lane-cursor merge keyed `(tick, gtid, seq)`;
//! * [`analyze`] — everything read off a finished timeline: the one
//!   begin/end pairing, the region/wait summary, and the
//!   detrimental-pattern detectors.
//!
//! [`TraceEvent`] and [`RankedEvent`] are the workspace's only
//! finished-timeline records. `collector::StreamingTracer` feeds the
//! rings from ORA callbacks; the `omp_prof` CLI exposes the rest as
//! `trace record` / `trace report` / `trace analyze`. Like the rest of
//! the workspace, the crate is std-only (see DESIGN.md §4).
//!
//! ```
//! use ora_trace::{MemorySink, RawRecord, Recorder, TraceConfig, TraceReader};
//!
//! let recorder = Recorder::start(TraceConfig::default(), MemorySink::new()).unwrap();
//! let rings = recorder.rings();
//! rings.record(RawRecord { tick: 42, gtid: 0, event: 1, ..Default::default() });
//! let (sink, stats) = recorder.finish().unwrap();
//! assert_eq!(stats.drained(), 1);
//! let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
//! assert_eq!(reader.records().unwrap()[0].tick, 42);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod drain;
pub mod format;
pub mod reader;
pub mod ring;
pub mod sink;

pub use analyze::{
    AnalysisReport, AnalyzeConfig, Finding, Interval, PatternKind, Summary, Unpaired,
};
pub use drain::{DrainerHealth, Recorder, RecordingStats, TraceConfig};
pub use format::{
    pack_governor_decision, unpack_governor_decision, Anchor, ChunkMeta, Footer, LaneStats,
    GOVERNOR_EVENT_CODE,
};
pub use reader::{
    decode_run, merge_ranks, merge_ranks_iter, merge_run, GovernorSample, RankMergeIter,
    RankedEvent, RankedKey, Salvage, TraceEvent, TraceReader,
};
pub use ring::{DropPolicy, RawRecord, Ring, RingSet, RingStats, DEFAULT_BLOCK_YIELD_LIMIT};
pub use sink::{FaultMode, FaultSink, FileSink, MemorySink, TraceSink};

/// Everything that can go wrong encoding, writing, or reading a trace.
///
/// Corrupt or truncated input always surfaces as one of these variants —
/// never a panic — so tools can distinguish "file damaged" from "file
/// from a different format version" from plain I/O failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An underlying I/O operation failed (message preserved).
    Io(String),
    /// The file does not start with the `ORATRC` magic.
    BadMagic,
    /// The file is a trace but of an unsupported format version.
    BadVersion(u16),
    /// The input ended mid-structure.
    Truncated,
    /// A chunk or footer CRC did not match its payload.
    CrcMismatch {
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the payload read.
        actual: u32,
    },
    /// No footer magic where a footer should end (a reader salvages
    /// such a file instead: see [`TraceReader::salvaged`]).
    MissingFooter,
    /// A record carries an event discriminant this build does not know.
    UnknownEvent(u32),
    /// A structural invariant failed (reason attached).
    Malformed(&'static str),
    /// The background drainer died mid-recording (panic or sink
    /// failure). Carries the partial-trace accounting so callers know
    /// how much data survived.
    DrainerFailed {
        /// The sink error or panic message that killed the drainer.
        reason: String,
        /// Records persisted before the failure.
        drained: u64,
        /// Records lost to backpressure up to the failure.
        dropped: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace I/O error: {msg}"),
            TraceError::BadMagic => write!(f, "not an ora-trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::Truncated => write!(f, "trace data is truncated"),
            TraceError::CrcMismatch { expected, actual } => write!(
                f,
                "trace chunk corrupt: crc {expected:#010x} stored, {actual:#010x} computed"
            ),
            TraceError::MissingFooter => write!(f, "trace has no footer (incomplete recording?)"),
            TraceError::UnknownEvent(e) => write!(f, "trace record has unknown event {e}"),
            TraceError::Malformed(why) => write!(f, "malformed trace: {why}"),
            TraceError::DrainerFailed {
                reason,
                drained,
                dropped,
            } => write!(
                f,
                "trace drainer failed ({reason}); partial trace: {drained} records drained, {dropped} dropped"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e.to_string())
    }
}

impl From<ora_core::bytes::Error> for TraceError {
    fn from(e: ora_core::bytes::Error) -> TraceError {
        match e {
            ora_core::bytes::Error::Truncated => TraceError::Truncated,
            ora_core::bytes::Error::Malformed(why) => TraceError::Malformed(why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_core::event::Event;

    /// Record a batch through the real ring→drain→encode path.
    fn encode(lanes: usize, records: impl IntoIterator<Item = RawRecord>) -> Vec<u8> {
        let cfg = TraceConfig {
            lanes,
            epoch: std::time::Duration::from_secs(3600),
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for r in records {
            rings.record(r);
        }
        recorder.finish().unwrap().0.into_bytes()
    }

    fn sample_trace_bytes() -> Vec<u8> {
        encode(
            4,
            (0u64..200).map(|i| RawRecord {
                tick: 1_000 + i * 10,
                gtid: (i % 8) as u32,
                event: if i % 2 == 0 {
                    Event::Fork as u32
                } else {
                    Event::Join as u32
                },
                region_id: i / 50,
                wait_id: 0,
                seq: 0,
            }),
        )
    }

    #[test]
    fn reader_merges_by_tick_gtid_seq() {
        let reader = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let records = reader.records().unwrap();
        assert_eq!(records.len(), 200);
        for w in records.windows(2) {
            assert!(w[0].key() <= w[1].key(), "merge order violated");
        }
    }

    #[test]
    fn time_range_query_is_inclusive_and_exact() {
        let reader = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let all = reader.records().unwrap();
        let lo = 1_500;
        let hi = 2_000;
        let got = reader.time_range(lo, hi).unwrap();
        let want: Vec<_> = all
            .iter()
            .copied()
            .filter(|r| (lo..=hi).contains(&r.tick))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
        assert!(reader.time_range(0, 10).unwrap().is_empty());
    }

    #[test]
    fn per_thread_query_matches_filter() {
        let reader = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let all = reader.records().unwrap();
        for gtid in 0..8 {
            let got = reader.for_thread(gtid).unwrap();
            let want: Vec<_> = all.iter().copied().filter(|r| r.gtid == gtid).collect();
            assert_eq!(got, want);
            // Per-thread sequences come out tick-ordered.
            assert!(got.windows(2).all(|w| w[0].tick <= w[1].tick));
        }
        assert!(reader.for_thread(99).unwrap().is_empty());
    }

    #[test]
    fn per_region_query_matches_filter() {
        let reader = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let all = reader.records().unwrap();
        for region in 0..4 {
            let got = reader.for_region(region).unwrap();
            let want: Vec<_> = all
                .iter()
                .copied()
                .filter(|r| r.region_id == region)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn event_counts_and_drops_are_rebuilt_from_the_file() {
        let reader = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let counts = reader.event_counts().unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 200);
        assert_eq!(counts[Event::Fork.index()], 100);
        assert_eq!(counts[Event::Join.index()], 100);
        assert_eq!(reader.record_count(), 200);
        assert_eq!(reader.dropped(), Some(0));
    }

    /// Regression: records with *colliding ticks* must come out in a
    /// deterministic order — the merge is keyed by `(tick, gtid, seq)`,
    /// not tick alone (a `sort_by_key(tick)` leaves equal-tick ordering
    /// to the sorting algorithm and lane iteration order).
    #[test]
    fn equal_tick_records_order_deterministically() {
        let round_trip = |records: &[RawRecord]| {
            let reader = TraceReader::from_bytes(encode(4, records.iter().copied())).unwrap();
            reader.records().unwrap()
        };
        // Interleave two threads, every record at the same tick, plus a
        // same-thread run of identical ticks to exercise the seq key.
        let batch: Vec<RawRecord> = (0..20u32)
            .map(|i| RawRecord {
                tick: 500,
                gtid: i % 2,
                event: Event::Fork as u32,
                region_id: u64::from(i),
                ..RawRecord::default()
            })
            .collect();
        let first = round_trip(&batch);
        assert_eq!(first.len(), 20);
        // Deterministic: ten more encode/decode round trips agree exactly.
        for _ in 0..10 {
            assert_eq!(round_trip(&batch), first);
        }
        // And the order is the documented key: gtid ascending at equal
        // ticks, per-thread arrival (seq) order within a gtid.
        assert!(first.windows(2).all(|w| w[0].gtid <= w[1].gtid));
        let t0: Vec<u64> = first
            .iter()
            .filter(|r| r.gtid == 0)
            .map(|r| r.region_id)
            .collect();
        assert_eq!(t0, (0..20u64).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn multi_rank_merge_is_deterministic_and_rank_keyed() {
        let a = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let b = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let merged = merge_ranks(&[a, b]).unwrap();
        assert_eq!(merged.len(), 400);
        for w in merged.windows(2) {
            let ka = (
                w[0].record.tick,
                w[0].record.gtid,
                w[0].record.seq,
                w[0].rank,
            );
            let kb = (
                w[1].record.tick,
                w[1].record.gtid,
                w[1].record.seq,
                w[1].rank,
            );
            assert!(ka <= kb, "rank merge order violated");
        }
        // Full-key collisions across ranks: rank 0 precedes rank 1.
        for pair in merged.chunks(2) {
            assert_eq!(pair[0].record.tick, pair[1].record.tick);
            assert_eq!(pair[0].rank, 0);
            assert_eq!(pair[1].rank, 1);
        }
    }

    #[test]
    fn truncated_and_garbage_inputs_yield_typed_errors() {
        assert_eq!(
            TraceReader::from_bytes(Vec::new()).unwrap_err(),
            TraceError::Truncated
        );
        assert_eq!(
            TraceReader::from_bytes(b"NOTATRACEFILE---".to_vec()).unwrap_err(),
            TraceError::BadMagic
        );
        // A torn footer: the chunks before it are salvaged whole.
        let whole = TraceReader::from_bytes(sample_trace_bytes()).unwrap();
        let mut bytes = sample_trace_bytes();
        bytes.truncate(bytes.len() - 3);
        let torn = TraceReader::from_bytes(bytes).unwrap();
        let salvage = torn
            .salvaged()
            .expect("a trace without its footer is salvaged");
        assert_eq!(salvage.chunks, whole.footer().unwrap().chunks.len());
        assert!(salvage.bytes_discarded > 0);
        assert_eq!(torn.records().unwrap(), whole.records().unwrap());
        assert_eq!(torn.dropped(), None, "drop counts are unknown, not 0");
    }

    #[test]
    fn governor_records_skip_event_streams_and_feed_the_timeline() {
        let cfg = TraceConfig {
            lanes: 2,
            epoch: std::time::Duration::from_secs(3600),
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for i in 0u64..50 {
            rings.record(RawRecord {
                tick: 100 + i,
                gtid: (i % 4) as u32,
                event: Event::Fork as u32,
                ..RawRecord::default()
            });
        }
        // Two retune decisions for the explicit-barrier pair.
        for (tick, old, new, ppm) in [(120u64, 0u32, 3u32, 91_000u64), (140, 3, 5, 45_000)] {
            rings.record(RawRecord {
                tick,
                gtid: 0,
                event: GOVERNOR_EVENT_CODE,
                region_id: u64::from(Event::ThreadBeginExplicitBarrier as u32),
                wait_id: pack_governor_decision(old, new, ppm),
                seq: 0,
            });
        }
        let (sink, stats) = recorder.finish().unwrap();
        assert_eq!(stats.drained(), 52, "decisions are persisted records");
        let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
        // Event queries never see decision records...
        let records = reader.records().unwrap();
        assert_eq!(records.len(), 50);
        assert!(records.iter().all(|r| r.event == Event::Fork));
        assert_eq!(reader.event_counts().unwrap().iter().sum::<u64>(), 50);
        assert_eq!(
            reader.events().map(Result::unwrap).count(),
            50,
            "the streaming iterator filters them too"
        );
        // ...while the timeline decodes them, in tick order.
        let timeline = reader.governor_timeline().unwrap();
        assert_eq!(timeline.len(), 2);
        assert_eq!(
            timeline[0],
            GovernorSample {
                tick: 120,
                gtid: 0,
                event: Event::ThreadBeginExplicitBarrier,
                old_shift: 0,
                new_shift: 3,
                overhead_ppm: 91_000,
            }
        );
        assert_eq!(timeline[1].new_shift, 5);
        assert_eq!(timeline[1].overhead_ppm, 45_000);
    }

    #[test]
    fn unknown_event_is_a_typed_error() {
        let unknown = RawRecord {
            event: 999,
            ..RawRecord::default()
        };
        let reader = TraceReader::from_bytes(encode(1, [unknown])).unwrap();
        assert_eq!(reader.records().unwrap_err(), TraceError::UnknownEvent(999));
    }

    #[test]
    fn error_display_is_informative() {
        let s = TraceError::CrcMismatch {
            expected: 1,
            actual: 2,
        }
        .to_string();
        assert!(s.contains("corrupt"), "{s}");
        assert!(TraceError::BadVersion(9).to_string().contains('9'));
    }
}
