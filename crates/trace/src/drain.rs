//! The background drainer: flushes rings into a sink as they fill.
//!
//! A [`Recorder`] owns a [`RingSet`] shared with the event callbacks and
//! one drainer thread. The drainer sleeps on the ring set's
//! [`Doorbell`](ora_core::park::Doorbell) for at most `epoch`, then
//! sweeps all lanes: it encodes whatever each lane accumulated as one
//! chunk, appends it to the sink, and flushes the sink if the sweep
//! wrote anything, so a killed process leaves every chunk up to its last
//! sweep for the reader to salvage. A [`DropPolicy::Block`] lane that is
//! half undrained, or full, rings the doorbell (see [`crate::ring`]), so
//! under Block the drain follows the event rate: a lane filling in a few
//! milliseconds is swept as often as it needs, a quiet lane once an
//! epoch. Newest and Oldest lanes are swept on the epoch alone.
//! [`Recorder::finish`] raises the stop flag and rings the doorbell,
//! performs a final sweep (so nothing in-flight is lost), writes the
//! footer with the per-lane drop counters, and hands the sink back.
//!
//! ## Supervision
//!
//! The drainer is the one component whose death used to be able to take
//! the application with it (a [`DropPolicy::Block`] producer would wait
//! on it forever). It now runs supervised: the loop is wrapped in
//! `catch_unwind`, bumps a heartbeat every epoch, and on *any* failure —
//! panic or sink error — flips the shared rings into shutdown so
//! producers degrade to counted drops instead of waiting. The failure
//! itself is preserved and [`Recorder::finish`] returns it as
//! [`TraceError::DrainerFailed`] together with how much of the trace
//! made it out. [`Recorder::health`] exposes the same state live.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::format::{self, ChunkMeta, Footer, LaneStats};
use crate::ring::{DropPolicy, RawRecord, RingSet, RingStats, DEFAULT_BLOCK_YIELD_LIMIT};
use crate::sink::TraceSink;
use crate::TraceError;

/// Tuning for a recording session.
///
/// The ring set reserves `lanes × capacity_per_lane × 48` bytes (48 MiB
/// under the defaults) but touches it only as it is written: each ring
/// is an anonymous mapping whose pages fault in during the lane's first
/// lap, so a team recording into two lanes pays for two.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring lanes (threads map to lanes by `gtid % lanes`). A lane no
    /// thread records into costs address space only.
    pub lanes: usize,
    /// Records each lane buffers before backpressure (48 bytes a slot,
    /// touched on the lane's first lap).
    pub capacity_per_lane: usize,
    /// What a full lane does to its producer.
    pub policy: DropPolicy,
    /// The longest a record waits for a sweep; a half-full
    /// [`DropPolicy::Block`] lane wakes the drainer sooner.
    pub epoch: Duration,
    /// Largest record count per encoded chunk (bounds decode memory).
    pub max_chunk_records: usize,
    /// Yields a [`DropPolicy::Block`] producer spends on a full lane
    /// before degrading to a counted drop (see
    /// [`crate::ring::DEFAULT_BLOCK_YIELD_LIMIT`]).
    pub block_yield_limit: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            lanes: 64,
            capacity_per_lane: 1 << 14,
            policy: DropPolicy::Newest,
            epoch: Duration::from_millis(5),
            max_chunk_records: 1 << 12,
            block_yield_limit: DEFAULT_BLOCK_YIELD_LIMIT,
        }
    }
}

/// Result accounting for a finished recording.
#[derive(Debug, Clone, Default)]
pub struct RecordingStats {
    /// Per-lane counters, as persisted in the footer. In the v1 footer
    /// the blocked-producer drops are folded into `dropped_newest`
    /// (both mean "the incoming record was lost"); the precise split is
    /// in `dropped_blocked`.
    pub lanes: Vec<LaneStats>,
    /// Chunks written.
    pub chunks: usize,
    /// Records dropped by blocked producers whose bounded wait expired.
    pub dropped_blocked: u64,
    /// Block records that found their lane full (summed
    /// [`RingStats::blocked_waits`]; not in the footer).
    pub blocked_waits: u64,
    /// Clock ticks those waits took in total (not in the footer).
    pub blocked_wait_ticks: u64,
}

impl RecordingStats {
    /// Records persisted.
    pub fn drained(&self) -> u64 {
        self.lanes.iter().map(|l| l.drained).sum()
    }

    /// Records lost to backpressure.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped()).sum()
    }
}

/// A live snapshot of the drainer thread's condition, for health
/// reports while a recording is running.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainerHealth {
    /// Whether the drainer thread is still running.
    pub alive: bool,
    /// Whether the recording has degraded (drainer panicked or the sink
    /// failed); producers now drop instead of blocking.
    pub degraded: bool,
    /// Sweeps completed — a frozen value with `alive` still true means
    /// the drainer is wedged.
    pub heartbeats: u64,
    /// Records persisted so far.
    pub drained: u64,
    /// The failure that degraded the recording, if any.
    pub error: Option<String>,
}

/// Supervision state shared between the drainer thread, the producers'
/// ring shutdown flag, and health queries.
struct Supervisor {
    /// Raised by `finish` or drop, before they ring the doorbell: the
    /// drainer leaves its loop instead of sweeping.
    stop: AtomicBool,
    alive: AtomicBool,
    degraded: AtomicBool,
    heartbeats: AtomicU64,
    drained: AtomicU64,
    error: Mutex<Option<String>>,
}

impl Supervisor {
    fn new() -> Supervisor {
        Supervisor {
            stop: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            heartbeats: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            error: Mutex::new(None),
        }
    }

    /// Record a drainer failure (first reason wins).
    fn fail(&self, reason: &str) {
        self.degraded.store(true, Ordering::Release);
        let mut slot = self.error.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
    }

    /// Stop the drainer: raise the flag, then wake it.
    fn stop(&self, rings: &RingSet) {
        self.stop.store(true, Ordering::Release);
        rings.doorbell().ring();
    }

    fn health(&self) -> DrainerHealth {
        DrainerHealth {
            alive: self.alive.load(Ordering::Acquire),
            degraded: self.degraded.load(Ordering::Acquire),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            error: self.error.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

/// Best-effort text of a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "drainer panicked".to_string()
    }
}

struct DrainState<S: TraceSink> {
    sink: S,
    /// Bytes written so far (chunk offsets key the footer index).
    offset: u64,
    index: Vec<ChunkMeta>,
    drained_per_lane: Vec<u64>,
    scratch: Vec<RawRecord>,
    encode_buf: Vec<u8>,
}

impl<S: TraceSink> DrainState<S> {
    /// Sweep every lane once; encode and append one chunk per non-empty
    /// lane (splitting at `max_chunk_records`), then flush the sink if
    /// any chunk was written.
    fn sweep(&mut self, rings: &RingSet, max_chunk_records: usize) -> Result<(), TraceError> {
        let chunks_before = self.index.len();
        for lane in 0..rings.lane_count() {
            loop {
                self.scratch.clear();
                rings
                    .lane(lane)
                    .drain_into(&mut self.scratch, max_chunk_records);
                if self.scratch.is_empty() {
                    break;
                }
                self.encode_buf.clear();
                let meta = format::encode_chunk(
                    &mut self.encode_buf,
                    self.offset,
                    lane as u64,
                    &self.scratch,
                );
                self.sink.write_all(&self.encode_buf)?;
                self.offset += self.encode_buf.len() as u64;
                self.drained_per_lane[lane] += self.scratch.len() as u64;
                self.index.push(meta);
                if self.scratch.len() < max_chunk_records {
                    break;
                }
            }
        }
        if self.index.len() > chunks_before {
            self.sink.flush()?;
        }
        Ok(())
    }

    fn total_drained(&self) -> u64 {
        self.drained_per_lane.iter().sum()
    }
}

/// An active recording: rings + supervised drainer thread + sink.
pub struct Recorder<S: TraceSink + 'static> {
    rings: Arc<RingSet>,
    supervisor: Arc<Supervisor>,
    drainer: Option<JoinHandle<Result<DrainState<S>, TraceError>>>,
    max_chunk_records: usize,
}

impl<S: TraceSink + 'static> Recorder<S> {
    /// Start recording into `sink` under `config`. The file header is
    /// written immediately; the drainer thread sweeps at least every
    /// `config.epoch`, and sooner when a Block lane rings.
    pub fn start(config: TraceConfig, mut sink: S) -> Result<Recorder<S>, TraceError> {
        let rings = Arc::new(RingSet::with_block_yield_limit(
            config.lanes,
            config.capacity_per_lane,
            config.policy,
            config.block_yield_limit,
        ));
        let mut header = Vec::new();
        format::encode_header(&mut header);
        sink.write_all(&header)?;

        let supervisor = Arc::new(Supervisor::new());
        let mut state = DrainState {
            sink,
            offset: header.len() as u64,
            index: Vec::new(),
            drained_per_lane: vec![0; rings.lane_count()],
            scratch: Vec::with_capacity(config.max_chunk_records),
            encode_buf: Vec::new(),
        };
        let drainer = {
            let rings = rings.clone();
            let sup = supervisor.clone();
            let epoch = config.epoch;
            let max = config.max_chunk_records;
            std::thread::Builder::new()
                .name("ora-trace-drain".into())
                .spawn(move || {
                    // The loop runs under catch_unwind so a panicking sink
                    // (or a bug in the drainer itself) degrades the
                    // recording instead of silently orphaning the rings.
                    let outcome =
                        panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), TraceError> {
                            loop {
                                rings.doorbell().wait(epoch);
                                if sup.stop.load(Ordering::Acquire) {
                                    break;
                                }
                                state.sweep(&rings, max)?;
                                sup.heartbeats.fetch_add(1, Ordering::Relaxed);
                                sup.drained.store(state.total_drained(), Ordering::Relaxed);
                            }
                            Ok(())
                        }));
                    sup.alive.store(false, Ordering::Release);
                    let reason = match outcome {
                        Ok(Ok(())) => return Ok(state),
                        Ok(Err(e)) => e.to_string(),
                        Err(payload) => panic_message(payload.as_ref()),
                    };
                    // Failure path: no one will consume the rings again —
                    // release every blocked producer before reporting.
                    sup.fail(&reason);
                    rings.set_shutdown();
                    Err(TraceError::DrainerFailed {
                        reason,
                        drained: sup.drained.load(Ordering::Relaxed),
                        dropped: rings.total_stats().dropped(),
                    })
                })
                .expect("spawn drainer thread")
        };
        // Bound before any producer holds the rings: a ring before the
        // bind would raise the flag but not wake a parked drainer.
        rings.doorbell().bind(drainer.thread().clone());
        Ok(Recorder {
            rings,
            supervisor,
            drainer: Some(drainer),
            max_chunk_records: config.max_chunk_records,
        })
    }

    /// The ring set event callbacks record into. Cloning the `Arc` is
    /// cheap; the callbacks hold one clone for the recording's lifetime.
    pub fn rings(&self) -> Arc<RingSet> {
        self.rings.clone()
    }

    /// Live snapshot of the drainer's condition. A degraded recording
    /// keeps accepting `record` calls (as counted drops for blocked
    /// producers); `finish` will report the failure.
    pub fn health(&self) -> DrainerHealth {
        self.supervisor.health()
    }

    /// Whether the drainer has failed and the recording degraded.
    pub fn is_degraded(&self) -> bool {
        self.supervisor.degraded.load(Ordering::Acquire)
    }

    /// Stop the drainer, run a final sweep, write the footer, and
    /// return the sink plus the session's accounting.
    ///
    /// If the drainer died mid-recording this returns
    /// [`TraceError::DrainerFailed`] with the partial-trace accounting
    /// (records persisted before the failure, records dropped) — it
    /// never panics on behalf of the drainer.
    pub fn finish(mut self) -> Result<(S, RecordingStats), TraceError> {
        let drainer = self.drainer.take().expect("finish called once");
        self.supervisor.stop(&self.rings);
        let joined = drainer.join();
        // Whatever happened, the consumer is gone from here on: stragglers
        // still recording (e.g. worker threads racing shutdown) must not
        // block on a ring no one will ever drain.
        self.rings.set_shutdown();
        let mut state = match joined {
            Ok(Ok(state)) => state,
            // Drainer failed mid-recording: sink error or caught panic.
            // Refresh the accounting — producers kept (and counted)
            // dropping between the failure and this finish.
            Ok(Err(TraceError::DrainerFailed { reason, .. })) => {
                return Err(TraceError::DrainerFailed {
                    reason,
                    drained: self.supervisor.drained.load(Ordering::Relaxed),
                    dropped: self.rings.total_stats().dropped(),
                })
            }
            Ok(Err(e)) => return Err(e),
            // The drainer died outside its catch_unwind (e.g. killed in a
            // fault-injection run). Synthesize the same typed failure.
            Err(payload) => {
                self.supervisor.fail(&panic_message(payload.as_ref()));
                return Err(TraceError::DrainerFailed {
                    reason: panic_message(payload.as_ref()),
                    drained: self.supervisor.drained.load(Ordering::Relaxed),
                    dropped: self.rings.total_stats().dropped(),
                });
            }
        };

        // Final sweep: catch records committed after the thread exited.
        // The caller thread is now doing the drainer's job, so a sink
        // failing — or panicking — here is the same degraded outcome as
        // the drainer dying mid-recording: report it typed, with the
        // partial accounting, and never unwind into the application.
        let swept = panic::catch_unwind(AssertUnwindSafe(|| {
            state.sweep(&self.rings, self.max_chunk_records)
        }));
        match swept {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(self.degrade(&state, e)),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                return Err(self.degrade(&state, TraceError::Io(msg)));
            }
        }

        let mut total = RingStats::default();
        let lanes: Vec<LaneStats> = (0..self.rings.lane_count())
            .map(|i| {
                let s = self.rings.lane(i).stats();
                total.add(&s);
                LaneStats {
                    written: s.written,
                    // The v1 footer has two drop columns; a blocked
                    // producer's expired wait loses the incoming record,
                    // so it counts with the newest-dropped.
                    dropped_newest: s.dropped_newest + s.dropped_blocked,
                    dropped_oldest: s.dropped_oldest,
                    drained: state.drained_per_lane[i],
                }
            })
            .collect();
        let footer = Footer {
            lanes: lanes.clone(),
            chunks: state.index.clone(),
        };
        let mut tail = Vec::new();
        format::encode_footer(&mut tail, &footer);
        let wrote = panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), TraceError> {
            state.sink.write_all(&tail)?;
            state.sink.flush()?;
            Ok(())
        }));
        match wrote {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(self.degrade(&state, e)),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                return Err(self.degrade(&state, TraceError::Io(msg)));
            }
        }
        Ok((
            state.sink,
            RecordingStats {
                lanes,
                chunks: state.index.len(),
                dropped_blocked: total.dropped_blocked,
                blocked_waits: total.blocked_waits,
                blocked_wait_ticks: total.blocked_wait_ticks,
            },
        ))
    }

    /// Record a caller-side finishing failure in the supervisor and
    /// build the typed partial-trace error.
    fn degrade(&self, state: &DrainState<S>, e: TraceError) -> TraceError {
        let reason = e.to_string();
        self.supervisor.fail(&reason);
        TraceError::DrainerFailed {
            reason,
            drained: state.total_drained(),
            dropped: self.rings.total_stats().dropped(),
        }
    }
}

impl<S: TraceSink + 'static> Drop for Recorder<S> {
    fn drop(&mut self) {
        // `finish` not called: stop the thread and discard the trace.
        if let Some(drainer) = self.drainer.take() {
            self.supervisor.stop(&self.rings);
            let _ = drainer.join();
            self.rings.set_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceReader;
    use crate::sink::MemorySink;

    fn rec(tick: u64, gtid: u32) -> RawRecord {
        RawRecord {
            tick,
            gtid,
            event: 1,
            ..RawRecord::default()
        }
    }

    #[test]
    fn records_survive_start_to_finish() {
        let recorder = Recorder::start(TraceConfig::default(), MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for i in 0..1_000 {
            rings.record(rec(i, (i % 4) as u32));
        }
        let (sink, stats) = recorder.finish().unwrap();
        assert_eq!(stats.drained(), 1_000);
        assert_eq!(stats.dropped(), 0);
        let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
        assert_eq!(reader.footer().unwrap().total_drained(), 1_000);
        assert_eq!(reader.records().unwrap().len(), 1_000);
    }

    #[test]
    fn final_sweep_catches_late_records() {
        // A long epoch means the background thread likely never sweeps:
        // everything must come out in finish()'s final sweep.
        let cfg = TraceConfig {
            epoch: Duration::from_secs(3600),
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for i in 0..100 {
            rings.record(rec(i, 0));
        }
        let (sink, stats) = recorder.finish().unwrap();
        assert_eq!(stats.drained(), 100);
        let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
        assert_eq!(reader.records().unwrap().len(), 100);
    }

    #[test]
    fn chunks_split_at_max_records() {
        let cfg = TraceConfig {
            epoch: Duration::from_secs(3600),
            max_chunk_records: 16,
            lanes: 1,
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for i in 0..100 {
            rings.record(rec(i, 0));
        }
        let (sink, stats) = recorder.finish().unwrap();
        assert!(stats.chunks >= 100 / 16);
        let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
        assert!(reader
            .footer()
            .unwrap()
            .chunks
            .iter()
            .all(|c| c.count <= 16));
        assert_eq!(reader.records().unwrap().len(), 100);
    }

    #[test]
    fn dropped_records_are_observable_in_stats() {
        let cfg = TraceConfig {
            epoch: Duration::from_secs(3600),
            lanes: 1,
            capacity_per_lane: 16,
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        for i in 0..100 {
            rings.record(rec(i, 0));
        }
        let (sink, stats) = recorder.finish().unwrap();
        assert_eq!(stats.drained(), 16);
        assert_eq!(stats.dropped(), 84);
        let footer = TraceReader::from_bytes(sink.into_bytes())
            .unwrap()
            .footer()
            .unwrap()
            .clone();
        assert_eq!(footer.total_dropped(), 84);
        assert_eq!(footer.lanes[0].written, 16);
    }

    #[test]
    fn drop_without_finish_is_clean() {
        let recorder = Recorder::start(TraceConfig::default(), MemorySink::new()).unwrap();
        recorder.rings().record(rec(1, 0));
        drop(recorder); // must not hang or panic
    }

    use crate::sink::{FaultMode, FaultSink};

    fn faulty_config() -> TraceConfig {
        TraceConfig {
            lanes: 1,
            capacity_per_lane: 16,
            epoch: Duration::from_millis(1),
            ..TraceConfig::default()
        }
    }

    fn wait_degraded<S: crate::sink::TraceSink>(recorder: &Recorder<S>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !recorder.is_degraded() {
            assert!(std::time::Instant::now() < deadline, "drainer never failed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn erroring_sink_degrades_and_finish_reports_typed_failure() {
        let recorder =
            Recorder::start(faulty_config(), FaultSink::new(64, FaultMode::Error)).unwrap();
        let rings = recorder.rings();
        for i in 0..500 {
            rings.record(rec(i, 0));
            std::thread::yield_now();
        }
        wait_degraded(&recorder);
        let health = recorder.health();
        assert!(health.degraded);
        assert!(!health.alive);
        assert!(health.error.unwrap().contains("injected sink fault"));
        match recorder.finish() {
            Err(TraceError::DrainerFailed { reason, .. }) => {
                assert!(reason.contains("injected sink fault"), "{reason}");
            }
            other => panic!("expected DrainerFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_sink_is_caught_and_reported() {
        let recorder =
            Recorder::start(faulty_config(), FaultSink::new(64, FaultMode::Panic)).unwrap();
        let rings = recorder.rings();
        for i in 0..500 {
            rings.record(rec(i, 0));
            std::thread::yield_now();
        }
        wait_degraded(&recorder);
        match recorder.finish() {
            Err(TraceError::DrainerFailed { reason, .. }) => {
                assert!(reason.contains("injected sink panic"), "{reason}");
            }
            other => panic!("expected DrainerFailed, got {other:?}"),
        }
    }

    #[test]
    fn dead_drainer_releases_blocked_producers() {
        let cfg = TraceConfig {
            policy: DropPolicy::Block,
            ..faulty_config()
        };
        let recorder = Recorder::start(cfg, FaultSink::new(64, FaultMode::Error)).unwrap();
        let rings = recorder.rings();
        // Push until the drainer trips over its sink fault and shuts the
        // rings down; after that, a full ring must not block us.
        for i in 0..10_000 {
            rings.record(rec(i, 0));
            if rings.is_shutdown() {
                break;
            }
        }
        wait_degraded(&recorder);
        assert!(rings.is_shutdown());
        let before = rings.total_stats().dropped_blocked;
        for i in 0..100 {
            rings.record(rec(10_000 + i, 0)); // returns promptly, drops counted
        }
        let after = rings.total_stats();
        assert!(after.written <= 10_100);
        assert!(after.dropped_blocked >= before);
        match recorder.finish() {
            Err(TraceError::DrainerFailed { dropped, .. }) => {
                assert_eq!(dropped, after.dropped());
            }
            other => panic!("expected DrainerFailed, got {other:?}"),
        }
    }

    #[test]
    fn short_write_sink_fails_typed() {
        let recorder =
            Recorder::start(faulty_config(), FaultSink::new(100, FaultMode::ShortWrite)).unwrap();
        let rings = recorder.rings();
        for i in 0..500 {
            rings.record(rec(i, 0));
            std::thread::yield_now();
        }
        wait_degraded(&recorder);
        assert!(matches!(
            recorder.finish(),
            Err(TraceError::DrainerFailed { .. })
        ));
    }

    #[test]
    fn healthy_recording_reports_alive_then_clean_finish() {
        let recorder = Recorder::start(TraceConfig::default(), MemorySink::new()).unwrap();
        let h = recorder.health();
        assert!(h.alive);
        assert!(!h.degraded);
        assert_eq!(h.error, None);
        let rings = recorder.rings();
        for i in 0..100 {
            rings.record(rec(i, 0));
        }
        let (_, stats) = recorder.finish().unwrap();
        assert_eq!(stats.drained(), 100);
        assert_eq!(stats.dropped_blocked, 0);
        // After finish the rings are shut down for stragglers.
        assert!(rings.is_shutdown());
        rings.record(rec(1_000, 0)); // must not block or panic
    }
}
