//! The aggregator daemon: one lane per rank, incremental watermark merge.
//!
//! Each accepted connection is one **lane**. The lane thread reads
//! frames, and each CHUNK payload must be exactly one unit of the trace
//! chunk stream (`ora_trace::format::unit`): the header, an encoded
//! chunk, or the footer. Its HELLO may name trace format 1 or 2; each
//! chunk is decoded by its own tag. The unit of work is the **sorted
//! run**: before taking the state lock, the lane thread checks a
//! chunk's CRC and decodes it into one key-sorted run with
//! `ora_trace::decode_run`, so lanes of different ranks decode in
//! parallel (the rare chunk two threads sharing a ring lane wrote is
//! sorted there too). Governor
//! decision records are metadata: the decoder skips them and the lane
//! counts them ([`LaneReport::governor_records`]). Under the lock it
//! checks the epoch sequence (a duplicate or a gap is reported ahead of
//! any payload error) and flushes; then it acks. A connection owns one
//! byte buffer, for every frame read and every ACK, and one run buffer.
//! A run's slice at or below the watermark settles straight from that
//! buffer; a run with records above it is queued as decoded, its buffer
//! swapped for an emptied one from the lane's free list. So a record is
//! decoded once and merged once, into the store's tail, and past its
//! lane's deepest queue a lane allocates nothing beyond the store's
//! amortised growth.
//!
//! **Watermark merge.** The daemon tracks, per live lane, the largest
//! tick it has acked. The watermark is their minimum: every record at
//! or below it is safe to emit, because a live lane could still send
//! records anywhere above its own acked tick but (to a good
//! approximation) not below the fleet minimum. A flush reads the
//! store's frontier once and settles each queued run's slice at or
//! below the watermark, then the arriving run's, straight into the
//! [`FleetStore`]; a slice's records below that frontier are counted
//! late (the per-record rule's count) and land at their sorted
//! position, so the export is exactly the offline merge regardless of
//! timing (see [`store`]). A queued run settles from a cursor, so what
//! stays never moves; one that settled whole goes back to the free
//! list. A lagging rank never makes another rank's queued records move.
//!
//! **Seal.** [`Daemon::finish`] flushes what is left and seals the
//! store: its decoded tail is encoded and freed, so the report's store
//! holds the export's bytes and its export copies them.
//!
//! **Quarantine.** A lane that violates the protocol — bad CRC,
//! epoch replay/gap, undecodable payload, wrong version — is
//! quarantined: its error is recorded, its connection dropped, and its
//! already-settled records stay. The rest of the fleet is untouched —
//! the same degradation philosophy as the ring's drop counters and the
//! drainer's supervision. A lane whose rank process dies mid-run shows
//! up as a disconnect (`finished: false`), degrading only that lane.
//!
//! [`store`]: crate::store

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ora_core::sync::Mutex;
use ora_trace::format;
use ora_trace::{decode_run, RankedEvent, RankedKey, TraceError};

use crate::protocol::{
    build_frame, chunk_parts, decode_frame, read_frame, read_frame_bytes, write_frame, Message,
    MSG_ACK,
};
use crate::store::FleetStore;
use crate::transport::{FleetListener, FrameConn};
use crate::FleetError;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Injected delay before acking each chunk — the slow-consumer
    /// fault for stress runs (zero in production).
    pub slow_chunk: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            slow_chunk: Duration::ZERO,
        }
    }
}

/// Producer-side ring accounting carried by FIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinStats {
    /// Events the rank's callbacks observed.
    pub observed: u64,
    /// Records its drainer persisted (and streamed).
    pub drained: u64,
    /// Records it lost to ring backpressure.
    pub dropped: u64,
}

/// One lane's health and accounting, mirroring the ring's per-lane
/// counters on the daemon side.
#[derive(Debug, Clone, Default)]
pub struct LaneReport {
    /// The rank this lane serves.
    pub rank: u64,
    /// Producer clock rate from HELLO.
    pub ticks_per_sec: u64,
    /// Chunk epochs accepted.
    pub epochs: u64,
    /// Records decoded into the merge.
    pub records: u64,
    /// Governor decision records the lane's chunks carried: persisted
    /// and streamed like events, but metadata, so never merged.
    pub governor_records: u64,
    /// Whether the trace file header arrived.
    pub header_seen: bool,
    /// Per-lane ring accounting from the stream's footer, when it
    /// arrived: `(drained, dropped)`.
    pub footer: Option<(u64, u64)>,
    /// The producer's FIN summary, when the lane closed cleanly.
    pub fin: Option<FinStats>,
    /// Why the lane was quarantined, if it was.
    pub quarantined: Option<String>,
    /// Whether the lane completed the FIN handshake.
    pub finished: bool,
}

impl LaneReport {
    /// Whether this lane's end-to-end accounting reconciles:
    /// the producer's observed events equal the records the daemon
    /// stored plus the drops the rank itself counted, and the footer
    /// agrees with both sides. Governor decision records count on the
    /// drained side: `records + governor_records == drained`.
    pub fn reconciled(&self) -> bool {
        let (Some(fin), Some((drained, dropped))) = (self.fin, self.footer) else {
            return false;
        };
        let persisted = self.records + self.governor_records;
        fin.observed == persisted + dropped
            && fin.drained == persisted
            && drained == persisted
            && fin.dropped == dropped
    }
}

/// Everything a finished daemon observed.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-lane accounting, ordered by rank.
    pub lanes: Vec<LaneReport>,
    /// The merged timeline.
    pub store: FleetStore,
    /// Connections refused before a lane existed (bad HELLO, version
    /// mismatch, duplicate rank), with reasons.
    pub rejected: Vec<String>,
}

impl FleetReport {
    /// Whether every cleanly-finished, unquarantined lane reconciles
    /// (see [`LaneReport::reconciled`]).
    pub fn reconciled(&self) -> bool {
        self.lanes
            .iter()
            .filter(|l| l.finished && l.quarantined.is_none())
            .all(LaneReport::reconciled)
    }

    /// One lane by rank.
    pub fn lane(&self, rank: u64) -> Option<&LaneReport> {
        self.lanes.iter().find(|l| l.rank == rank)
    }
}

/// One lane's acked runs that still hold records above the watermark,
/// in arrival order (two ring lanes of a rank queue runs that overlap in
/// tick): each key-sorted buffer and the length of its settled prefix.
/// `free` holds the emptied buffers of runs that settled whole.
#[derive(Debug, Default)]
struct Pending {
    runs: Vec<(Vec<RankedEvent>, usize)>,
    free: Vec<Vec<RankedEvent>>,
}

impl Pending {
    /// Queue `run`, whose first `settled` records have settled: its
    /// buffer joins the queue and the caller gets an emptied one from the
    /// free list in its place.
    fn queue(&mut self, run: &mut Vec<RankedEvent>, settled: usize) {
        let spare = self.free.pop().unwrap_or_default();
        self.runs.push((std::mem::replace(run, spare), settled));
    }

    /// Settle each queued run's slice at or below `watermark` into
    /// `store`, late against `frontier`, skipping it in place, and free
    /// the runs that have settled whole.
    fn settle(&mut self, watermark: u64, frontier: Option<RankedKey>, store: &mut FleetStore) {
        let free = &mut self.free;
        self.runs.retain_mut(|(buf, head)| {
            let held = &buf[*head..];
            let ready = held.partition_point(|e| e.record.tick <= watermark);
            store.settle_run(&held[..ready], frontier);
            *head += ready;
            if *head < buf.len() {
                return true;
            }
            buf.clear();
            free.push(std::mem::take(buf));
            false
        });
    }
}

#[derive(Debug, Default)]
struct LaneState {
    report: LaneReport,
    /// Largest tick acked back to this lane.
    acked_tick: u64,
    /// Live = contributing to the watermark: connected, not finished,
    /// not quarantined.
    live: bool,
    pending: Pending,
}

#[derive(Default)]
struct State {
    lanes: BTreeMap<u64, LaneState>,
    store: FleetStore,
    rejected: Vec<String>,
}

impl State {
    /// Advance the watermark to the minimum acked tick across live
    /// lanes and settle every queued slice at or below it, then that of
    /// the run that `arrived` on a lane, if one did, from the caller's
    /// buffer, all late against the frontier as it stood before the
    /// flush; the arrived run's rest is queued.
    fn flush(&mut self, arrived: Option<(u64, &mut Vec<RankedEvent>)>) {
        let watermark = self
            .lanes
            .values()
            .filter(|l| l.live)
            .map(|l| l.acked_tick)
            .min()
            .unwrap_or(u64::MAX);
        let frontier = self.store.frontier();
        for lane in self.lanes.values_mut() {
            lane.pending.settle(watermark, frontier, &mut self.store);
        }
        if let Some((rank, run)) = arrived {
            let ready = run.partition_point(|e| e.record.tick <= watermark);
            self.store.settle_run(&run[..ready], frontier);
            if ready < run.len() {
                let lane = self.lanes.get_mut(&rank).expect("lane registered");
                lane.pending.queue(run, ready);
            }
        }
    }

    /// Account one decoded sink write of `rank` under `epoch`. An epoch
    /// violation is reported ahead of a payload that failed to decode.
    fn ingest(
        &mut self,
        rank: u64,
        epoch: u64,
        unit: Result<Unit<'_>, FleetError>,
    ) -> Result<(), FleetError> {
        let lane = self.lanes.get_mut(&rank).expect("lane registered");
        let expected = lane.report.epochs;
        if epoch < expected {
            return Err(FleetError::DuplicateEpoch { rank, epoch });
        }
        if epoch > expected {
            return Err(FleetError::EpochGap {
                rank,
                expected,
                got: epoch,
            });
        }
        lane.report.epochs += 1;
        let mut arrived = None;
        match unit? {
            Unit::Header => lane.report.header_seen = true,
            Unit::Run { run, governor } => {
                lane.report.records += run.len() as u64;
                lane.report.governor_records += governor;
                if let Some(last) = run.last() {
                    lane.acked_tick = lane.acked_tick.max(last.record.tick);
                }
                arrived = Some((rank, run));
            }
            Unit::Footer { drained, dropped } => lane.report.footer = Some((drained, dropped)),
        }
        self.flush(arrived);
        Ok(())
    }
}

struct Shared {
    config: DaemonConfig,
    state: Mutex<State>,
    /// Lanes that reached a terminal state (FIN, quarantine, or
    /// disconnect) — the `serve` stop condition.
    done_lanes: Mutex<u64>,
}

/// The aggregator daemon. Connections can be served on caller threads
/// ([`serve_conn`](Daemon::serve_conn), for loopback tests) or spawned
/// ([`spawn_conn`](Daemon::spawn_conn), [`run_listener`](Daemon::run_listener));
/// [`finish`](Daemon::finish) joins everything and yields the
/// [`FleetReport`].
pub struct Daemon {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// A daemon with `config`, serving no connections yet.
    pub fn new(config: DaemonConfig) -> Daemon {
        Daemon {
            shared: Arc::new(Shared {
                config,
                state: Mutex::new(State::default()),
                done_lanes: Mutex::new(0),
            }),
            threads: Vec::new(),
        }
    }

    /// Serve one connection to completion on the calling thread.
    pub fn serve_conn(&self, conn: Box<dyn FrameConn>) {
        serve_connection(&self.shared, conn);
    }

    /// Serve one connection on a new thread.
    pub fn spawn_conn(&mut self, conn: Box<dyn FrameConn>) {
        let shared = Arc::clone(&self.shared);
        self.threads
            .push(std::thread::spawn(move || serve_connection(&shared, conn)));
    }

    /// Lanes that reached a terminal state (finished, quarantined, or
    /// disconnected).
    pub fn done_lanes(&self) -> u64 {
        *self.shared.done_lanes.lock()
    }

    /// Accept and spawn connections until `stop` is set or, when
    /// `until_ranks` is given, that many lanes have reached a terminal
    /// state. The listener is polled non-blocking so shutdown is
    /// prompt.
    pub fn run_listener(
        &mut self,
        listener: &FleetListener,
        stop: &AtomicBool,
        until_ranks: Option<u64>,
    ) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            if until_ranks.is_some_and(|n| self.done_lanes() >= n) {
                return Ok(());
            }
            match listener.accept() {
                Ok(conn) => self.spawn_conn(conn),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Join every lane thread, settle everything still buffered, seal
    /// the store, and report.
    pub fn finish(self) -> FleetReport {
        for t in self.threads {
            let _ = t.join();
        }
        let mut state = self.shared.state.lock();
        state.flush(None); // no live lanes remain: flushes everything
        state.store.seal();
        let state = std::mem::take(&mut *state);
        FleetReport {
            lanes: state.lanes.into_values().map(|l| l.report).collect(),
            store: state.store,
            rejected: state.rejected,
        }
    }
}

/// Mark one lane terminal exactly once.
fn lane_done(shared: &Shared) {
    *shared.done_lanes.lock() += 1;
}

fn serve_connection(shared: &Shared, mut conn: Box<dyn FrameConn>) {
    // Handshake: the first frame must be a compatible HELLO for a rank
    // not already connected.
    let (rank, ticks_per_sec) = match read_frame(&mut conn) {
        Ok(Message::Hello {
            rank,
            format_version,
            ticks_per_sec,
        }) => {
            if !(format::FORMAT_VERSION_V1..=format::FORMAT_VERSION).contains(&format_version) {
                shared.state.lock().rejected.push(format!(
                    "rank {rank}: {}",
                    FleetError::BadVersion(format_version)
                ));
                return;
            }
            (rank, ticks_per_sec)
        }
        Ok(_) => {
            shared
                .state
                .lock()
                .rejected
                .push("connection did not open with HELLO".into());
            return;
        }
        Err(e) => {
            shared
                .state
                .lock()
                .rejected
                .push(format!("handshake failed: {e}"));
            return;
        }
    };
    {
        let mut state = shared.state.lock();
        if state.lanes.get(&rank).is_some_and(|l| l.live) {
            state
                .rejected
                .push(format!("rank {rank}: duplicate connection refused"));
            return;
        }
        let lane = state.lanes.entry(rank).or_default();
        lane.report.rank = rank;
        lane.report.ticks_per_sec = ticks_per_sec;
        lane.live = true;
    }

    // Chunks until anything else, through per-connection buffers: each
    // frame is read into `frame`, a chunk's records are decoded into
    // `run` on this thread, ingested under the lock (epoch check, flush,
    // what is left of `run` queued and swapped for a free buffer), and
    // acked from `frame`.
    let (mut frame, mut run) = (Vec::new(), Vec::new());
    let last = loop {
        match read_frame_bytes(&mut conn, &mut frame).and_then(|()| chunk_parts(&frame)) {
            Ok(Some((epoch, payload))) => {
                let unit = decode_unit(rank, payload, &mut run);
                if let Err(e) = shared.state.lock().ingest(rank, epoch, unit) {
                    break Err(e);
                }
                if !shared.config.slow_chunk.is_zero() {
                    std::thread::sleep(shared.config.slow_chunk);
                }
                build_frame(&mut frame, MSG_ACK, &[epoch], &[]);
                if conn.write_all(&frame).and_then(|()| conn.flush()).is_err() {
                    return disconnect(shared, rank, "rank stopped reading ACKs");
                }
            }
            Ok(None) => break decode_frame(&frame),
            Err(e) => break Err(e),
        }
    };
    match last {
        Ok(Message::Fin {
            observed,
            drained,
            dropped,
        }) => {
            let (stored, late) = finish_lane(
                shared,
                rank,
                FinStats {
                    observed,
                    drained,
                    dropped,
                },
            );
            let _ = write_frame(&mut conn, &Message::FinAck { stored, late })
                .and_then(|()| conn.flush());
        }
        Ok(_) => quarantine(
            shared,
            rank,
            &FleetError::Protocol("unexpected message from producer"),
        ),
        Err(FleetError::Closed) => disconnect(shared, rank, "connection closed before FIN"),
        Err(e) => quarantine(shared, rank, &e),
    }
}

/// One verbatim sink write, decoded.
enum Unit<'r> {
    Header,
    /// A chunk's events as one key-sorted run, and the governor
    /// decision records it skipped.
    Run {
        run: &'r mut Vec<RankedEvent>,
        governor: u64,
    },
    Footer {
        drained: u64,
        dropped: u64,
    },
}

/// Decode one sink write, which must be exactly one unit of the chunk
/// stream; a chunk's events replace what `run` held, key-sorted.
/// Touches no shared state: this is the part of ingest that runs
/// outside the lock.
fn decode_unit<'r>(
    rank: u64,
    payload: &[u8],
    run: &'r mut Vec<RankedEvent>,
) -> Result<Unit<'r>, FleetError> {
    let unit = format::unit(payload).map_err(|e| match e {
        TraceError::BadVersion(v) => FleetError::BadVersion(v),
        other => FleetError::Trace(other),
    })?;
    Ok(match unit {
        format::Unit::Header(_) => Unit::Header,
        format::Unit::Chunk(chunk) => {
            let governor = decode_run(&chunk, rank as usize, run)?;
            Unit::Run { run, governor }
        }
        format::Unit::Footer(footer) => Unit::Footer {
            drained: footer.total_drained(),
            dropped: footer.total_dropped(),
        },
    })
}

fn finish_lane(shared: &Shared, rank: u64, fin: FinStats) -> (u64, u64) {
    let mut state = shared.state.lock();
    let lane = state.lanes.get_mut(&rank).expect("lane registered");
    lane.report.fin = Some(fin);
    lane.report.finished = true;
    lane.live = false;
    let stored = lane.report.records;
    state.flush(None);
    let late = state.store.late_events();
    drop(state);
    lane_done(shared);
    (stored, late)
}

fn quarantine(shared: &Shared, rank: u64, error: &FleetError) {
    let mut state = shared.state.lock();
    if let Some(lane) = state.lanes.get_mut(&rank) {
        lane.report.quarantined = Some(error.to_string());
        lane.live = false;
    }
    state.flush(None);
    drop(state);
    lane_done(shared);
}

fn disconnect(shared: &Shared, rank: u64, why: &str) {
    let mut state = shared.state.lock();
    if let Some(lane) = state.lanes.get_mut(&rank) {
        // A vanished rank is degradation, not misbehavior: record why,
        // keep what it sent, stop counting it toward the watermark.
        if lane.report.quarantined.is_none() && !lane.report.finished {
            lane.report.quarantined = Some(why.to_string());
        }
        lane.live = false;
    }
    state.flush(None);
    drop(state);
    lane_done(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::timeline_bytes;
    use ora_core::testutil::XorShift64;
    use ora_trace::format::encode_chunk;
    use ora_trace::{RawRecord, TraceError, TraceEvent};

    /// The per-record rule the run-merge replaced, kept as its
    /// reference: every pending record in one pool, a flush takes what
    /// is at or below the watermark in key order, and each record below
    /// the settled frontier is counted late and inserted in place.
    #[derive(Default)]
    struct PerRecord {
        acked: BTreeMap<u64, u64>,
        pool: Vec<RankedEvent>,
        settled: Vec<RankedEvent>,
        late: u64,
    }

    impl PerRecord {
        fn ingest(&mut self, rank: u64, run: &[RankedEvent]) {
            let acked = self.acked.get_mut(&rank).expect("live rank");
            *acked = run.iter().map(|e| e.record.tick).fold(*acked, u64::max);
            self.pool.extend_from_slice(run);
            self.flush();
        }

        fn finish(&mut self, rank: u64) {
            self.acked.remove(&rank);
            self.flush();
        }

        fn watermark(&self) -> u64 {
            self.acked.values().copied().min().unwrap_or(u64::MAX)
        }

        fn flush(&mut self) {
            let watermark = self.watermark();
            let (mut ready, held): (Vec<_>, Vec<_>) =
                self.pool.iter().partition(|e| e.record.tick <= watermark);
            self.pool = held;
            ready.sort_by_key(RankedEvent::key);
            for ev in ready {
                match self.settled.last() {
                    Some(last) if last.key() > ev.key() => {
                        let pos = self.settled.partition_point(|e| e.key() <= ev.key());
                        self.settled.insert(pos, ev);
                        self.late += 1;
                    }
                    _ => self.settled.push(ev),
                }
            }
        }
    }

    fn chunk_bytes(records: &[RawRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_chunk(&mut out, 0, 0, records);
        out
    }

    /// The daemon's state beside the per-record reference, fed the same
    /// chunks in the same order.
    #[derive(Default)]
    struct Twin {
        state: State,
        reference: PerRecord,
        fed: Vec<RankedEvent>,
        run: Vec<RankedEvent>,
    }

    impl Twin {
        /// `rank` joins the watermark with nothing acked.
        fn join(&mut self, rank: u64) {
            self.state.lanes.entry(rank).or_default().live = true;
            self.reference.acked.insert(rank, 0);
        }

        /// Decode `records` as one chunk of `rank`, ingest it into both
        /// sides, and check that they agree.
        fn feed(&mut self, rank: u64, records: &[RawRecord]) {
            let unit = decode_unit(rank, &chunk_bytes(records), &mut self.run);
            let Ok(Unit::Run { run, .. }) = &unit else {
                panic!("a chunk decodes to a run");
            };
            assert!(run.windows(2).all(|w| w[0].key() <= w[1].key()));
            self.fed.extend_from_slice(run);
            self.reference.ingest(rank, run);
            let epoch = self.state.lanes[&rank].report.epochs;
            self.state.ingest(rank, epoch, unit).expect("ingest");
            self.check();
        }

        /// [`feed`](Self::feed), returning 1 if its flush settled slices
        /// of more than one run of some lane.
        fn feed_counting_slices(&mut self, rank: u64, records: &[RawRecord]) -> u64 {
            let mut firsts: Vec<(u64, u64)> = Vec::new();
            firsts.extend(records.iter().map(|e| e.tick).min().map(|t| (rank, t)));
            for (&r, lane) in &self.state.lanes {
                let runs = lane.pending.runs.iter();
                firsts.extend(runs.map(|(buf, head)| (r, buf[*head].record.tick)));
            }
            self.feed(rank, records);
            let watermark = self.reference.watermark();
            let settled = |lane| {
                firsts
                    .iter()
                    .filter(|&&(r, t)| r == lane && t <= watermark)
                    .count()
            };
            u64::from(self.state.lanes.keys().any(|&lane| settled(lane) > 1))
        }

        /// `rank` leaves the watermark.
        fn finish(&mut self, rank: u64) {
            self.state.lanes.get_mut(&rank).expect("lane").live = false;
            self.state.flush(None);
            self.reference.finish(rank);
            self.check();
        }

        /// Records of `rank`'s queue at or below `watermark`.
        fn queued_at_or_below(&self, rank: &u64, watermark: u64) -> usize {
            let runs = &self.state.lanes[rank].pending.runs;
            let ready = |(buf, head): &(Vec<RankedEvent>, usize)| {
                buf[*head..].partition_point(|e| e.record.tick <= watermark)
            };
            runs.iter().map(ready).sum()
        }

        fn check(&self) {
            let settled = &self.reference.settled;
            assert_eq!(self.state.store.records(), &settled[..]);
            assert_eq!(self.state.store.export(), timeline_bytes(settled));
            assert_eq!(self.state.store.late_events(), self.reference.late);
        }
    }

    /// `len` records from tick `lo` (the first) up to `hi`, in tick
    /// order; ties and a small gtid domain on purpose.
    fn span(rng: &mut XorShift64, lo: u64, hi: u64, seq: u64, len: u64) -> Vec<RawRecord> {
        let mut ticks: Vec<u64> = (0..len).map(|_| lo + rng.below(hi - lo + 1)).collect();
        ticks.sort_unstable();
        if let Some(first) = ticks.first_mut() {
            *first = lo;
        }
        let record = |(i, tick)| RawRecord {
            tick,
            gtid: rng.below(2) as u32,
            seq: seq + i as u64,
            event: 1, // Fork
            ..RawRecord::default()
        };
        ticks.into_iter().enumerate().map(record).collect()
    }

    /// Random mixes of sorted runs, internally unsorted runs, runs
    /// wholly below the frontier, keys equal across ranks up to the
    /// rank, empty runs, a second ring lane's run over the window its
    /// rank's last run covered (so a lane queues overlapping runs), a
    /// rank that joins late (holding the watermark down while the others
    /// queue runs that reach below the frontier, so one flush settles
    /// several slices of a lane, some partly late), and rounds that leave
    /// every live lane with a ready prefix at one flush, through decode →
    /// lane queue → flush → store, with 3 and with 8 ranks: after every
    /// step the store must hold what the per-record rule settles on the
    /// same arrival order, with the same export bytes and late count; at
    /// the end, the key-sort of everything fed.
    #[test]
    fn runs_settle_exactly_as_the_per_record_rule_did() {
        let mut rng = XorShift64::new(0xf1ee_0100);
        let mut several = 0;
        for ranks in [3u64, 8] {
            for _case in 0..40 {
                several += settle_one_case(&mut rng, ranks);
            }
        }
        eprintln!("{several} flushes settled several runs of one lane");
        assert!(several > 0, "no flush settled several runs of one lane");
    }

    /// One random case; returns the flushes that settled a slice of more
    /// than one queued run of one lane.
    fn settle_one_case(rng: &mut XorShift64, ranks: u64) -> u64 {
        let mut twin = Twin::default();
        for rank in 0..ranks {
            twin.join(rank);
        }
        // Rank `ranks` may join late.
        let slots = ranks as usize + 1;
        let mut clock = vec![1_000u64; slots];
        let mut window = vec![(1_000u64, 1_000u64); slots];
        let mut next_seq = vec![0u64; slots];
        let mut last_run: Vec<RawRecord> = Vec::new();
        let mut several = 0;
        for step in 0..20 + rng.below(40) {
            let live: Vec<u64> = twin.reference.acked.keys().copied().collect();
            let Some(&rank) = live.get(rng.below(live.len().max(1) as u64) as usize) else {
                break;
            };
            if step > 4 && !twin.state.lanes.contains_key(&ranks) && rng.chance(1, 10) {
                // A late rank joins a little below the watermark, which
                // drops to its nothing-acked until its runs lift it.
                let held = twin.reference.acked.values().copied().min().unwrap_or(0);
                clock[ranks as usize] = held.saturating_sub(rng.below(100)).max(10);
                twin.join(ranks);
                continue;
            }
            if step > 10 && rng.chance(1, 12) {
                // A lane finishes: it leaves the watermark.
                twin.finish(rank);
                continue;
            }
            if live.len() > 1 && rng.chance(1, 6) {
                // A round: every live lane sends a run from just above the
                // watermark, the lane holding it last, so the flush that
                // lane's run triggers finds a ready prefix in every one.
                let acked = &twin.reference.acked;
                let (&slow, &held) = acked.iter().min_by_key(|&(_, a)| a).expect("live");
                for &r in live.iter().filter(|&&r| r != slow).chain([&slow]) {
                    if r == slow {
                        let ready = |o| twin.queued_at_or_below(o, held + 1) > 0;
                        assert!(live.iter().all(|o| *o == slow || ready(o)));
                    }
                    let (len, hi) = (1 + rng.below(12), held + 1 + rng.below(60));
                    let records = span(rng, held + 1, hi, next_seq[r as usize], len);
                    next_seq[r as usize] += len;
                    several += twin.feed_counting_slices(r, &records);
                }
                continue;
            }
            let r = rank as usize;
            let len = rng.below(24);
            let mut records = match rng.below(6) {
                // Empty.
                0 => Vec::new(),
                // The previous run again, seq and all, from whichever
                // rank this is: keys equal up to the rank.
                1 => last_run.clone(),
                // Wholly below everything settled so far.
                2 => span(rng, 10, 10 + len, next_seq[r], len),
                // A second ring lane of the rank: the window its last
                // advancing run covered.
                3 => span(rng, window[r].0, window[r].1, next_seq[r], len),
                // Advancing.
                _ => {
                    let from = clock[r];
                    clock[r] += rng.below(6 * len + 1);
                    window[r] = (from, clock[r]);
                    span(rng, from, clock[r], next_seq[r], len)
                }
            };
            next_seq[r] += len;
            if rng.chance(1, 3) {
                // Internally unsorted: what two threads sharing a ring
                // lane produce.
                for i in (1..records.len()).rev() {
                    records.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            last_run = records.clone();
            several += twin.feed_counting_slices(rank, &records);
        }
        let lanes: Vec<u64> = twin.state.lanes.keys().copied().collect();
        for rank in lanes {
            if twin.state.lanes[&rank].live {
                twin.finish(rank);
            }
        }
        twin.fed.sort_by_key(RankedEvent::key);
        assert_eq!(twin.state.store.records(), &twin.fed[..]);
        assert!(twin.state.lanes.values().all(|l| l.pending.runs.is_empty()));
        several
    }

    /// Two ring lanes of rank 0 queue overlapping runs while rank 1,
    /// joined late, holds the watermark down; rank 1's first run lifts
    /// it, and that one flush settles a slice of each queued run: the
    /// first partly below the frontier, the second wholly above it.
    #[test]
    fn one_flush_settles_several_slices_of_one_lane() {
        let records = |ticks: std::ops::RangeInclusive<u64>, gtid: u32| -> Vec<RawRecord> {
            let record = |tick| RawRecord {
                tick,
                gtid,
                seq: tick,
                event: 1, // Fork
                ..RawRecord::default()
            };
            ticks.map(record).collect()
        };
        let mut twin = Twin::default();
        twin.join(0);
        twin.feed(0, &records(100..=500, 0));
        twin.join(1);
        twin.feed(0, &records(400..=700, 0));
        twin.feed(0, &records(600..=800, 1));
        let heads = |twin: &Twin| -> Vec<usize> {
            let runs = &twin.state.lanes[&0].pending.runs;
            runs.iter().map(|&(_, head)| head).collect()
        };
        assert_eq!(heads(&twin), [0, 0], "both queued whole");
        assert_eq!(twin.state.store.late_events(), 0);
        twin.feed(1, &records(650..=650, 0));
        // Ticks 400..=499 of the first run are below the frontier (tick
        // 500); ticks 600..=650 of the second are not.
        assert_eq!(twin.state.store.late_events(), 100);
        assert_eq!(heads(&twin), [251, 51]);
        twin.finish(0);
        twin.finish(1);
        assert_eq!(twin.state.store.late_events(), 100);
    }

    #[test]
    fn an_epoch_violation_outranks_an_undecodable_payload() {
        let mut state = State::default();
        state.lanes.entry(4).or_default().live = true;
        let mut run = Vec::new();
        assert_eq!(
            state.ingest(4, 3, decode_unit(4, &[0x7f], &mut run)),
            Err(FleetError::EpochGap {
                rank: 4,
                expected: 0,
                got: 3
            })
        );
        // Neither tag byte, and too short for a header.
        assert_eq!(
            state.ingest(4, 0, decode_unit(4, &[0x7f], &mut run)),
            Err(FleetError::Trace(TraceError::Truncated))
        );
        // The bad payload's epoch was still consumed, as before.
        assert_eq!(state.lanes[&4].report.epochs, 1);
    }

    #[test]
    fn releasing_a_prefix_never_moves_what_stays() {
        let ev = |tick: u64| RankedEvent {
            rank: 0,
            record: TraceEvent::from_raw(&RawRecord {
                tick,
                event: 1,
                ..RawRecord::default()
            })
            .expect("Fork"),
        };
        // Rank 1 alone holds the watermark at `tick`; a run of rank 0
        // arrives.
        let mut state = State::default();
        state.lanes.entry(0).or_default();
        state.lanes.entry(1).or_default().live = true;
        let arrive = |state: &mut State, tick: u64, run: &mut Vec<RankedEvent>| {
            state.lanes.get_mut(&1).expect("lane").acked_tick = tick;
            state.flush(Some((0, run)));
        };
        let held = |state: &State| -> Vec<_> {
            let runs = state.lanes[&0].pending.runs.iter();
            runs.map(|(buf, head)| (buf.as_ptr(), *head)).collect()
        };
        let mut run: Vec<_> = (0..100).map(ev).collect();
        let first = run.as_ptr();
        arrive(&mut state, 9, &mut run);
        assert_eq!(held(&state), [(first, 10)], "the rest queued in place");
        assert!(run.is_empty(), "the lane thread gets an emptied buffer");
        // A late run arrives: it settles whole from the lane thread's
        // buffer, one record late, beside the queued run's next slice.
        run.extend([ev(3), ev(50)]);
        let second = run.as_ptr();
        arrive(&mut state, 60, &mut run);
        assert_eq!(held(&state), [(first, 61)], "what stays never moved");
        assert_eq!((run.as_ptr(), run.len()), (second, 2), "still the caller's");
        assert_eq!(state.store.late_events(), 1);
        // The queued run settles whole; its emptied buffer is the next
        // one a lane thread whose run queues gets.
        run.clear();
        arrive(&mut state, 160, &mut run);
        assert!(held(&state).is_empty());
        run.push(ev(170));
        arrive(&mut state, 160, &mut run);
        assert_eq!(held(&state), [(second, 0)]);
        assert_eq!((run.as_ptr(), run.len()), (first, 0));
        assert_eq!(state.store.len(), 102);
    }
}
