//! The aggregator daemon: one lane per rank, incremental watermark merge.
//!
//! Each accepted connection is one **lane**. The lane thread reads
//! frames, and each CHUNK payload must be exactly one unit of the trace
//! chunk stream (`ora_trace::format::unit`): the header, an encoded
//! chunk, or the footer. The unit of work is the **sorted run**, not
//! the record: the lane thread checks the chunk's CRC and decodes its
//! records straight into one key-sorted run *before* taking the state
//! lock (so lanes of different ranks decode in parallel; the rare chunk
//! that is not already sorted — two threads sharing a ring lane — is
//! sorted there too). Under the lock it
//! validates the epoch sequence (a duplicate or a gap means the lane is
//! misbehaving, and is reported ahead of any payload error), merges the
//! run into the lane's own sorted *pending* buffer, and flushes; then
//! it acks the epoch.
//!
//! **Watermark merge.** The daemon tracks, per live lane, the largest
//! tick it has acked. The watermark is the minimum of those across live
//! lanes: every record at or below it is safe to emit, because a live
//! lane could still send records anywhere above its own acked tick but
//! (to a good approximation) not below the fleet minimum. A flush takes
//! each lane's pending prefix at or below the watermark; one lane's
//! prefix is already the run to settle, several are merged through a
//! frontier of one record per rank (`ora_trace::RankMergeHeap`, the
//! heap offline `merge_ranks_iter` is built on). The run then settles
//! into the [`FleetStore`] with one backward merge; the records of it
//! that still arrive below the settled frontier are counted late and
//! land at their sorted position, so the final export is exactly the
//! offline merge regardless of timing (see [`store`]). A lane's pending
//! buffer is touched only by that lane's chunks and by flushes that
//! release its prefix: a lagging rank never makes another rank's
//! buffered records move.
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
use ora_trace::{RankMergeHeap, RankedEvent, TraceError, TraceEvent};

use crate::protocol::{
    chunk_parts, decode_frame, read_frame, read_frame_bytes, write_frame, Message,
};
use crate::store::{merge_run, FleetStore};
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
    /// agrees with both sides.
    pub fn reconciled(&self) -> bool {
        let (Some(fin), Some((drained, dropped))) = (self.fin, self.footer) else {
            return false;
        };
        fin.observed == self.records + dropped
            && fin.drained == self.records
            && drained == self.records
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

/// One lane's records that are acked but still above the watermark,
/// key-sorted. A released prefix is skipped by a cursor and reclaimed
/// once it is at least half the buffer, so releasing costs what it
/// releases and never moves what stays.
#[derive(Debug, Default)]
struct Pending {
    buf: Vec<RankedEvent>,
    /// `buf[..head]` has been released.
    head: usize,
}

impl Pending {
    fn merge(&mut self, run: &[RankedEvent]) {
        merge_run(&mut self.buf, self.head, run);
    }

    /// The prefix at or below `watermark`.
    fn ready(&self, watermark: u64) -> &[RankedEvent] {
        let held = &self.buf[self.head..];
        &held[..held.partition_point(|e| e.record.tick <= watermark)]
    }

    /// Drop the prefix [`ready`](Self::ready) returns for `watermark`.
    fn release(&mut self, watermark: u64) {
        self.head += self.ready(watermark).len();
        if self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
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
    /// lanes and settle everything at or below it as one run.
    fn flush(&mut self) {
        let watermark = self
            .lanes
            .values()
            .filter(|l| l.live)
            .map(|l| l.acked_tick)
            .min()
            .unwrap_or(u64::MAX);
        let ready: Vec<&[RankedEvent]> = self
            .lanes
            .values()
            .map(|l| l.pending.ready(watermark))
            .filter(|r| !r.is_empty())
            .collect();
        match ready[..] {
            [] => return,
            [run] => self.store.settle_run(run),
            _ => self.store.settle_run(&merge_prefixes(&ready)),
        }
        for lane in self.lanes.values_mut() {
            lane.pending.release(watermark);
        }
    }

    /// Account one decoded sink write of `rank` under `epoch`. An epoch
    /// violation is reported ahead of a payload that failed to decode.
    fn ingest(
        &mut self,
        rank: u64,
        epoch: u64,
        unit: Result<Unit, FleetError>,
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
        match unit? {
            Unit::Header => lane.report.header_seen = true,
            Unit::Run(run) => {
                lane.report.records += run.len() as u64;
                if let Some(last) = run.last() {
                    lane.acked_tick = lane.acked_tick.max(last.record.tick);
                }
                lane.pending.merge(&run);
            }
            Unit::Footer { drained, dropped } => lane.report.footer = Some((drained, dropped)),
        }
        self.flush();
        Ok(())
    }
}

/// Merge several ranks' key-sorted, non-empty prefixes (in rank order)
/// into one run through a frontier of one record per rank.
fn merge_prefixes(ready: &[&[RankedEvent]]) -> Vec<RankedEvent> {
    let ranks: Vec<usize> = ready.iter().map(|r| r[0].rank).collect();
    let mut rest: Vec<_> = ready.iter().map(|r| r.iter()).collect();
    let mut frontier = RankMergeHeap::new();
    for first in rest.iter_mut().filter_map(Iterator::next) {
        frontier.push(first.rank, first.record);
    }
    let mut run = Vec::with_capacity(ready.iter().map(|r| r.len()).sum());
    while let Some(ev) = frontier.pop() {
        run.push(ev);
        let i = ranks
            .binary_search(&ev.rank)
            .expect("a popped record's rank is one being merged");
        if let Some(next) = rest[i].next() {
            frontier.push(next.rank, next.record);
        }
    }
    run
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

    /// Join every lane thread, settle everything still buffered, and
    /// report.
    pub fn finish(self) -> FleetReport {
        for t in self.threads {
            let _ = t.join();
        }
        let mut state = self.shared.state.lock();
        state.flush(); // no live lanes remain: flushes everything
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
            if format_version != format::FORMAT_VERSION {
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

    loop {
        match next_inbound(shared, rank, &mut conn) {
            Ok(Inbound::Ingested { epoch }) => {
                if !shared.config.slow_chunk.is_zero() {
                    std::thread::sleep(shared.config.slow_chunk);
                }
                if write_frame(&mut conn, &Message::Ack { epoch })
                    .and_then(|()| conn.flush())
                    .is_err()
                {
                    disconnect(shared, rank, "rank stopped reading ACKs");
                    break;
                }
            }
            Ok(Inbound::Other(Message::Fin {
                observed,
                drained,
                dropped,
            })) => {
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
                break;
            }
            Ok(Inbound::Other(_)) => {
                quarantine(
                    shared,
                    rank,
                    &FleetError::Protocol("unexpected message from producer"),
                );
                break;
            }
            Err(FleetError::Closed) => {
                disconnect(shared, rank, "connection closed before FIN");
                break;
            }
            Err(e) => {
                quarantine(shared, rank, &e);
                break;
            }
        }
    }
}

/// What [`next_inbound`] read off a lane's connection.
enum Inbound {
    /// A CHUNK, already merged; its epoch is owed an ACK.
    Ingested { epoch: u64 },
    /// Any other message.
    Other(Message),
}

/// Read one frame. A CHUNK is ingested straight from the frame's bytes
/// (its payload is never copied out); anything else is decoded.
fn next_inbound(
    shared: &Shared,
    rank: u64,
    conn: &mut Box<dyn FrameConn>,
) -> Result<Inbound, FleetError> {
    let framed = read_frame_bytes(conn)?;
    match chunk_parts(&framed)? {
        Some((epoch, payload)) => {
            ingest_chunk(shared, rank, epoch, payload)?;
            Ok(Inbound::Ingested { epoch })
        }
        None => decode_frame(&framed).map(Inbound::Other),
    }
}

/// One verbatim sink write, decoded.
enum Unit {
    Header,
    /// A chunk's records as one key-sorted run.
    Run(Vec<RankedEvent>),
    Footer {
        drained: u64,
        dropped: u64,
    },
}

/// Decode one sink write, which must be exactly one unit of the chunk
/// stream; a chunk's records go straight into one key-sorted run.
/// Touches no shared state: this is the part of ingest that runs
/// outside the lock.
fn decode_unit(rank: u64, payload: &[u8]) -> Result<Unit, FleetError> {
    let unit = format::unit(payload).map_err(|e| match e {
        TraceError::BadVersion(v) => FleetError::BadVersion(v),
        other => FleetError::Trace(other),
    })?;
    Ok(match unit {
        format::Unit::Header => Unit::Header,
        format::Unit::Chunk(chunk) => {
            let rank = rank as usize;
            let mut run: Vec<RankedEvent> = Vec::with_capacity(chunk.count as usize);
            let mut sorted = true;
            format::for_each_record(chunk.payload, chunk.count, |raw| {
                let ev = RankedEvent {
                    rank,
                    record: TraceEvent::from_raw(&raw)?,
                };
                sorted &= run.last().is_none_or(|prev| prev.key() <= ev.key());
                run.push(ev);
                Ok(())
            })?;
            // One thread per ring lane writes in key order; only threads
            // sharing a lane can interleave out of it.
            if !sorted {
                run.sort_by_key(RankedEvent::key);
            }
            Unit::Run(run)
        }
        format::Unit::Footer(footer) => Unit::Footer {
            drained: footer.total_drained(),
            dropped: footer.total_dropped(),
        },
    })
}

/// Validate and merge one epoch-stamped payload: decode on this lane's
/// thread, then take the lock for the epoch check, the merge into the
/// lane's pending run and the flush.
fn ingest_chunk(shared: &Shared, rank: u64, epoch: u64, payload: &[u8]) -> Result<(), FleetError> {
    let unit = decode_unit(rank, payload);
    shared.state.lock().ingest(rank, epoch, unit)
}

fn finish_lane(shared: &Shared, rank: u64, fin: FinStats) -> (u64, u64) {
    let mut state = shared.state.lock();
    let lane = state.lanes.get_mut(&rank).expect("lane registered");
    lane.report.fin = Some(fin);
    lane.report.finished = true;
    lane.live = false;
    let stored = lane.report.records;
    state.flush();
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
    state.flush();
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
    state.flush();
    drop(state);
    lane_done(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::timeline_bytes;
    use ora_core::testutil::XorShift64;
    use ora_trace::format::{encode_chunk, put_varint, TAG_CHUNK};
    use ora_trace::{RawRecord, TraceError};

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

        fn flush(&mut self) {
            let watermark = self.acked.values().copied().min().unwrap_or(u64::MAX);
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
        if records.is_empty() {
            // `encode_chunk` refuses an empty batch; the wire does not.
            out.push(TAG_CHUNK);
            for field in [0, 0, 0] {
                put_varint(&mut out, field); // lane, count, payload_len
            }
            out.extend_from_slice(&format::crc32(&[]).to_le_bytes());
        } else {
            encode_chunk(&mut out, 0, 0, records);
        }
        out
    }

    /// Random mixes of sorted runs, internally unsorted runs, runs
    /// wholly below the frontier, keys equal across ranks up to the
    /// rank, and empty runs, through decode → lane pending → flush →
    /// store: the store must hold the key-sort of everything fed, its
    /// export must be the canonical bytes of that, and it must count
    /// late exactly what the per-record rule counts on the same arrival
    /// order — after every step, not only at the end.
    #[test]
    fn runs_settle_exactly_as_the_per_record_rule_did() {
        const RANKS: u64 = 3;
        let mut rng = XorShift64::new(0xf1ee_0100);
        for _case in 0..40 {
            let mut state = State::default();
            let mut reference = PerRecord::default();
            let mut fed: Vec<RankedEvent> = Vec::new();
            let mut clock = [1_000u64; RANKS as usize];
            let mut next_seq = [0u64; RANKS as usize];
            let mut last_run: Vec<RawRecord> = Vec::new();
            for rank in 0..RANKS {
                state.lanes.entry(rank).or_default().live = true;
                reference.acked.insert(rank, 0);
            }
            let steps = 20 + rng.below(40);
            for step in 0..steps {
                let live: Vec<u64> = reference.acked.keys().copied().collect();
                let Some(&rank) = live.get(rng.below(live.len().max(1) as u64) as usize) else {
                    break;
                };
                if step > 10 && rng.chance(1, 12) {
                    // A lane finishes: it leaves the watermark.
                    state.lanes.get_mut(&rank).expect("lane").live = false;
                    state.flush();
                    reference.finish(rank);
                    assert_eq!(state.store.records(), &reference.settled[..]);
                    continue;
                }
                let r = rank as usize;
                let len = rng.below(24);
                let mut records: Vec<RawRecord> = match rng.below(5) {
                    // Empty.
                    0 => Vec::new(),
                    // The previous run again, seq and all, from
                    // whichever rank this is: keys equal up to the rank.
                    1 => last_run.clone(),
                    // Wholly below everything settled so far.
                    2 => (0..len)
                        .map(|i| RawRecord {
                            tick: 10 + i,
                            seq: next_seq[r] + i,
                            ..RawRecord::default()
                        })
                        .collect(),
                    // Advancing ticks; ties and a small gtid domain on
                    // purpose.
                    _ => (0..len)
                        .map(|i| {
                            clock[r] += rng.below(6);
                            RawRecord {
                                tick: clock[r],
                                gtid: rng.below(2) as u32,
                                seq: next_seq[r] + i,
                                ..RawRecord::default()
                            }
                        })
                        .collect(),
                };
                next_seq[r] += len;
                for rec in &mut records {
                    rec.event = 1; // Fork
                }
                if rng.chance(1, 3) {
                    // Internally unsorted: what two threads sharing a
                    // ring lane produce.
                    for i in (1..records.len()).rev() {
                        records.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                last_run = records.clone();

                let unit = decode_unit(rank, &chunk_bytes(&records));
                let Ok(Unit::Run(run)) = &unit else {
                    panic!("a chunk decodes to a run");
                };
                assert!(run.windows(2).all(|w| w[0].key() <= w[1].key()));
                fed.extend_from_slice(run);
                reference.ingest(rank, run);
                let epoch = state.lanes[&rank].report.epochs;
                state.ingest(rank, epoch, unit).expect("ingest");

                assert_eq!(state.store.records(), &reference.settled[..]);
                assert_eq!(state.store.late_events(), reference.late);
            }
            for lane in state.lanes.values_mut() {
                lane.live = false;
            }
            state.flush();
            for rank in 0..RANKS {
                reference.finish(rank);
            }
            fed.sort_by_key(RankedEvent::key);
            assert_eq!(state.store.records(), &fed[..]);
            assert_eq!(state.store.export(), timeline_bytes(&fed));
            assert_eq!(state.store.late_events(), reference.late);
            assert!(state.lanes.values().all(|l| l.pending.buf.is_empty()));
        }
    }

    #[test]
    fn an_epoch_violation_outranks_an_undecodable_payload() {
        let mut state = State::default();
        state.lanes.entry(4).or_default().live = true;
        let bad = || decode_unit(4, &[0x7f]);
        assert_eq!(
            state.ingest(4, 3, bad()),
            Err(FleetError::EpochGap {
                rank: 4,
                expected: 0,
                got: 3
            })
        );
        // Neither tag byte, and too short for a header.
        assert_eq!(
            state.ingest(4, 0, bad()),
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
        let mut pending = Pending::default();
        pending.merge(&(0..100).map(ev).collect::<Vec<_>>());
        pending.release(9);
        assert_eq!((pending.head, pending.buf.len()), (10, 100), "skipped");
        // A late run still lands above the released prefix.
        pending.merge(&[ev(3), ev(50)]);
        assert_eq!(pending.ready(10)[0].record.tick, 3);
        assert_eq!(pending.ready(u64::MAX).len(), 92);
        pending.release(60);
        assert_eq!(pending.head, 0, "reclaimed once half the buffer");
        assert_eq!(pending.ready(u64::MAX).len(), 39);
    }
}
