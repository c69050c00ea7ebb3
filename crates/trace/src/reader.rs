//! Offline trace querying.
//!
//! A [`TraceReader`] validates a complete trace file (header, footer,
//! CRCs) up front, keeps the chunk index in memory, and decodes chunk
//! payloads lazily — a time-range or per-region query touches only the
//! chunks whose index entry can match. Cross-thread ordering is a
//! stable k-way merge keyed by `(tick, gtid, seq)`; multi-rank runs
//! (one trace file per simulated MPI rank) merge the same way with the
//! rank index appended as the *final* tie-break component, so merged
//! timelines are byte-stable across runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;

use ora_core::bytes::Cursor;
use ora_core::event::{Event, EVENT_COUNT};

use crate::format::{self, ChunkMeta, Footer};
use crate::ring::RawRecord;
use crate::TraceError;

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in clock ticks.
    pub tick: u64,
    /// Global thread ID of the recording thread.
    pub gtid: usize,
    /// Per-lane record sequence number (third merge-key component).
    pub seq: u64,
    /// The event.
    pub event: Event,
    /// Parallel-region ID (0 outside regions).
    pub region_id: u64,
    /// Wait ID for wait events, else 0.
    pub wait_id: u64,
}

impl TraceEvent {
    /// The total-order merge key: `(tick, gtid, seq)`.
    #[inline]
    pub fn key(&self) -> (u64, usize, u64) {
        (self.tick, self.gtid, self.seq)
    }

    /// Decode a ring record; its event code must be one this build
    /// knows.
    pub fn from_raw(raw: &RawRecord) -> Result<TraceEvent, TraceError> {
        Ok(TraceEvent {
            tick: raw.tick,
            gtid: raw.gtid as usize,
            seq: raw.seq,
            event: Event::from_u32(raw.event).ok_or(TraceError::UnknownEvent(raw.event))?,
            region_id: raw.region_id,
            wait_id: raw.wait_id,
        })
    }
}

/// One decoded governor sampling-rate decision (see
/// [`TraceReader::governor_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorSample {
    /// Governor-clock tick of the retune (trace time domain under the
    /// governed rung, which installs the collector clock).
    pub tick: u64,
    /// Thread the decision record was written from.
    pub gtid: usize,
    /// Begin event of the pair whose sampling rate changed.
    pub event: Event,
    /// Sampling shift before the change (period `2^old_shift`).
    pub old_shift: u32,
    /// Sampling shift after the change (period `2^new_shift`).
    pub new_shift: u32,
    /// Overhead measured over the triggering window, parts-per-million.
    pub overhead_ppm: u64,
}

/// An open trace file, index in memory, payloads decoded on demand.
#[derive(Debug)]
pub struct TraceReader {
    bytes: Vec<u8>,
    footer: Footer,
}

impl TraceReader {
    /// Open an encoded trace from bytes, validating header and footer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceReader, TraceError> {
        format::read_header(&mut Cursor::new(&bytes))?;
        let footer = format::decode_footer(&bytes)?;
        // Index entries are in file order and name footer lanes, and a
        // chunk of `count` records spans at least 8 + 6 × count bytes
        // (decoding checks the count): no index can make a query decode
        // more records, or size more lanes, than the file holds.
        let mut end = 8u64;
        for c in &footer.chunks {
            if c.offset < end || c.lane >= footer.lanes.len() as u64 {
                return Err(TraceError::Malformed(
                    "chunk index out of file order or lane range",
                ));
            }
            end = c
                .offset
                .saturating_add(c.count.saturating_mul(6))
                .saturating_add(8);
        }
        if end > bytes.len() as u64 {
            return Err(TraceError::Malformed("chunk index runs past the file"));
        }
        Ok(TraceReader { bytes, footer })
    }

    /// Open a trace file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceReader, TraceError> {
        TraceReader::from_bytes(std::fs::read(path)?)
    }

    /// The footer: per-lane drop accounting and the chunk index.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Total records persisted in the file.
    pub fn record_count(&self) -> u64 {
        self.footer.total_drained()
    }

    /// Records lost to backpressure during recording (observable loss).
    pub fn dropped(&self) -> u64 {
        self.footer.total_dropped()
    }

    /// Decode one indexed chunk, verifying its CRC. Governor decision
    /// records ([`format::GOVERNOR_EVENT_CODE`]) are metadata, not
    /// events, and are dropped here — every event-stream query sees
    /// only real OpenMP events; [`governor_timeline`] is the decision
    /// records' query.
    ///
    /// [`governor_timeline`]: Self::governor_timeline
    pub fn decode_chunk(&self, meta: &ChunkMeta) -> Result<Vec<TraceEvent>, TraceError> {
        let mut pos = meta.offset as usize;
        let (lane, raws) = format::decode_chunk(&self.bytes, &mut pos)?;
        if lane != meta.lane || raws.len() as u64 != meta.count {
            return Err(TraceError::Malformed(
                "chunk disagrees with its index entry",
            ));
        }
        raws.iter()
            .filter(|r| r.event != format::GOVERNOR_EVENT_CODE)
            .map(TraceEvent::from_raw)
            .collect()
    }

    /// Decode the chunks selected by `keep`, merge them into one stream
    /// stably ordered by `(tick, gtid, seq)`.
    fn merged_where(
        &self,
        keep: impl Fn(&ChunkMeta) -> bool,
    ) -> Result<Vec<TraceEvent>, TraceError> {
        // Group chunk records per lane: within a lane the drainer wrote
        // chunks in pop order, so the concatenated lane stream is
        // seq-ordered; sorting each lane stream (near-sorted — ticks can
        // invert only when threads share a lane) then k-way merging
        // yields a deterministic global order.
        let mut per_lane: Vec<Vec<TraceEvent>> = Vec::new();
        for meta in self.footer.chunks.iter().filter(|m| keep(m)) {
            let lane = meta.lane as usize;
            if per_lane.len() <= lane {
                per_lane.resize_with(lane + 1, Vec::new);
            }
            per_lane[lane].extend(self.decode_chunk(meta)?);
        }
        for lane in &mut per_lane {
            lane.sort_by_key(TraceEvent::key);
        }
        Ok(kway_merge(per_lane))
    }

    /// All records, stably ordered by `(tick, gtid, seq)`.
    pub fn records(&self) -> Result<Vec<TraceEvent>, TraceError> {
        self.merged_where(|_| true)
    }

    /// Records with `lo <= tick <= hi`, in merge order. Chunks whose
    /// tick range misses `[lo, hi]` are never decoded.
    pub fn time_range(&self, lo: u64, hi: u64) -> Result<Vec<TraceEvent>, TraceError> {
        let mut out = self.merged_where(|m| m.overlaps_ticks(lo, hi))?;
        out.retain(|r| (lo..=hi).contains(&r.tick));
        Ok(out)
    }

    /// Records of one thread, in merge order. Only that thread's lane's
    /// chunks are decoded.
    pub fn for_thread(&self, gtid: usize) -> Result<Vec<TraceEvent>, TraceError> {
        let lanes = self.footer.lanes.len().max(1);
        let lane = (gtid % lanes) as u64;
        let mut out = self.merged_where(|m| m.lane == lane)?;
        out.retain(|r| r.gtid == gtid);
        Ok(out)
    }

    /// Records of one parallel region, in merge order. Chunks whose
    /// region mask excludes the region are never decoded.
    pub fn for_region(&self, region_id: u64) -> Result<Vec<TraceEvent>, TraceError> {
        let mut out = self.merged_where(|m| m.may_contain_region(region_id))?;
        out.retain(|r| r.region_id == region_id);
        Ok(out)
    }

    /// The governor's sampling-rate timeline: every decision record in
    /// the trace, ordered by `(tick, event)`. Empty for traces recorded
    /// without the governed rung. Decision records never appear in
    /// [`records`](Self::records) or the other event queries.
    pub fn governor_timeline(&self) -> Result<Vec<GovernorSample>, TraceError> {
        let mut out = Vec::new();
        for meta in &self.footer.chunks {
            let mut pos = meta.offset as usize;
            let (_, raws) = format::decode_chunk(&self.bytes, &mut pos)?;
            for r in raws
                .iter()
                .filter(|r| r.event == format::GOVERNOR_EVENT_CODE)
            {
                let raw_event = u32::try_from(r.region_id)
                    .map_err(|_| TraceError::Malformed("governor record event overflows u32"))?;
                let event =
                    Event::from_u32(raw_event).ok_or(TraceError::UnknownEvent(raw_event))?;
                let (old_shift, new_shift, overhead_ppm) =
                    format::unpack_governor_decision(r.wait_id);
                out.push(GovernorSample {
                    tick: r.tick,
                    gtid: r.gtid as usize,
                    event,
                    old_shift,
                    new_shift,
                    overhead_ppm,
                });
            }
        }
        out.sort_by_key(|s| (s.tick, s.event.index(), s.new_shift));
        Ok(out)
    }

    /// Per-event occurrence counts over the persisted records.
    pub fn event_counts(&self) -> Result<[u64; EVENT_COUNT], TraceError> {
        let mut counts = [0u64; EVENT_COUNT];
        for meta in &self.footer.chunks {
            for r in self.decode_chunk(meta)? {
                counts[r.event.index()] += 1;
            }
        }
        Ok(counts)
    }

    /// A streaming iterator over all records in `(tick, gtid, seq)`
    /// order — the same order [`records`](Self::records) produces —
    /// decoding chunks lazily. Memory is bounded by the chunks whose
    /// tick ranges overlap at the merge frontier (typically one chunk
    /// per lane), not by the whole trace, which is what lets the fleet
    /// daemon and [`merge_ranks`] handle rank files far larger than RAM.
    pub fn events(&self) -> EventIter<'_> {
        let mut lanes: Vec<LaneCursor<'_>> = Vec::new();
        for meta in &self.footer.chunks {
            let lane = meta.lane as usize;
            if lanes.len() <= lane {
                lanes.resize_with(lane + 1, || LaneCursor::new(self));
            }
            lanes[lane].chunks.push(meta);
        }
        // A record may only leave a lane's reorder buffer once every
        // *remaining* chunk of the lane provably starts above it; the
        // suffix minimum of the index's min_ticks is that bound.
        for cursor in &mut lanes {
            let mut suffix = u64::MAX;
            cursor.suffix_min = vec![u64::MAX; cursor.chunks.len()];
            for i in (0..cursor.chunks.len()).rev() {
                suffix = suffix.min(cursor.chunks[i].min_tick);
                cursor.suffix_min[i] = suffix;
            }
        }
        let mut iter = EventIter {
            lanes,
            heap: BinaryHeap::new(),
            pending_error: None,
            errored: false,
        };
        for i in 0..iter.lanes.len() {
            if let Err(e) = iter.refill(i) {
                iter.pending_error = Some(e);
                break;
            }
        }
        iter
    }
}

/// An event tagged with its total-order key, ordered by the key alone
/// (keys are unique within a trace: `seq` is unique per lane and a
/// `gtid` always maps to the same lane).
#[derive(Debug, Clone, Copy)]
struct Keyed {
    key: (u64, usize, u64),
    ev: TraceEvent,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// One lane's lazy decode state (see [`TraceReader::events`]).
struct LaneCursor<'a> {
    reader: &'a TraceReader,
    /// This lane's chunks, in file (drain) order.
    chunks: Vec<&'a ChunkMeta>,
    /// `suffix_min[i]` = smallest `min_tick` among `chunks[i..]`.
    suffix_min: Vec<u64>,
    next_chunk: usize,
    /// Reorder buffer: records decoded but not yet provably minimal.
    pending: BinaryHeap<Reverse<Keyed>>,
}

impl<'a> LaneCursor<'a> {
    fn new(reader: &'a TraceReader) -> LaneCursor<'a> {
        LaneCursor {
            reader,
            chunks: Vec::new(),
            suffix_min: Vec::new(),
            next_chunk: 0,
            pending: BinaryHeap::new(),
        }
    }

    /// Pop the lane's next record in key order, decoding chunks as the
    /// frontier requires.
    fn next(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        loop {
            let must_decode = match self.pending.peek() {
                // An equal tick in a later chunk can still carry a
                // smaller (gtid, seq); decode until strictly above.
                Some(Reverse(top)) => self
                    .suffix_min
                    .get(self.next_chunk)
                    .is_some_and(|&m| m <= top.key.0),
                None => self.next_chunk < self.chunks.len(),
            };
            if !must_decode {
                return Ok(self.pending.pop().map(|Reverse(k)| k.ev));
            }
            let meta = self.chunks[self.next_chunk];
            self.next_chunk += 1;
            for ev in self.reader.decode_chunk(meta)? {
                self.pending.push(Reverse(Keyed { key: ev.key(), ev }));
            }
        }
    }
}

/// Streaming `(tick, gtid, seq)`-ordered record iterator over one
/// trace (see [`TraceReader::events`]). Yields `Err` once and then
/// stops if a chunk fails to decode.
pub struct EventIter<'a> {
    lanes: Vec<LaneCursor<'a>>,
    /// Merge frontier: each live lane's next record.
    heap: BinaryHeap<Reverse<(Keyed, usize)>>,
    /// A decode failure hit while priming the frontier, reported on the
    /// first `next()` call.
    pending_error: Option<TraceError>,
    errored: bool,
}

impl EventIter<'_> {
    /// Pull the next record of `lane` into the merge frontier.
    fn refill(&mut self, lane: usize) -> Result<(), TraceError> {
        if let Some(ev) = self.lanes[lane].next()? {
            self.heap.push(Reverse((Keyed { key: ev.key(), ev }, lane)));
        }
        Ok(())
    }

    fn poison(&mut self, e: TraceError) -> Option<Result<TraceEvent, TraceError>> {
        self.errored = true;
        Some(Err(e))
    }
}

impl Iterator for EventIter<'_> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        if let Some(e) = self.pending_error.take() {
            return self.poison(e);
        }
        let Reverse((keyed, lane)) = self.heap.pop()?;
        match self.refill(lane) {
            Ok(()) => Some(Ok(keyed.ev)),
            Err(e) => self.poison(e),
        }
    }
}

/// A record attributed to a rank of a multi-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedEvent {
    /// Index of the trace (rank) the record came from.
    pub rank: usize,
    /// The record.
    pub record: TraceEvent,
}

/// The total-order key of a ranked record: the single-file merge key
/// with the rank index appended as the *final* tie-break component.
pub type RankedKey = (u64, usize, u64, usize);

impl RankedEvent {
    /// The total-order merge key: `(tick, gtid, seq, rank)`.
    #[inline]
    pub fn key(&self) -> RankedKey {
        let (tick, gtid, seq) = self.record.key();
        (tick, gtid, seq, self.rank)
    }
}

/// The k-way merge core shared by [`merge_ranks_iter`] and the fleet
/// daemon's watermark flush: a min-heap of rank-attributed records
/// keyed `(tick, gtid, seq, rank)`, used as a frontier — one record per
/// rank stream, refilled from that rank on pop.
#[derive(Debug, Default)]
pub struct RankMergeHeap {
    heap: BinaryHeap<Reverse<RankKeyed>>,
}

/// A ranked event ordered by its `(tick, gtid, seq, rank)` key alone
/// (keys are unique across the fleet: `(tick, gtid, seq)` is unique
/// within one trace and the rank disambiguates across traces).
#[derive(Debug, Clone, Copy)]
struct RankKeyed {
    key: RankedKey,
    ev: RankedEvent,
}

impl PartialEq for RankKeyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for RankKeyed {}
impl PartialOrd for RankKeyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankKeyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl RankMergeHeap {
    /// An empty heap.
    pub fn new() -> RankMergeHeap {
        RankMergeHeap::default()
    }

    /// Add one record of `rank` to the frontier.
    pub fn push(&mut self, rank: usize, record: TraceEvent) {
        let ev = RankedEvent { rank, record };
        self.heap.push(Reverse(RankKeyed { key: ev.key(), ev }));
    }

    /// The smallest buffered key, if any.
    pub fn peek_key(&self) -> Option<RankedKey> {
        self.heap.peek().map(|Reverse(k)| k.key)
    }

    /// Remove and return the smallest-keyed record.
    pub fn pop(&mut self) -> Option<RankedEvent> {
        self.heap.pop().map(|Reverse(k)| k.ev)
    }

    /// Buffered records.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds nothing.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Streaming multi-rank merge (see [`merge_ranks`]): yields the merged
/// timeline one record at a time without materializing any rank's
/// events — each rank contributes exactly one frontier record plus its
/// [`TraceReader::events`] reorder window.
pub struct RankMergeIter<'a> {
    streams: Vec<EventIter<'a>>,
    heap: RankMergeHeap,
    /// A decode failure hit while priming the per-rank frontier,
    /// reported on the first `next()` call.
    prime_error: Option<TraceError>,
    errored: bool,
}

impl Iterator for RankMergeIter<'_> {
    type Item = Result<RankedEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        if let Some(e) = self.prime_error.take() {
            self.errored = true;
            return Some(Err(e));
        }
        let ev = self.heap.pop()?;
        // Refill the popped rank's frontier slot before yielding, so
        // the heap always holds every live rank's next record.
        match self.streams[ev.rank].next() {
            Some(Ok(next)) => self.heap.push(ev.rank, next),
            Some(Err(e)) => {
                self.errored = true;
                return Some(Err(e));
            }
            None => {}
        }
        Some(Ok(ev))
    }
}

/// Streaming form of [`merge_ranks`]: an iterator over the merged
/// `(tick, gtid, seq, rank)`-ordered timeline that decodes every rank's
/// chunks lazily. This is the memory-bounded core the offline wrapper
/// and the `ora-fleet` aggregator both build on.
pub fn merge_ranks_iter(readers: &[TraceReader]) -> RankMergeIter<'_> {
    let mut iter = RankMergeIter {
        streams: readers.iter().map(TraceReader::events).collect(),
        heap: RankMergeHeap::new(),
        prime_error: None,
        errored: false,
    };
    for rank in 0..iter.streams.len() {
        match iter.streams[rank].next() {
            Some(Ok(ev)) => iter.heap.push(rank, ev),
            Some(Err(e)) => {
                iter.prime_error = Some(e);
                break;
            }
            None => {}
        }
    }
    iter
}

/// Merge per-rank traces (e.g. one file per ProcSim rank of an
/// `workloads::mz` run) into one stream ordered by
/// `(tick, gtid, seq, rank)` — the single-file merge key with the rank
/// index appended as the final tie-break, so records whose `(tick,
/// gtid)` collide across ranks still order deterministically and the
/// merged timeline is byte-stable across runs. (Keying the rank ahead
/// of gtid — as an earlier revision did — reorders equal-tick events of
/// different threads by which file they came from, diverging from the
/// per-file merge order.) Thin wrapper over [`merge_ranks_iter`].
pub fn merge_ranks(readers: &[TraceReader]) -> Result<Vec<RankedEvent>, TraceError> {
    merge_ranks_iter(readers).collect()
}

/// Stable k-way merge of per-lane streams already sorted by
/// [`TraceEvent::key`].
fn kway_merge(lanes: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let total: usize = lanes.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; lanes.len()];
    let mut out = Vec::with_capacity(total);
    // Lane counts are small (≤ configured lanes); a linear scan per pop
    // beats heap overhead for the typical 64-lane case and is trivially
    // stable (lowest lane index wins ties).
    while out.len() < total {
        let mut best: Option<(usize, (u64, usize, u64))> = None;
        for (i, lane) in lanes.iter().enumerate() {
            if let Some(e) = lane.get(cursors[i]) {
                let k = e.key();
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best.expect("non-empty lane exists while out < total");
        out.push(lanes[i][cursors[i]]);
        cursors[i] += 1;
    }
    out
}
