//! Offline trace querying.
//!
//! A trace file is a chunk stream, and its footer is only an index. A
//! [`TraceReader`] walks the stream once with [`format::units`]
//! (checking every chunk's CRC) and decodes payloads lazily; a
//! time-range or per-region query decodes only the chunks whose index
//! entry can match. With a footer, the footer's index must agree with
//! the walk, and supplies tick ranges, region masks and drop counters.
//! Without a decodable footer (the recording was killed before
//! `finish`) the walked chunks become the index, up to the first torn
//! or CRC-bad unit: see [`TraceReader::salvaged`]. Walked entries have
//! no tick ranges or region masks, so queries decode them all, and
//! drop counts are unknown. A file whose footer decodes but whose
//! stream does not walk cleanly to it is damaged, and fails to open.
//!
//! Every query is one merge: a lazy cursor per lane over the chunks the
//! query selects, merged by `(tick, gtid, seq)`, then filtered per
//! record. [`TraceReader::events`] streams it, the other queries collect
//! it; multi-rank runs (one trace file per simulated MPI rank) merge the
//! same way with the rank index appended as the *final* tie-break
//! component, so merged timelines are byte-stable across runs.
//!
//! The merge moves runs, not records. Each lane's cursor decodes a
//! chunk into a key-sorted run with [`decode_run`] (the decoder the
//! fleet daemon uses too) and folds it into its reorder buffer, itself
//! one key-sorted run, with [`merge_run`] (the daemon's backward merge);
//! the frontier across lanes is a heap of each lane's next key, advanced
//! in place, so a record costs one sift. A cursor trusts the index's
//! tick ranges to release records, so a decoded chunk outside its range
//! fails the query as malformed.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use ora_core::event::{Event, EVENT_COUNT};

use crate::format::{self, ChunkMeta, Footer, Unit, GOVERNOR_EVENT_CODE};
use crate::ring::RawRecord;
use crate::TraceError;

/// One decoded trace event. Events order by their merge
/// [`key`](Self::key) first: the fields are declared in key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// What opening a trace without a decodable footer kept and discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Salvage {
    /// Complete, CRC-checked chunks before the first torn or bad unit.
    pub chunks: usize,
    /// Bytes from that unit to the end of the file.
    pub bytes_discarded: usize,
}

/// One chunk of the index, and where its CRC-checked payload lies.
#[derive(Debug)]
struct Indexed {
    meta: ChunkMeta,
    payload: Range<usize>,
}

/// An open trace file, index in memory, payloads decoded on demand.
#[derive(Debug)]
pub struct TraceReader {
    bytes: Vec<u8>,
    /// Every chunk, in file order.
    chunks: Vec<Indexed>,
    footer: Option<Footer>,
    salvage: Option<Salvage>,
}

impl TraceReader {
    /// Open an encoded trace from bytes: walk its chunk stream, then
    /// check the walk against the footer's index or, without a footer,
    /// salvage the complete chunks.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceReader, TraceError> {
        let mut walk = format::units(&bytes);
        match walk.next() {
            Some(Ok((_, Unit::Header))) => {}
            None => return Err(TraceError::Truncated),
            Some(unit) => return Err(unit.err().unwrap_or(TraceError::BadMagic)),
        }
        // Where the walk stands: after the last complete chunk at the
        // end, or at the torn unit's start.
        let mut offset = 8;
        let (mut chunks, mut footer, mut torn) = (Vec::new(), None, None);
        for unit in walk {
            match unit {
                Ok((span, Unit::Chunk(chunk))) => {
                    let end = offset + span.len() - 4; // the CRC ends the chunk
                    chunks.push(Indexed {
                        meta: ChunkMeta {
                            offset: offset as u64,
                            lane: chunk.lane,
                            count: chunk.count,
                            min_tick: 0,
                            max_tick: u64::MAX,
                            region_mask: u64::MAX,
                        },
                        payload: end - chunk.payload.len()..end,
                    });
                    offset += span.len();
                }
                Ok((_, Unit::Footer(f))) => footer = Some(f),
                Ok((_, Unit::Header)) => {
                    torn = Some(TraceError::Malformed("a header inside the stream"));
                    break;
                }
                Err(e) => torn = Some(e),
            }
        }
        let salvage = match &footer {
            Some(footer) => {
                let lanes = footer.lanes.len() as u64;
                let agrees = footer.chunks.len() == chunks.len()
                    && footer.chunks.iter().zip(&chunks).all(|(m, c)| {
                        let walked = (c.meta.offset, c.meta.lane, c.meta.count);
                        (m.offset, m.lane, m.count) == walked && m.lane < lanes
                    });
                if !agrees {
                    return Err(TraceError::Malformed(
                        "footer index disagrees with the chunk stream",
                    ));
                }
                for (c, m) in chunks.iter_mut().zip(&footer.chunks) {
                    c.meta = *m;
                }
                None
            }
            None => match torn {
                Some(e) if format::decode_footer(&bytes).is_ok() => return Err(e),
                _ => Some(Salvage {
                    chunks: chunks.len(),
                    bytes_discarded: bytes.len() - offset,
                }),
            },
        };
        Ok(TraceReader {
            bytes,
            chunks,
            footer,
            salvage,
        })
    }

    /// Open a trace file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceReader, TraceError> {
        TraceReader::from_bytes(std::fs::read(path)?)
    }

    /// The footer (per-lane drop accounting and the chunk index), or
    /// `None` for a salvaged trace.
    pub fn footer(&self) -> Option<&Footer> {
        self.footer.as_ref()
    }

    /// What was salvaged, if the trace had no decodable footer.
    pub fn salvaged(&self) -> Option<Salvage> {
        self.salvage
    }

    /// Total records persisted in the file.
    pub fn record_count(&self) -> u64 {
        self.chunks.iter().map(|c| c.meta.count).sum()
    }

    /// Records lost to backpressure during recording (observable loss),
    /// or `None` for a salvaged trace, which cannot say.
    pub fn dropped(&self) -> Option<u64> {
        self.footer.as_ref().map(Footer::total_dropped)
    }

    /// All records, stably ordered by `(tick, gtid, seq)`: the
    /// lane-cursor merge behind [`events`](Self::events), collected.
    pub fn records(&self) -> Result<Vec<TraceEvent>, TraceError> {
        self.collect_where(|_| true, |_| true)
    }

    /// Records with `lo <= tick <= hi`, in merge order. Chunks whose
    /// tick range misses `[lo, hi]` are never decoded, so a footer that
    /// lies about a skipped chunk's range goes unseen here, while every
    /// decoded chunk is checked against its own (chunks that carry their
    /// own tick ranges would close this: ROADMAP 12a).
    pub fn time_range(&self, lo: u64, hi: u64) -> Result<Vec<TraceEvent>, TraceError> {
        self.collect_where(
            |m| m.overlaps_ticks(lo, hi),
            |r| (lo..=hi).contains(&r.tick),
        )
    }

    /// Records of one thread, in merge order. Only that thread's lane's
    /// chunks are decoded — all of them on a salvaged trace, whose lane
    /// count is unknown.
    pub fn for_thread(&self, gtid: usize) -> Result<Vec<TraceEvent>, TraceError> {
        let lane = (self.footer.as_ref()).map(|f| (gtid % f.lanes.len().max(1)) as u64);
        self.collect_where(|m| lane.is_none_or(|l| m.lane == l), |r| r.gtid == gtid)
    }

    /// Records of one parallel region, in merge order. Chunks whose
    /// region mask excludes the region are never decoded, so a footer
    /// that clears a skipped chunk's bit for the region goes unseen
    /// here, while every decoded chunk is checked against its own mask
    /// (chunks that carry their own masks would close this: ROADMAP 12a).
    pub fn for_region(&self, region_id: u64) -> Result<Vec<TraceEvent>, TraceError> {
        self.collect_where(
            |m| m.may_contain_region(region_id),
            |r| r.region_id == region_id,
        )
    }

    /// Merge the chunks `keep` selects and collect the records `filter`
    /// passes, in merge order.
    fn collect_where(
        &self,
        keep: impl Fn(&ChunkMeta) -> bool,
        filter: impl Fn(&TraceEvent) -> bool,
    ) -> Result<Vec<TraceEvent>, TraceError> {
        let merge = RankMergeIter::new(self.lane_cursors(0, keep).collect());
        collect_merge(merge, |e| filter(&e.record).then_some(e.record))
    }

    /// The governor's sampling-rate timeline: every decision record in
    /// the trace, ordered by `(tick, event)`. Empty for traces recorded
    /// without the governed rung. Decision records never appear in
    /// [`records`](Self::records) or the other event queries.
    pub fn governor_timeline(&self) -> Result<Vec<GovernorSample>, TraceError> {
        let mut out = Vec::new();
        for chunk in &self.chunks {
            let payload = &self.bytes[chunk.payload.clone()];
            format::for_each_record(payload, chunk.meta.count, |r| {
                if r.event != GOVERNOR_EVENT_CODE {
                    return Ok(());
                }
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
                Ok(())
            })?;
        }
        out.sort_by_key(|s| (s.tick, s.event.index(), s.new_shift));
        Ok(out)
    }

    /// Per-event occurrence counts over the persisted records.
    pub fn event_counts(&self) -> Result<[u64; EVENT_COUNT], TraceError> {
        let mut counts = [0u64; EVENT_COUNT];
        for chunk in &self.chunks {
            let payload = &self.bytes[chunk.payload.clone()];
            for_each_event(payload, chunk.meta.count, |r| counts[r.event.index()] += 1)?;
        }
        Ok(counts)
    }

    /// A streaming iterator over all records in `(tick, gtid, seq)`
    /// order, decoding chunks lazily; [`records`](Self::records) is this
    /// merge collected. Memory is bounded by the chunks whose
    /// tick ranges overlap at the merge frontier (typically one chunk
    /// per lane; a salvaged trace's chunks have no tick ranges, so a
    /// whole lane), not by the whole trace, which is what lets the
    /// fleet daemon and [`merge_ranks`] handle rank files far larger
    /// than RAM. Yields `Err` once and then stops if a chunk fails to
    /// decode.
    pub fn events(&self) -> impl Iterator<Item = Result<TraceEvent, TraceError>> + '_ {
        merge_ranks_iter(std::slice::from_ref(self)).map(|e| e.map(|e| e.record))
    }

    /// One lazy cursor per lane over the chunks `keep` selects,
    /// attributing its records to `rank`.
    fn lane_cursors(
        &self,
        rank: usize,
        keep: impl Fn(&ChunkMeta) -> bool,
    ) -> impl Iterator<Item = LaneCursor<'_>> {
        let mut by_lane: BTreeMap<u64, Vec<&Indexed>> = BTreeMap::new();
        for chunk in self.chunks.iter().filter(|c| keep(&c.meta)) {
            by_lane.entry(chunk.meta.lane).or_default().push(chunk);
        }
        by_lane.into_values().map(move |chunks| {
            let mut suffix_min = vec![u64::MAX; chunks.len() + 1];
            for i in (0..chunks.len()).rev() {
                suffix_min[i] = suffix_min[i + 1].min(chunks[i].meta.min_tick);
            }
            LaneCursor {
                reader: self,
                rank,
                chunks,
                suffix_min,
                next_chunk: 0,
                run: Vec::new(),
                head: 0,
                scratch: Vec::new(),
                decoded: 0,
                displaced: 0,
            }
        })
    }
}

/// One lane's lazy decode state (see [`TraceReader::events`]).
struct LaneCursor<'a> {
    reader: &'a TraceReader,
    rank: usize,
    /// This lane's chunks, in file (drain) order.
    chunks: Vec<&'a Indexed>,
    /// `suffix_min[i]` = smallest `min_tick` among `chunks[i..]`.
    suffix_min: Vec<u64>,
    next_chunk: usize,
    /// Reorder buffer: records decoded but not yet yielded, key-sorted
    /// from `head` on.
    run: Vec<RankedEvent>,
    /// `run[..head]` has been yielded.
    head: usize,
    /// The chunk being folded in, decoded; kept for its capacity.
    scratch: Vec<RankedEvent>,
    /// Records decoded, and buffered records merges have moved.
    decoded: usize,
    displaced: usize,
}

impl LaneCursor<'_> {
    /// The key of the lane's next record, decoding chunks until it is
    /// provably next: a record may only leave the reorder buffer once
    /// every *remaining* chunk of the lane starts strictly above its
    /// tick (an equal tick can still carry a smaller `(gtid, seq)`).
    fn peek(&mut self) -> Result<Option<RankedKey>, TraceError> {
        loop {
            let exhausted = self.next_chunk == self.chunks.len();
            match self.run.get(self.head) {
                Some(top) if exhausted || top.record.tick < self.suffix_min[self.next_chunk] => {
                    return Ok(Some(top.key()))
                }
                None if exhausted => return Ok(None),
                _ => {}
            }
            let chunk = self.chunks[self.next_chunk];
            self.next_chunk += 1;
            self.decode(chunk)?;
            // A drained buffer trades places with the chunk's run; else
            // the yielded prefix is reclaimed once it is half the buffer,
            // and the run is merged in behind the head.
            if self.head == self.run.len() {
                std::mem::swap(&mut self.run, &mut self.scratch);
                self.head = 0;
                continue;
            }
            if self.head * 2 >= self.run.len() {
                self.run.drain(..self.head);
                self.head = 0;
            }
            // A merge costs the chunk plus the buffered tail it lands
            // below: about a chunk when threads share the lane, but a
            // lane whose chunks keep descending in tick (a crafted file)
            // would make it quadratic. Past a budget, the rest of the
            // lane is decoded behind the head and sorted once.
            if let Some(first) = self.scratch.first().map(RankedEvent::key) {
                let held = &self.run[self.head..];
                self.displaced += held.len() - held.partition_point(|e| e.key() <= first);
            }
            if self.displaced > 8 * self.decoded {
                self.run.extend_from_slice(&self.scratch);
                self.buffer_rest()?;
                continue;
            }
            merge_run(&mut self.run, self.head, &self.scratch);
        }
    }

    /// Decode `chunk` into `scratch` as a key-sorted run. [`peek`](Self::peek)
    /// trusts the index's `min_tick`, so a run outside the chunk's indexed
    /// tick range is an error, not a silently reordered merge. A region
    /// query skips chunks by their indexed region mask, so a record of a
    /// region the mask lacks is an error too.
    fn decode(&mut self, chunk: &Indexed) -> Result<(), TraceError> {
        let payload = &self.reader.bytes[chunk.payload.clone()];
        decode_run(payload, chunk.meta.count, self.rank, &mut self.scratch)?;
        if let (Some(first), Some(last)) = (self.scratch.first(), self.scratch.last()) {
            if first.record.tick < chunk.meta.min_tick || last.record.tick > chunk.meta.max_tick {
                return Err(TraceError::Malformed(
                    "records outside their chunk's tick range",
                ));
            }
        }
        let regions = (self.scratch.iter()).fold(0u64, |m, e| m | 1 << (e.record.region_id % 64));
        if regions & !chunk.meta.region_mask != 0 {
            return Err(TraceError::Malformed(
                "records of a region their chunk's mask lacks",
            ));
        }
        self.decoded += self.scratch.len();
        Ok(())
    }

    /// Decode every remaining chunk behind the head, then sort what is
    /// held once.
    fn buffer_rest(&mut self) -> Result<(), TraceError> {
        let rest = &self.chunks[self.next_chunk..];
        let count: u64 = rest.iter().map(|c| c.meta.count).sum();
        self.run.reserve_exact(count as usize);
        while let Some(&chunk) = self.chunks.get(self.next_chunk) {
            self.next_chunk += 1;
            self.decode(chunk)?;
            self.run.extend_from_slice(&self.scratch);
        }
        self.run[self.head..].sort_by_key(RankedEvent::key);
        Ok(())
    }

    /// Yield the record [`peek`](Self::peek) keyed.
    fn pop(&mut self) -> RankedEvent {
        self.head += 1;
        self.run[self.head - 1]
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

/// Hand every event of one chunk's `count` records in `payload` to `f`
/// and return how many governor decision records
/// ([`GOVERNOR_EVENT_CODE`]) it skipped: those are metadata, not events.
fn for_each_event(
    payload: &[u8],
    count: u64,
    mut f: impl FnMut(TraceEvent),
) -> Result<u64, TraceError> {
    let mut skipped = 0;
    format::for_each_record(payload, count, |raw| {
        if raw.event == GOVERNOR_EVENT_CODE {
            skipped += 1;
        } else {
            f(TraceEvent::from_raw(&raw)?);
        }
        Ok(())
    })?;
    Ok(skipped)
}

/// Decode one chunk's `count` records from `payload` into `run` as a
/// key-sorted run of `rank`, replacing what `run` held, and return how
/// many governor decision records it skipped. One thread per ring lane
/// writes in key order, so only threads sharing a lane make a chunk
/// that needs sorting. The lane cursors under [`merge_ranks_iter`] and
/// the fleet daemon's ingest both decode through this function.
pub fn decode_run(
    payload: &[u8],
    count: u64,
    rank: usize,
    run: &mut Vec<RankedEvent>,
) -> Result<u64, TraceError> {
    run.clear();
    run.reserve(count as usize);
    let mut sorted = true;
    let skipped = for_each_event(payload, count, |record| {
        let ev = RankedEvent { rank, record };
        sorted &= run.last().is_none_or(|prev| prev.key() <= ev.key());
        run.push(ev);
    })?;
    if !sorted {
        run.sort_by_key(RankedEvent::key);
    }
    Ok(skipped)
}

/// Merge the key-sorted `run` into `dst[floor..]`, itself key-sorted,
/// in place and from the back: the largest remaining record of either
/// side moves to the highest free slot, and the merge stops as soon as
/// the run is exhausted — what is left of `dst` is already where it
/// belongs. `dst[..floor]` is never read or written. A record of the
/// run goes after every `dst` record of equal key. The one merge
/// kernel of two users: a lane cursor of [`merge_ranks_iter`] folds
/// each decoded chunk into its reorder buffer with it, and the fleet
/// daemon folds each chunk into a lane's pending records and settles
/// released prefixes into its store with it.
pub fn merge_run(dst: &mut Vec<RankedEvent>, floor: usize, run: &[RankedEvent]) {
    let Some(&first) = run.first() else {
        return;
    };
    let mut i = dst.len();
    if i == floor || dst[i - 1].key() <= first.key() {
        dst.extend_from_slice(run);
        return;
    }
    let mut j = run.len();
    dst.resize(i + j, first);
    while j > 0 {
        if i > floor && dst[i - 1].key() > run[j - 1].key() {
            dst[i + j - 1] = dst[i - 1];
            i -= 1;
        } else {
            dst[i + j - 1] = run[j - 1];
            j -= 1;
        }
    }
}

/// Streaming multi-rank merge (see [`merge_ranks`]): yields the merged
/// timeline one record at a time without materializing any rank's
/// events. Its frontier holds the next record of every lane of every
/// rank. Yields `Err` once and then stops if a chunk fails to decode.
pub struct RankMergeIter<'a> {
    lanes: Vec<LaneCursor<'a>>,
    /// Each live lane's next key, and the lane.
    frontier: BinaryHeap<Reverse<(RankedKey, usize)>>,
    /// A decode failure hit while priming the frontier, reported on the
    /// first `next()` call.
    error: Option<TraceError>,
}

impl Iterator for RankMergeIter<'_> {
    type Item = Result<RankedEvent, TraceError>;

    /// Yield the frontier's smallest record, then rewrite its entry
    /// with the lane's next key in place (one sift), or pop the entry
    /// once the lane is exhausted. Ties break on the lane index.
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.error.take() {
            self.frontier.clear();
            return Some(Err(e));
        }
        let mut top = self.frontier.peek_mut()?;
        let lane = &mut self.lanes[top.0 .1];
        let ev = lane.pop();
        match lane.peek() {
            Ok(Some(key)) => top.0 .0 = key,
            Ok(None) => {
                PeekMut::pop(top);
            }
            Err(e) => {
                drop(top);
                self.frontier.clear();
                return Some(Err(e));
            }
        }
        Some(Ok(ev))
    }
}

impl<'a> RankMergeIter<'a> {
    /// Prime the frontier with each lane's first key.
    fn new(lanes: Vec<LaneCursor<'a>>) -> RankMergeIter<'a> {
        let mut iter = RankMergeIter {
            lanes,
            frontier: BinaryHeap::new(),
            error: None,
        };
        for (i, lane) in iter.lanes.iter_mut().enumerate() {
            match lane.peek() {
                Ok(Some(key)) => iter.frontier.push(Reverse((key, i))),
                Ok(None) => {}
                Err(e) => {
                    iter.error = Some(e);
                    break;
                }
            }
        }
        iter
    }
}

/// Streaming form of [`merge_ranks`]: an iterator over the merged
/// `(tick, gtid, seq, rank)`-ordered timeline that decodes every rank's
/// chunks lazily. This is the memory-bounded core the offline wrapper
/// and the `ora-fleet` aggregator both build on.
pub fn merge_ranks_iter(readers: &[TraceReader]) -> RankMergeIter<'_> {
    RankMergeIter::new(
        (readers.iter().enumerate())
            .flat_map(|(rank, reader)| reader.lane_cursors(rank, |_| true))
            .collect(),
    )
}

/// Run `merge` to the end and collect what `pick` keeps, into one
/// vector sized from its lanes' chunk counts: every query of the reader
/// and [`merge_ranks`] collect through here.
fn collect_merge<T>(
    merge: RankMergeIter<'_>,
    mut pick: impl FnMut(RankedEvent) -> Option<T>,
) -> Result<Vec<T>, TraceError> {
    let chunks = merge.lanes.iter().flat_map(|l| &l.chunks);
    let mut out = Vec::with_capacity(chunks.map(|c| c.meta.count).sum::<u64>() as usize);
    for ev in merge {
        out.extend(pick(ev?));
    }
    Ok(out)
}

/// Merge per-rank traces (e.g. one file per ProcSim rank of an
/// `workloads::mz` run) into one stream ordered by
/// `(tick, gtid, seq, rank)` — the single-file merge key with the rank
/// index appended as the final tie-break, so records whose `(tick,
/// gtid)` collide across ranks still order deterministically and the
/// merged timeline is byte-stable across runs. (Keying the rank ahead
/// of gtid — as an earlier revision did — reorders equal-tick events of
/// different threads by which file they came from, diverging from the
/// per-file merge order.) [`merge_ranks_iter`], collected into an
/// output sized once from the readers' record counts.
pub fn merge_ranks(readers: &[TraceReader]) -> Result<Vec<RankedEvent>, TraceError> {
    collect_merge(merge_ranks_iter(readers), Some)
}
