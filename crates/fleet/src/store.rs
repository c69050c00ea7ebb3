//! The merged fleet timeline: queryable, exportable, byte-stable.
//!
//! The daemon settles key-sorted **runs** here as the watermark
//! advances: each flush, every queued run's slice at or below it. The
//! watermark is a *performance* frontier, not a correctness one: a
//! record can legally arrive below it (a thread can stall between
//! reading the clock and committing to its ring, and one rank's ring
//! lanes cover the same tick window, so a later chunk routinely carries
//! earlier ticks). A run is therefore merged in from the back with
//! `ora_trace::merge_run`, the kernel the offline reader's lane cursors
//! merge chunks with, and its records below the frontier as it stood
//! before the flush are counted late. The store is **always** fully
//! sorted and [`FleetStore::export`] is byte-identical to offline
//! `merge_ranks` over the same data, regardless of arrival timing.
//!
//! **Layout.** Settled records live in the export encoding
//! (`ora_trace::analyze`'s v2 timeline): the oldest as whole encoded
//! segments of `TIMELINE_SEGMENT` records back to back in one byte
//! buffer, with a table of each segment's last key and byte offset; the
//! newest as a decoded, key-sorted **tail**, into which every settle
//! merges. Once the tail holds twice its floor (`TAIL_FLOOR` records, a
//! constant), its oldest whole segments down to the floor are encoded
//! and dropped from it, so a record is encoded once and moved about
//! once. A run that reaches below the tail — one whose first key is
//! below the last key of an encoded segment — first **reopens** exactly
//! the segments it reaches into: they are decoded back in front of the
//! tail and their bytes and table entries dropped. The next spill then
//! waits until the tail has doubled from what the reopen left, so a
//! rank whose runs keep reaching far below the tail (chunks that
//! descend in tick) re-encodes the timeline geometrically often, not
//! once per run. A settled record
//! costs its encoded bytes (about 8 B) instead of a 56-byte decoded
//! record, and the buffer it lives in grows rarely. The byte buffer and
//! the segment table are reserved together, for twice the timeline at
//! the density encoded so far, so both at least double when they grow.
//! [`seal`](FleetStore::seal) (the daemon's finish) encodes the tail,
//! its last segment partial, and frees it: a sealed store's
//! [`export`](FleetStore::export) is the magic, the count and a copy of
//! the segment bytes, with no work per record. A settle after a seal
//! reopens the partial segment first.
//!
//! **Reads.** [`FleetStore::records`], [`FleetStore::time_range`],
//! [`FleetStore::for_rank`] and [`FleetStore::for_region`] read a
//! decoded view of the whole timeline, built by the first of them after
//! a settle. Rank and region queries answer in their hits, not in the
//! timeline: the first of them after a settle also builds a query index
//! (each rank's and each region's ascending positions in the view, as
//! `u32`s in one table per key kind), and each query copies its hits
//! out through it. A settle only drops the view and the index, so
//! ingest pays nothing for them; a caller that alternates settles and
//! queries pays one O(n) decode and build per query, as a scan would.
//! [`len`](FleetStore::len), [`frontier`](FleetStore::frontier) and
//! [`late_events`](FleetStore::late_events) are O(1).

use std::collections::HashMap;
use std::sync::OnceLock;

use ora_trace::analyze::{
    decode_segments, encode_segments, put_timeline_head, MAX_TIMELINE_RECORD_BYTES,
    MIN_TIMELINE_RECORD_BYTES, TIMELINE_SEGMENT,
};
use ora_trace::{merge_run, RankedEvent, RankedKey};

/// Magic starting every exported timeline (defined next to the decoder
/// so encode and decode cannot drift).
pub use ora_trace::analyze::TIMELINE_MAGIC;

/// Canonical byte encoding of a merged timeline: magic, record count,
/// then the records as delta-coded segments in key order. The daemon's
/// [`FleetStore::export`] and the offline `merge_ranks` path encode
/// through the one segment encoder, which is what makes "byte
/// identical" a meaningful equality. (The codec lives in
/// `ora_trace::analyze` so `trace analyze` can consume exports without
/// a dependency cycle.)
pub use ora_trace::analyze::timeline_bytes;

/// Records the decoded tail keeps after a spill: 16 segments, enough
/// that a rank's late chunks land in the tail rather than below it.
const TAIL_FLOOR: usize = 16 * TIMELINE_SEGMENT;

/// The aggregator's merged, totally-ordered event store.
#[derive(Debug, Default)]
pub struct FleetStore {
    /// The oldest settled records, as encoded segments back to back.
    bytes: Vec<u8>,
    /// One entry per encoded segment, in timeline order.
    segments: Vec<Segment>,
    /// Records encoded in `bytes`: whole segments, but for a partial
    /// last one once sealed.
    encoded: usize,
    /// The newest settled records, decoded, sorted by
    /// `(tick, gtid, seq, rank)`.
    tail: Vec<RankedEvent>,
    /// Tail length that triggers the next spill: twice what the tail
    /// held after the last spill or reopen, and at least twice the
    /// floor.
    spill_at: usize,
    late_events: u64,
    /// The whole timeline decoded, built by the first read after a
    /// settle; a settle drops it.
    view: OnceLock<Vec<RankedEvent>>,
    /// Built by the first rank or region query after a settle; a settle
    /// drops it.
    index: OnceLock<QueryIndex>,
    /// Segments encoded, and segments reopened (for tests).
    #[cfg(test)]
    spilled: u64,
    #[cfg(test)]
    reopened: u64,
}

/// One encoded segment's entry in the table.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The key of its last record: a run whose first key is below it
    /// reaches into the segment.
    last: RankedKey,
    /// Where its bytes start in `FleetStore::bytes`.
    offset: usize,
}

/// Where each rank's and each region's records sit in the timeline.
#[derive(Debug)]
struct QueryIndex {
    ranks: Positions,
    regions: Positions,
}

/// The ascending timeline positions of each key's records: key `k`'s
/// dense ID is `ids[k]`, and its positions are
/// `positions[span.0..span.1]` for `span = spans[id]`. Keys come from
/// the wire (a rank is the `u64` of a peer's HELLO), so they are hashed,
/// never used as an index: a key costs one entry whatever its value.
#[derive(Debug)]
struct Positions {
    ids: HashMap<u64, u32>,
    spans: Vec<(u32, u32)>,
    positions: Vec<u32>,
}

impl Positions {
    /// Counting sort of the positions of `settled` by `key`, at one hash
    /// lookup per record at most: a first pass gives each record its
    /// key's dense ID (a record whose key is its predecessor's reuses
    /// the ID without a lookup) and counts each ID; the second places
    /// positions by ID alone.
    fn build(settled: &[RankedEvent], key: impl Fn(&RankedEvent) -> u64) -> Positions {
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut id_of = Vec::with_capacity(settled.len());
        let mut last: Option<(u64, u32)> = None;
        for e in settled {
            let k = key(e);
            let id = match last {
                Some((prev, id)) if prev == k => id,
                _ => {
                    let fresh = spans.len() as u32;
                    let id = *ids.entry(k).or_insert(fresh);
                    if id == fresh {
                        spans.push((0, 0));
                    }
                    last = Some((k, id));
                    id
                }
            };
            spans[id as usize].1 += 1;
            id_of.push(id);
        }
        // Lay the keys out in ID order; `span.1` becomes its key's write
        // cursor, and ends at the key's end.
        let mut at = 0;
        for span in &mut spans {
            let count = span.1;
            *span = (at, at);
            at += count;
        }
        let mut positions = vec![0; settled.len()];
        for (i, &id) in id_of.iter().enumerate() {
            let span = &mut spans[id as usize];
            positions[span.1 as usize] = i as u32;
            span.1 += 1;
        }
        Positions {
            ids,
            spans,
            positions,
        }
    }

    /// `key`'s positions, ascending; empty for a key with no records.
    fn of(&self, key: u64) -> &[u32] {
        self.ids.get(&key).map_or(&[], |&id| {
            let (start, end) = self.spans[id as usize];
            &self.positions[start as usize..end as usize]
        })
    }
}

impl FleetStore {
    /// An empty store.
    pub fn new() -> FleetStore {
        FleetStore::default()
    }

    /// The last settled key.
    pub(crate) fn frontier(&self) -> Option<RankedKey> {
        let last_encoded = || self.segments.last().map(|s| s.last);
        self.tail.last().map(RankedEvent::key).or_else(last_encoded)
    }

    /// Settle one key-sorted run. Records of the run below `frontier` (the
    /// one read before the flush) are counted late; the run is merged in
    /// at sorted position either way.
    pub(crate) fn settle_run(&mut self, run: &[RankedEvent], frontier: Option<RankedKey>) {
        let Some(first) = run.first() else {
            return;
        };
        if let Some(frontier) = frontier {
            self.late_events += run.partition_point(|e| e.key() < frontier) as u64;
        }
        // The segments holding a key above the run's first, and a sealed
        // store's partial last segment, which new segments cannot follow.
        let mut reach = self.segments.partition_point(|s| s.last <= first.key());
        if !self.encoded.is_multiple_of(TIMELINE_SEGMENT) {
            reach = reach.min(self.segments.len() - 1);
        }
        if reach < self.segments.len() {
            self.reopen(reach);
        }
        merge_run(&mut self.tail, 0, run);
        if self.tail.len() >= self.spill_at.max(2 * TAIL_FLOOR) {
            let spill = (self.tail.len() - TAIL_FLOOR) / TIMELINE_SEGMENT * TIMELINE_SEGMENT;
            self.encode_tail(spill);
            self.spill_at = 2 * self.tail.len();
        }
        self.view.take();
        self.index.take();
    }

    /// Decode segments `from..` back in front of the tail and drop their
    /// bytes and table entries.
    fn reopen(&mut self, from: usize) {
        let offset = self.segments[from].offset;
        let records = self.encoded - from * TIMELINE_SEGMENT;
        decode_segments(&self.bytes[offset..], records, &mut self.tail)
            .expect("the store decodes the segments it encoded");
        self.tail.rotate_right(records);
        self.spill_at = 2 * self.tail.len();
        self.bytes.truncate(offset);
        self.segments.truncate(from);
        self.encoded = from * TIMELINE_SEGMENT;
        #[cfg(test)]
        {
            self.reopened += records.div_ceil(TIMELINE_SEGMENT) as u64;
        }
    }

    /// Encode the tail's oldest `records` (whole segments, or the whole
    /// tail) and drop them from it.
    fn encode_tail(&mut self, records: usize) {
        if records == 0 {
            return;
        }
        let segments = records.div_ceil(TIMELINE_SEGMENT);
        self.reserve(segments);
        for segment in self.tail[..records].chunks(TIMELINE_SEGMENT) {
            let last = segment[segment.len() - 1].key();
            self.segments.push(Segment {
                last,
                offset: self.bytes.len(),
            });
            encode_segments(&mut self.bytes, segment);
        }
        self.encoded += records;
        self.tail.drain(..records);
        #[cfg(test)]
        {
            self.spilled += segments as u64;
        }
    }

    /// Make room for `segments` more segments. When the bytes might not
    /// hold them at the density encoded so far (at the worst case before
    /// anything is encoded), plus the worst case of one segment that the
    /// encoder checks for, reserve them for twice the timeline, and the
    /// table for as many segments as the bytes can then hold: the two
    /// grow at the same moment, each at least doubling.
    fn reserve(&mut self, segments: usize) {
        let per_record = match self.encoded {
            0 => MAX_TIMELINE_RECORD_BYTES,
            n => self.bytes.len().div_ceil(n),
        };
        let need = (segments * per_record + MAX_TIMELINE_RECORD_BYTES) * TIMELINE_SEGMENT;
        if self.bytes.capacity() - self.bytes.len() >= need {
            return;
        }
        let twice = 2 * self.len() * per_record;
        let room = match self.encoded {
            0 => need,
            _ => need.max(twice.saturating_sub(self.bytes.len())),
        };
        self.bytes.reserve(room);
        let table = self.bytes.capacity() / (TIMELINE_SEGMENT * MIN_TIMELINE_RECORD_BYTES) + 1;
        self.segments
            .reserve(table.saturating_sub(self.segments.len()));
    }

    /// Encode the whole tail, its last segment partial if need be, and
    /// free it: the timeline is then its segment bytes alone, and
    /// [`export`](Self::export) copies them. The daemon seals its store
    /// when it finishes; a later settle reopens the partial segment.
    pub(crate) fn seal(&mut self) {
        self.encode_tail(self.tail.len());
        self.tail = Vec::new();
    }

    /// The merged timeline, in `(tick, gtid, seq, rank)` order, decoded
    /// once per settle.
    pub fn records(&self) -> &[RankedEvent] {
        self.view.get_or_init(|| {
            let mut all = Vec::with_capacity(self.len());
            decode_segments(&self.bytes, self.encoded, &mut all)
                .expect("the store decodes the segments it encoded");
            all.extend_from_slice(&self.tail);
            all
        })
    }

    /// Settled record count.
    pub fn len(&self) -> usize {
        self.encoded + self.tail.len()
    }

    /// Whether nothing has settled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records settled below the frontier as it stood before their flush
    /// (observable reordering, not loss: they are in the timeline).
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Records with `lo <= tick <= hi`, located by binary search.
    pub fn time_range(&self, lo: u64, hi: u64) -> Vec<RankedEvent> {
        let settled = self.records();
        let start = settled.partition_point(|e| e.record.tick < lo);
        let end = settled.partition_point(|e| e.record.tick <= hi);
        settled[start..end].to_vec()
    }

    /// One rank's records, in timeline order, copied out through the
    /// query index (built here if a settle dropped it: one pass over the
    /// timeline, shared with [`for_region`](Self::for_region)).
    pub fn for_rank(&self, rank: usize) -> Vec<RankedEvent> {
        self.gather(self.index().ranks.of(rank as u64))
    }

    /// One parallel region's records, in timeline order, copied out
    /// through the query index (built here if a settle dropped it).
    pub fn for_region(&self, region_id: u64) -> Vec<RankedEvent> {
        self.gather(self.index().regions.of(region_id))
    }

    fn index(&self) -> &QueryIndex {
        self.index.get_or_init(|| {
            let settled = self.records();
            assert!(
                u32::try_from(settled.len()).is_ok(),
                "the query index holds positions as u32"
            );
            QueryIndex {
                ranks: Positions::build(settled, |e| e.rank as u64),
                regions: Positions::build(settled, |e| e.record.region_id),
            }
        })
    }

    /// The records at `positions`, in their order.
    fn gather(&self, positions: &[u32]) -> Vec<RankedEvent> {
        let settled = self.records();
        let mut hits = Vec::with_capacity(positions.len());
        hits.extend(positions.iter().map(|&i| settled[i as usize]));
        hits
    }

    /// Canonical export of the whole timeline (see [`timeline_bytes`]):
    /// the head, a copy of the encoded segments, and the tail's records
    /// encoded after them (none once sealed).
    pub fn export(&self) -> Vec<u8> {
        let head = TIMELINE_MAGIC.len() + 10; // magic and count varint
        let tail = self.tail.len() * MAX_TIMELINE_RECORD_BYTES;
        let mut out = Vec::with_capacity(head + self.bytes.len() + tail);
        put_timeline_head(&mut out, self.len());
        out.extend_from_slice(&self.bytes);
        encode_segments(&mut out, &self.tail);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_core::event::Event;
    use ora_trace::TraceEvent;

    fn ev(tick: u64, gtid: usize, seq: u64, rank: usize) -> RankedEvent {
        RankedEvent {
            rank,
            record: TraceEvent {
                tick,
                gtid,
                seq,
                event: Event::Fork,
                region_id: tick / 10,
                wait_id: 0,
            },
        }
    }

    #[test]
    fn late_records_are_counted_and_merged_in_order() {
        let mut store = FleetStore::new();
        store.settle_run(&[ev(10, 0, 0, 0), ev(20, 0, 1, 0)], store.frontier());
        assert_eq!(store.late_events(), 0);
        // Two below the frontier, one at it (same tick, later rank),
        // one above.
        let run = [
            ev(5, 1, 0, 1),
            ev(15, 1, 1, 1),
            ev(20, 0, 1, 1),
            ev(30, 1, 2, 1),
        ];
        store.settle_run(&run, store.frontier());
        assert_eq!(store.late_events(), 2);
        assert_eq!(store.len(), 6);
        let ticks: Vec<u64> = store.records().iter().map(|e| e.record.tick).collect();
        assert_eq!(ticks, vec![5, 10, 15, 20, 20, 30]);
        // A run wholly below the frontier, and an empty one.
        store.settle_run(&[ev(1, 0, 0, 2), ev(2, 0, 1, 2)], store.frontier());
        store.settle_run(&[], store.frontier());
        assert_eq!(store.late_events(), 4);
        let keys: Vec<_> = store.records().iter().map(RankedEvent::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn queries_slice_the_sorted_timeline() {
        let mut store = FleetStore::new();
        let run: Vec<_> = (0..50u64)
            .map(|i| ev(i, (i % 3) as usize, i, (i % 2) as usize))
            .collect();
        store.settle_run(&run, store.frontier());
        assert_eq!(store.time_range(10, 19).len(), 10);
        assert_eq!(store.for_rank(0).len(), 25);
        assert_eq!(store.for_region(2).len(), 10);
        assert!(store.time_range(100, 200).is_empty());
    }

    /// What a scan would answer: the timeline filtered by `keep`.
    fn scan(store: &FleetStore, keep: impl Fn(&RankedEvent) -> bool) -> Vec<RankedEvent> {
        store.records().iter().copied().filter(keep).collect()
    }

    /// Every rank and region query equals a filter over the timeline.
    fn assert_queries_match_scans(store: &FleetStore) {
        for rank in 0..4 {
            assert_eq!(store.for_rank(rank), scan(store, |e| e.rank == rank));
        }
        for region in 0..8 {
            assert_eq!(
                store.for_region(region),
                scan(store, |e| e.record.region_id == region)
            );
        }
    }

    #[test]
    fn a_settle_after_a_query_is_seen_by_the_next_query() {
        let mut store = FleetStore::new();
        let run: Vec<_> = (0..40u64)
            .map(|i| ev(2 * i, (i % 3) as usize, i, (i % 2) as usize))
            .collect();
        store.settle_run(&run, store.frontier());
        assert_queries_match_scans(&store);
        // A late run lands in the middle of the timeline: every position
        // above its first record moves, and rank 3 appears.
        let late: Vec<_> = (0..20u64)
            .map(|i| ev(2 * i + 21, 5, i, if i % 2 == 0 { 1 } else { 3 }))
            .collect();
        store.settle_run(&late, store.frontier());
        assert_eq!(store.late_events(), 20);
        assert_queries_match_scans(&store);
        assert_eq!(store.for_rank(3).len(), 10);
    }

    #[test]
    fn absent_ranks_and_regions_have_no_records() {
        let mut store = FleetStore::new();
        assert!(store.for_rank(0).is_empty());
        assert!(store.for_region(0).is_empty());
        let run: Vec<_> = (0..30u64).map(|i| ev(i, 0, i, 1)).collect();
        store.settle_run(&run, store.frontier());
        assert!(store.for_rank(0).is_empty());
        assert!(store.for_rank(usize::MAX).is_empty());
        assert!(store.for_region(3).is_empty());
        assert!(store.for_region(u64::MAX).is_empty());
        assert_eq!(store.for_rank(1).len(), 30);
    }

    /// A rank id is whatever a peer's HELLO said: a huge one costs the
    /// index one entry, not a table as long as the id.
    #[test]
    fn a_huge_rank_id_costs_one_index_entry() {
        let mut store = FleetStore::new();
        let huge = 1usize << 40;
        let run: Vec<_> = (0..10u64)
            .map(|i| ev(i, 0, i, if i < 4 { huge } else { 7 }))
            .collect();
        store.settle_run(&run, store.frontier());
        assert_eq!(store.for_rank(huge), scan(&store, |e| e.rank == huge));
        assert_eq!(store.for_rank(huge).len(), 4);
        let index = store.index.get().expect("the query built the index");
        assert_eq!(index.ranks.spans.len(), 2);
        assert_eq!(index.ranks.positions.len(), 10);
        assert!(index.ranks.positions.capacity() <= 10);
    }

    /// The segments of `store` that a run starting at `first` reaches
    /// into, counted off `reference` (the same timeline as a plain
    /// `Vec`): those whose last record's key is above `first`, and a
    /// sealed store's partial last segment.
    fn reach(store: &FleetStore, reference: &[RankedEvent], first: RankedKey) -> u64 {
        let ends = (1..=store.segments.len()).map(|j| (j * TIMELINE_SEGMENT).min(store.encoded));
        let above = ends.filter(|&end| reference[end - 1].key() > first).count();
        let partial = !store.encoded.is_multiple_of(TIMELINE_SEGMENT);
        above.max(usize::from(partial)) as u64
    }

    /// Seeded interleaved ranks, with late runs that land in the tail,
    /// runs that reach below it into encoded segments, runs whose first
    /// key equals a segment's last key, and the odd seal, settled into a
    /// store beside a plain `Vec` that `merge_run` drives. After every
    /// settle the store must equal the `Vec` in records, length,
    /// frontier and late count, export what `timeline_bytes` encodes of
    /// its records, and have reopened exactly the segments the run
    /// reached into.
    #[test]
    fn settles_match_a_plain_vec_through_spills_reopens_and_seals() {
        use ora_core::testutil::XorShift64;
        let mut rng = XorShift64::new(0xf1ee_0044);
        let (mut spilled, mut reopened, mut seals) = (0, 0, 0);
        for _case in 0..2 {
            let mut store = FleetStore::new();
            let mut reference: Vec<RankedEvent> = Vec::new();
            let mut late = 0;
            let mut clock = [1_000u64; 4];
            let mut seq = [0u64; 4];
            for _step in 0..110 {
                let rank = rng.below(4) as usize;
                let top = reference.last().map_or(0, |e| e.record.tick);
                let (start, len) = match rng.below(20) {
                    // Late, into the tail.
                    0..=2 => (top.saturating_sub(rng.below(3_000)), 1 + rng.below(40)),
                    // Late, anywhere: usually below the tail.
                    3..=5 => (rng.below(top + 1), 1 + rng.below(40)),
                    // Advancing.
                    _ => (clock[rank], 1 + rng.below(1_600)),
                };
                let mut tick = start;
                let mut run: Vec<RankedEvent> = (0..len)
                    .map(|_| {
                        tick += rng.below(3);
                        seq[rank] += 1;
                        ev(tick, rng.below(3) as usize, seq[rank], rank)
                    })
                    .collect();
                clock[rank] = clock[rank].max(tick);
                run.sort_by_key(RankedEvent::key);
                if !store.segments.is_empty() && rng.chance(1, 8) {
                    // Starts exactly at a segment's last key.
                    let j = rng.below(store.segments.len() as u64) as usize;
                    let end = ((j + 1) * TIMELINE_SEGMENT).min(store.encoded);
                    let edge = reference[end - 1];
                    run.retain(|e| e.key() > edge.key());
                    run.insert(0, edge);
                }
                let frontier = reference.last().map(RankedEvent::key);
                if let Some(frontier) = frontier {
                    late += run.partition_point(|e| e.key() < frontier) as u64;
                }
                let expected_reach = reach(&store, &reference, run[0].key());
                let before = store.reopened;
                merge_run(&mut reference, 0, &run);
                store.settle_run(&run, store.frontier());
                assert_eq!(store.reopened - before, expected_reach, "segments reopened");
                if rng.chance(1, 25) {
                    store.seal();
                    seals += 1;
                }
                assert_eq!(store.len(), reference.len());
                let differ = store
                    .records()
                    .iter()
                    .zip(&reference)
                    .position(|(a, b)| a != b);
                assert_eq!(differ, None, "first record that differs");
                assert_eq!(store.frontier(), reference.last().map(RankedEvent::key));
                assert_eq!(store.late_events(), late);
                assert_eq!(store.export(), timeline_bytes(store.records()));
            }
            spilled += store.spilled;
            reopened += store.reopened;
        }
        eprintln!("{spilled} segments spilled, {reopened} reopened, {seals} seals");
        assert!(spilled > 0 && reopened > 0 && seals > 0);
    }

    #[test]
    fn export_is_deterministic_and_magic_prefixed() {
        let mut a = FleetStore::new();
        let mut b = FleetStore::new();
        let run: Vec<_> = (0..20u64).map(|i| ev(i, 0, i, 0)).collect();
        a.settle_run(&run, a.frontier());
        b.settle_run(&run, b.frontier());
        assert_eq!(a.export(), b.export());
        assert_eq!(&a.export()[..6], TIMELINE_MAGIC);
        assert_eq!(a.export(), timeline_bytes(a.records()));
    }
}
