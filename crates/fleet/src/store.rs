//! The merged fleet timeline: queryable, exportable, byte-stable.
//!
//! The daemon settles key-sorted **runs** here — each lane's prefix a
//! flush released, already in `(tick, gtid, seq, rank)` order — as the
//! watermark advances. The watermark is a *performance* frontier, not a
//! correctness one: a record can legally arrive below it (a thread can
//! stall between reading the clock and committing to its ring, and one
//! rank's ring lanes cover the same tick window, so a later chunk
//! routinely carries earlier ticks). A run is therefore merged into
//! the settled timeline from the back with `ora_trace::merge_run`, the
//! same kernel the offline reader's lane cursors merge chunks with: it
//! costs the run plus the settled tail it displaces, never more, and
//! the run's records below the frontier as the flush found it are
//! counted late.
//! The store is **always** fully sorted and [`FleetStore::export`] is
//! byte-identical to offline `merge_ranks` over the same data,
//! regardless of arrival timing.
//!
//! [`FleetStore::for_rank`] and [`FleetStore::for_region`] answer in
//! their hits, not in the timeline: the first of them after a settle
//! builds a query index (each rank's and each region's ascending
//! positions in the timeline, as `u32`s in one table per key kind), and
//! each query copies its hits out through it. A settle only drops the
//! index, so ingest pays nothing for it; a caller that alternates
//! settles and queries pays one O(n) build per query, as a scan would.

use std::collections::HashMap;
use std::sync::OnceLock;

use ora_trace::{merge_run, RankedEvent, RankedKey};

/// Magic starting every exported timeline (defined next to the decoder
/// so encode and decode cannot drift).
pub use ora_trace::analyze::TIMELINE_MAGIC;

/// Canonical byte encoding of a merged timeline: magic, record count,
/// then each record's fields as plain varints in key order. Both the
/// daemon's [`FleetStore::export`] and the offline `merge_ranks` path
/// encode through this one function, which is what makes "byte
/// identical" a meaningful equality. (The codec lives in
/// `ora_trace::analyze` so `trace analyze` can consume exports without
/// a dependency cycle.)
pub use ora_trace::analyze::timeline_bytes;

/// The aggregator's merged, totally-ordered event store.
#[derive(Debug, Default)]
pub struct FleetStore {
    /// Settled records, sorted by `(tick, gtid, seq, rank)`.
    settled: Vec<RankedEvent>,
    late_events: u64,
    /// Built by the first rank or region query after a settle; a settle
    /// drops it.
    index: OnceLock<QueryIndex>,
}

/// Where each rank's and each region's records sit in the timeline.
#[derive(Debug)]
struct QueryIndex {
    ranks: Positions,
    regions: Positions,
}

/// The ascending timeline positions of each key's records: key `k`'s
/// are `positions[span.0..span.1]` for `span = spans[k]`. Keys come
/// from the wire (a rank is the `u64` of a peer's HELLO), so they are
/// hashed, never used as an index: a key costs one entry whatever its
/// value.
#[derive(Debug)]
struct Positions {
    spans: HashMap<u64, (u32, u32)>,
    positions: Vec<u32>,
}

impl Positions {
    /// Counting sort of the positions of `settled` by `key`.
    fn build(settled: &[RankedEvent], key: impl Fn(&RankedEvent) -> u64) -> Positions {
        let mut spans: HashMap<u64, (u32, u32)> = HashMap::new();
        for e in settled {
            spans.entry(key(e)).or_default().1 += 1;
        }
        // Lay the keys out in any order; `span.1` becomes its key's
        // write cursor, and ends at the key's end.
        let mut at = 0;
        for span in spans.values_mut() {
            let count = span.1;
            *span = (at, at);
            at += count;
        }
        let mut positions = vec![0; settled.len()];
        for (i, e) in settled.iter().enumerate() {
            let span = spans.get_mut(&key(e)).expect("every key was counted");
            positions[span.1 as usize] = i as u32;
            span.1 += 1;
        }
        Positions { spans, positions }
    }

    /// `key`'s positions, ascending; empty for a key with no records.
    fn of(&self, key: u64) -> &[u32] {
        self.spans.get(&key).map_or(&[], |&(start, end)| {
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
        self.settled.last().map(RankedEvent::key)
    }

    /// Settle one key-sorted run. Records of the run below `frontier`
    /// (a [`frontier`](Self::frontier) taken before the flush) are
    /// counted late; the run is merged in at sorted position either way.
    pub(crate) fn settle_run(&mut self, run: &[RankedEvent], frontier: Option<RankedKey>) {
        if let Some(frontier) = frontier {
            self.late_events += run.partition_point(|e| e.key() < frontier) as u64;
        }
        merge_run(&mut self.settled, 0, run);
        self.index.take();
    }

    /// The merged timeline, in `(tick, gtid, seq, rank)` order.
    pub fn records(&self) -> &[RankedEvent] {
        &self.settled
    }

    /// Settled record count.
    pub fn len(&self) -> usize {
        self.settled.len()
    }

    /// Whether nothing has settled.
    pub fn is_empty(&self) -> bool {
        self.settled.is_empty()
    }

    /// Records that arrived below the watermark frontier (observable
    /// reordering, not loss — they are in the timeline regardless).
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Records with `lo <= tick <= hi`, located by binary search.
    pub fn time_range(&self, lo: u64, hi: u64) -> Vec<RankedEvent> {
        let start = self.settled.partition_point(|e| e.record.tick < lo);
        let end = self.settled.partition_point(|e| e.record.tick <= hi);
        self.settled[start..end].to_vec()
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
            assert!(
                u32::try_from(self.settled.len()).is_ok(),
                "the query index holds positions as u32"
            );
            QueryIndex {
                ranks: Positions::build(&self.settled, |e| e.rank as u64),
                regions: Positions::build(&self.settled, |e| e.record.region_id),
            }
        })
    }

    /// The records at `positions`, in their order.
    fn gather(&self, positions: &[u32]) -> Vec<RankedEvent> {
        let mut hits = Vec::with_capacity(positions.len());
        hits.extend(positions.iter().map(|&i| self.settled[i as usize]));
        hits
    }

    /// Canonical export of the whole timeline (see [`timeline_bytes`]).
    pub fn export(&self) -> Vec<u8> {
        timeline_bytes(&self.settled)
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
