//! End-to-end accounting properties of the trace pipeline.
//!
//! Two families of invariants live here:
//!
//! 1. **Multi-rank merge order** — [`ora_trace::merge_ranks`] keys the
//!    merge `(tick, gtid, seq, rank)`: the single-file merge key with
//!    the rank index appended as the *final* tie-break. A regression
//!    here once keyed the rank ahead of `gtid`, which reordered
//!    equal-tick events of different threads by source file and made
//!    merged timelines disagree with the per-file order.
//! 2. **Drop accounting reconciliation** — for every drop policy, the
//!    records the producers attempted must be fully accounted for:
//!    `attempted == drained + dropped`, per lane and in total, and the
//!    footer persisted in the file must repeat the live
//!    [`RecordingStats`] exactly. This is the contract the collector's
//!    `CollectionSummary` and the fuzzer's trace-accounting diff lean
//!    on.

use ora_core::testutil::XorShift64;
use ora_trace::{
    merge_ranks, DropPolicy, MemorySink, RawRecord, Recorder, RecordingStats, TraceConfig,
    TraceReader,
};

/// A paused-drainer config: one final sweep in `finish` drains
/// everything, so the accounting is deterministic.
fn quiet_config(lanes: usize, capacity_per_lane: usize, policy: DropPolicy) -> TraceConfig {
    TraceConfig {
        lanes,
        capacity_per_lane,
        policy,
        epoch: std::time::Duration::from_secs(3600),
        ..TraceConfig::default()
    }
}

/// Record `batch` through a fresh ring→drain→encode pipeline and return
/// the encoded bytes plus the recording stats.
fn record_batch(batch: &[RawRecord], cfg: TraceConfig) -> (Vec<u8>, RecordingStats) {
    let recorder = Recorder::start(cfg, MemorySink::new()).expect("start recorder");
    let rings = recorder.rings();
    for r in batch {
        rings.record(*r);
    }
    let (sink, stats) = recorder.finish().expect("finish recorder");
    (sink.into_bytes(), stats)
}

fn rec(tick: u64, gtid: u32, region_id: u64) -> RawRecord {
    RawRecord {
        tick,
        gtid,
        event: 1, // Fork
        region_id,
        ..RawRecord::default()
    }
}

// ---------------------------------------------------------------------
// merge_ranks: rank is the FINAL tie-break component.
// ---------------------------------------------------------------------

/// Two ranks whose ticks collide but whose gtids differ: the merged
/// stream must follow the documented `(tick, gtid, seq, rank)` order —
/// gtid decides before rank. The pre-fix key `(tick, rank, gtid, seq)`
/// put every rank-0 record ahead of rank 1 at equal ticks, so this
/// fails on the old code.
#[test]
fn rank_is_the_final_tie_break() {
    // Rank 0 records only gtid 1, rank 1 records only gtid 0, all at
    // identical ticks.
    let rank0: Vec<RawRecord> = (0..16).map(|i| rec(100 + (i / 4), 1, i)).collect();
    let rank1: Vec<RawRecord> = (0..16).map(|i| rec(100 + (i / 4), 0, 100 + i)).collect();
    let (a, _) = record_batch(&rank0, quiet_config(4, 64, DropPolicy::Newest));
    let (b, _) = record_batch(&rank1, quiet_config(4, 64, DropPolicy::Newest));
    let merged = merge_ranks(&[
        TraceReader::from_bytes(a).unwrap(),
        TraceReader::from_bytes(b).unwrap(),
    ])
    .unwrap();
    assert_eq!(merged.len(), 32);
    // The whole stream is sorted by the documented key.
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
        assert!(ka <= kb, "merge order violated: {ka:?} then {kb:?}");
    }
    // At every colliding tick, rank 1's gtid-0 records precede rank 0's
    // gtid-1 records: gtid outranks rank.
    for tick in 100..104 {
        let at_tick: Vec<_> = merged.iter().filter(|e| e.record.tick == tick).collect();
        assert_eq!(at_tick.len(), 8);
        assert!(
            at_tick[..4]
                .iter()
                .all(|e| e.rank == 1 && e.record.gtid == 0),
            "gtid 0 (rank 1) must come first at tick {tick}"
        );
        assert!(
            at_tick[4..]
                .iter()
                .all(|e| e.rank == 0 && e.record.gtid == 1),
            "gtid 1 (rank 0) must come last at tick {tick}"
        );
    }
}

/// Merging the same pair of traces repeatedly yields the identical
/// sequence every time — byte-stable timelines.
#[test]
fn repeated_rank_merges_are_identical() {
    let mut rng = XorShift64::new(0x5eed_0001);
    let mut batches = Vec::new();
    for _ in 0..3 {
        let batch: Vec<RawRecord> = (0..200)
            .map(|i| {
                rec(
                    1_000 + rng.below(8), // heavy tick collisions
                    rng.below(4) as u32,  // few threads
                    i,
                )
            })
            .collect();
        batches.push(record_batch(&batch, quiet_config(2, 512, DropPolicy::Newest)).0);
    }
    let readers = || -> Vec<TraceReader> {
        batches
            .iter()
            .map(|b| TraceReader::from_bytes(b.clone()).unwrap())
            .collect()
    };
    let first = merge_ranks(&readers()).unwrap();
    assert_eq!(first.len(), 600);
    for _ in 0..5 {
        assert_eq!(merge_ranks(&readers()).unwrap(), first);
    }
    // And the stream respects the documented key end to end.
    for w in first.windows(2) {
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
        assert!(ka <= kb);
    }
}

// ---------------------------------------------------------------------
// Drop accounting: attempted == drained + dropped, everywhere.
// ---------------------------------------------------------------------

/// Check one (policy, lanes, capacity, load) configuration: the live
/// stats, the persisted footer, and the decodable records must all
/// agree, per lane and in total.
fn reconcile(policy: DropPolicy, lanes: usize, capacity: usize, attempts: &[RawRecord]) {
    let (bytes, stats) = record_batch(attempts, quiet_config(lanes, capacity, policy));
    let reader = TraceReader::from_bytes(bytes).unwrap();
    let footer = reader.footer().unwrap();

    // Every attempted record is either drained or counted dropped.
    assert_eq!(
        attempts.len() as u64,
        stats.drained() + stats.dropped(),
        "{policy:?}: attempted != drained + dropped"
    );
    // The footer repeats the live stats exactly — no double count when
    // the same loss is read back from the file.
    assert_eq!(footer.total_drained(), stats.drained());
    assert_eq!(footer.total_dropped(), stats.dropped());
    assert_eq!(footer.lanes.len(), stats.lanes.len());
    for (live, persisted) in stats.lanes.iter().zip(&footer.lanes) {
        assert_eq!(live, persisted, "lane stats diverge live vs persisted");
        // Per-lane writer's view: under Newest, `written` counts only
        // surviving commits; under Oldest every commit is counted and
        // reclaimed records move to dropped_oldest.
        match policy {
            DropPolicy::Newest => assert_eq!(live.written, live.drained),
            DropPolicy::Oldest => assert_eq!(live.written, live.drained + live.dropped_oldest),
            DropPolicy::Block => {}
        }
    }
    // What decodes is exactly what drained.
    assert_eq!(reader.records().unwrap().len() as u64, stats.drained());
    let decoded_events: u64 = reader.event_counts().unwrap().iter().sum();
    assert_eq!(decoded_events, stats.drained());
}

#[test]
fn newest_policy_accounting_reconciles() {
    let mut rng = XorShift64::new(0xacc0);
    for &(lanes, cap, n) in &[(1usize, 16usize, 100usize), (4, 8, 257), (3, 32, 96)] {
        let batch: Vec<RawRecord> = (0..n as u64)
            .map(|i| rec(i, rng.below(8) as u32, i))
            .collect();
        reconcile(DropPolicy::Newest, lanes, cap, &batch);
    }
}

#[test]
fn oldest_policy_accounting_reconciles() {
    let mut rng = XorShift64::new(0xacc1);
    for &(lanes, cap, n) in &[(1usize, 16usize, 100usize), (4, 8, 257), (3, 32, 96)] {
        let batch: Vec<RawRecord> = (0..n as u64)
            .map(|i| rec(i, rng.below(8) as u32, i))
            .collect();
        reconcile(DropPolicy::Oldest, lanes, cap, &batch);
    }
}

/// Under drop-oldest the survivors are the *newest* records of each
/// lane, still in order — and the loss is visible, not silent.
#[test]
fn oldest_policy_keeps_newest_records_and_counts_loss() {
    let batch: Vec<RawRecord> = (0..100).map(|i| rec(i, 0, i)).collect();
    let (bytes, stats) = record_batch(&batch, quiet_config(1, 16, DropPolicy::Oldest));
    assert_eq!(stats.drained(), 16);
    assert_eq!(stats.dropped(), 84);
    let reader = TraceReader::from_bytes(bytes).unwrap();
    let ticks: Vec<u64> = reader.records().unwrap().iter().map(|r| r.tick).collect();
    assert_eq!(ticks, (84..100).collect::<Vec<u64>>());
}

// ---------------------------------------------------------------------
// Streaming merge: events() / merge_ranks_iter reproduce the
// materializing paths exactly.
// ---------------------------------------------------------------------

/// The lazy single-trace iterator yields exactly `records()`, in the
/// same order, across lane counts and heavy tick collisions (which
/// force the per-lane reorder buffer to hold multiple chunks).
#[test]
fn streaming_events_match_materialized_records() {
    let mut rng = XorShift64::new(0x57e4_0001);
    for &(lanes, cap) in &[(1usize, 512usize), (2, 512), (4, 512), (8, 512)] {
        let batch: Vec<RawRecord> = (0..300)
            .map(|i| rec(5_000 + rng.below(16), rng.below(8) as u32, i))
            .collect();
        let (bytes, stats) = record_batch(&batch, quiet_config(lanes, cap, DropPolicy::Newest));
        assert_eq!(stats.dropped(), 0);
        let reader = TraceReader::from_bytes(bytes).unwrap();
        let eager = reader.records().unwrap();
        let lazy: Vec<_> = reader
            .events()
            .collect::<Result<Vec<_>, _>>()
            .expect("streaming decode");
        assert_eq!(lazy, eager, "lanes={lanes}");
    }
}

/// The streaming multi-rank merge equals a full sort of every rank's
/// records by the documented `(tick, gtid, seq, rank)` key — the
/// reference the thin `merge_ranks` wrapper must keep matching.
#[test]
fn streaming_rank_merge_matches_full_sort() {
    let mut rng = XorShift64::new(0x57e4_0002);
    let mut batches = Vec::new();
    for _ in 0..4 {
        let batch: Vec<RawRecord> = (0..150)
            .map(|i| rec(2_000 + rng.below(8), rng.below(4) as u32, i))
            .collect();
        batches.push(record_batch(&batch, quiet_config(2, 512, DropPolicy::Newest)).0);
    }
    let readers: Vec<TraceReader> = batches
        .iter()
        .map(|b| TraceReader::from_bytes(b.clone()).unwrap())
        .collect();
    let mut reference: Vec<ora_trace::RankedEvent> = Vec::new();
    for (rank, r) in readers.iter().enumerate() {
        for record in r.records().unwrap() {
            reference.push(ora_trace::RankedEvent { rank, record });
        }
    }
    reference.sort_by_key(ora_trace::RankedEvent::key);
    let streamed: Vec<_> = ora_trace::merge_ranks_iter(&readers)
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(streamed, reference);
    assert_eq!(merge_ranks(&readers).unwrap(), reference);
}

/// The shared heap core pops in strict `(tick, gtid, seq, rank)` order
/// no matter the push order — the invariant the fleet daemon's
/// watermark merge leans on.
#[test]
fn rank_merge_heap_orders_by_full_key() {
    let mut rng = XorShift64::new(0x57e4_0003);
    let mut heap = ora_trace::RankMergeHeap::new();
    let mut keys = Vec::new();
    for i in 0..500u64 {
        let rank = rng.below(4) as usize;
        let ev = ora_trace::TraceEvent {
            tick: rng.below(32),
            gtid: rng.below(8) as usize,
            seq: i,
            event: ora_core::event::Event::Fork,
            region_id: 0,
            wait_id: 0,
        };
        keys.push((ev.tick, ev.gtid, ev.seq, rank));
        heap.push(rank, ev);
    }
    keys.sort_unstable();
    assert_eq!(heap.len(), 500);
    let mut popped = Vec::new();
    while let Some(k) = heap.peek_key() {
        let ev = heap.pop().unwrap();
        assert_eq!(ev.key(), k);
        popped.push(k);
    }
    assert!(heap.is_empty());
    assert_eq!(popped, keys);
}

/// A lossless run reconciles trivially under both lossy policies and
/// footer == stats holds with zero drops.
#[test]
fn lossless_runs_reconcile_with_zero_drops() {
    let batch: Vec<RawRecord> = (0..64).map(|i| rec(i, (i % 4) as u32, i)).collect();
    for policy in [DropPolicy::Newest, DropPolicy::Oldest] {
        let (bytes, stats) = record_batch(&batch, quiet_config(4, 64, policy));
        assert_eq!(stats.drained(), 64);
        assert_eq!(stats.dropped(), 0);
        let reader = TraceReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.dropped(), Some(0));
        assert_eq!(reader.record_count(), 64);
    }
}
