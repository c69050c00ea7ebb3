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

use ora_core::event::Event;
use ora_core::testutil::XorShift64;
use ora_trace::format;
use ora_trace::{
    merge_ranks, merge_run, pack_governor_decision, DropPolicy, MemorySink, RankedEvent, RawRecord,
    Recorder, RecordingStats, TraceConfig, TraceEvent, TraceReader, GOVERNOR_EVENT_CODE,
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
// The merge: every query equals a stable sort of the decoded events.
// ---------------------------------------------------------------------

/// The lazy single-trace iterator and `records()` both yield a stable
/// sort of the decoded events, across lane counts and heavy tick
/// collisions (which force the per-lane reorder buffer to hold multiple
/// chunks).
#[test]
fn streaming_events_match_materialized_records() {
    let mut rng = XorShift64::new(0x57e4_0001);
    for &(lanes, cap) in &[(1usize, 512usize), (2, 512), (4, 512), (8, 512)] {
        let batch: Vec<RawRecord> = (0..300)
            .map(|i| rec(5_000 + rng.below(16), rng.below(8) as u32, i))
            .collect();
        let (bytes, stats) = record_batch(&batch, quiet_config(lanes, cap, DropPolicy::Newest));
        assert_eq!(stats.dropped(), 0);
        let reference = sorted_records(&bytes);
        let reader = TraceReader::from_bytes(bytes).unwrap();
        let lazy: Vec<_> = reader
            .events()
            .collect::<Result<Vec<_>, _>>()
            .expect("streaming decode");
        assert_eq!(lazy, reference, "lanes={lanes}: events()");
        assert_eq!(reader.records().unwrap(), reference, "lanes={lanes}");
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

/// Every event of one rank's trace bytes as it decodes, chunk by chunk
/// in file order, through the format walker directly — independent of
/// the reader's cursors and merges. A salvaged trace ends at its torn
/// unit; governor decision records are skipped.
fn decoded_events(rank: usize, bytes: &[u8]) -> Vec<RankedEvent> {
    let mut out = Vec::new();
    for unit in format::units(bytes) {
        let Ok((_, format::Unit::Chunk(chunk))) = unit else {
            continue;
        };
        format::for_each_record(chunk.payload, chunk.count, |raw| {
            if raw.event != GOVERNOR_EVENT_CODE {
                let record = TraceEvent::from_raw(&raw)?;
                out.push(RankedEvent { rank, record });
            }
            Ok(())
        })
        .expect("chunk decodes");
    }
    out
}

/// One trace's decoded events, stably sorted by the merge key: what
/// every single-trace query must return before its filter.
fn sorted_records(bytes: &[u8]) -> Vec<TraceEvent> {
    let mut events = decoded_events(0, bytes);
    events.sort_by_key(RankedEvent::key);
    events.into_iter().map(|e| e.record).collect()
}

/// Both merges equal a stable sort by [`ora_trace::RankedKey`] of every
/// decoded event, on inputs built to stress the lane cursors' sorted
/// runs: two threads sharing a ring lane (chunks out of key order),
/// small chunks whose tick ranges overlap within a lane, a salvaged
/// rank (no footer, so no tick ranges) beside whole ones, ticks that
/// collide across ranks, and governor decision records interleaved
/// with the events. Per rank, every query equals that rank's share of
/// the sort, filtered: the chunks a query skips by its index entry
/// never hold a record it wants.
#[test]
fn both_merges_equal_a_stable_sort_of_every_decoded_event() {
    let mut rng = XorShift64::new(0x57e4_0004);
    for case in 0..24u64 {
        let ranks = 2 + rng.below(3) as usize;
        let salvaged = rng.below(ranks as u64) as usize;
        let mut files = Vec::new();
        for rank in 0..ranks {
            let cfg = TraceConfig {
                max_chunk_records: 4 + rng.below(29) as usize,
                ..quiet_config(1 + rng.below(3) as usize, 1024, DropPolicy::Newest)
            };
            let recorder = Recorder::start(cfg, MemorySink::new()).expect("start recorder");
            let rings = recorder.rings();
            for i in 0..300u64 {
                // A narrow tick window shared by every rank: collisions
                // across ranks and overlapping chunks within a lane.
                let tick = 7_000 + rng.below(24);
                let gtid = rng.below(5) as u32;
                if rng.below(16) == 0 {
                    rings.record(RawRecord {
                        tick,
                        gtid,
                        event: GOVERNOR_EVENT_CODE,
                        region_id: u64::from(Event::ThreadBeginExplicitBarrier as u32),
                        wait_id: pack_governor_decision(0, 2, 40_000),
                        ..RawRecord::default()
                    });
                }
                rings.record(rec(tick, gtid, i / 8));
            }
            let (sink, stats) = recorder.finish().expect("finish recorder");
            assert_eq!(stats.dropped(), 0);
            let mut bytes = sink.into_bytes();
            if rank == salvaged {
                bytes.truncate(bytes.len() - 3);
            }
            files.push(bytes);
        }
        let readers: Vec<TraceReader> = files
            .iter()
            .map(|b| TraceReader::from_bytes(b.clone()).unwrap())
            .collect();
        assert!(readers[salvaged].salvaged().is_some(), "case {case}");
        let mut reference: Vec<RankedEvent> = (files.iter().enumerate())
            .flat_map(|(rank, bytes)| decoded_events(rank, bytes))
            .collect();
        assert_eq!(reference.len(), 300 * ranks, "case {case}");
        reference.sort_by_key(RankedEvent::key);
        let streamed: Vec<_> = ora_trace::merge_ranks_iter(&readers)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(streamed, reference, "case {case}: merge_ranks_iter");
        assert_eq!(
            merge_ranks(&readers).unwrap(),
            reference,
            "case {case}: merge_ranks"
        );
        for (rank, reader) in readers.iter().enumerate() {
            let want = |keep: &dyn Fn(&TraceEvent) -> bool| -> Vec<TraceEvent> {
                (reference.iter())
                    .filter(|e| e.rank == rank && keep(&e.record))
                    .map(|e| e.record)
                    .collect()
            };
            let context = format!("case {case}, rank {rank}");
            assert_eq!(reader.records().unwrap(), want(&|_| true), "{context}");
            for (lo, hi) in [(7_000, 7_003), (7_008, 7_015), (7_020, 9_000)] {
                assert_eq!(
                    reader.time_range(lo, hi).unwrap(),
                    want(&|r| (lo..=hi).contains(&r.tick)),
                    "{context}: time_range({lo}, {hi})"
                );
            }
            for gtid in 0..5 {
                assert_eq!(
                    reader.for_thread(gtid).unwrap(),
                    want(&|r| r.gtid == gtid),
                    "{context}: for_thread({gtid})"
                );
            }
            for region in [0, 18, 37] {
                assert_eq!(
                    reader.for_region(region).unwrap(),
                    want(&|r| r.region_id == region),
                    "{context}: for_region({region})"
                );
            }
        }
    }
}

/// A lane whose chunks descend in tick — each lands below everything
/// buffered, which no recorder writes but a crafted file can — still
/// merges into key order, with its footer's tick ranges and without
/// them (salvaged), beside an ordinary rank. A lane cursor that kept
/// merging such chunks one by one would move its whole buffer per
/// chunk; past a budget it buffers the rest of the lane and sorts once.
#[test]
fn chunks_descending_in_tick_still_merge_in_key_order() {
    let (chunks, per) = (400u64, 3u64);
    let mut bytes = Vec::new();
    format::encode_header(&mut bytes);
    let mut metas = Vec::new();
    for c in 0..chunks {
        let records: Vec<RawRecord> = (0..per)
            .map(|i| RawRecord {
                seq: c * per + i,
                ..rec((chunks - c) * 10 + i, (i % 2) as u32, c)
            })
            .collect();
        let offset = bytes.len() as u64;
        metas.push(format::encode_chunk(&mut bytes, offset, 0, &records));
    }
    let salvaged = bytes.clone();
    let lanes = vec![ora_trace::LaneStats {
        written: chunks * per,
        drained: chunks * per,
        ..Default::default()
    }];
    let footer = ora_trace::Footer {
        lanes,
        chunks: metas,
    };
    format::encode_footer(&mut bytes, &footer);
    let ordinary: Vec<RawRecord> = (0..300).map(|i| rec(5 + i * 13, 0, i)).collect();
    let (ordinary, _) = record_batch(&ordinary, quiet_config(1, 512, DropPolicy::Newest));
    for file in [bytes, salvaged] {
        let files = [file, ordinary.clone()];
        let readers: Vec<TraceReader> = files
            .iter()
            .map(|b| TraceReader::from_bytes(b.clone()).unwrap())
            .collect();
        let mut reference: Vec<RankedEvent> = (files.iter().enumerate())
            .flat_map(|(rank, bytes)| decoded_events(rank, bytes))
            .collect();
        reference.sort_by_key(RankedEvent::key);
        assert_eq!(reference.len() as u64, chunks * per + 300);
        assert_eq!(merge_ranks(&readers).unwrap(), reference);
        let one: Vec<TraceEvent> = readers[0].events().map(Result::unwrap).collect();
        assert_eq!(one, sorted_records(&files[0]));
    }
}

/// A footer that lies about a chunk's tick range, re-sealed so the file
/// opens: the lane cursors release records on the strength of
/// `min_tick`, so a chunk claimed to start later than it does would
/// come out of the merge behind records it precedes. Every query that
/// decodes the chunk fails as malformed instead, and a query that skips
/// it by the lie is not a merge to reorder.
#[test]
fn a_footer_lying_about_a_tick_range_fails_the_merge() {
    let mut bytes = Vec::new();
    format::encode_header(&mut bytes);
    let mut metas = Vec::new();
    for base in [100, 50] {
        let records: Vec<RawRecord> = (0..5)
            .map(|i| RawRecord {
                seq: base + i,
                ..rec(base + i, 0, 1)
            })
            .collect();
        let offset = bytes.len() as u64;
        metas.push(format::encode_chunk(&mut bytes, offset, 0, &records));
    }
    let honest = ora_trace::Footer {
        lanes: vec![ora_trace::LaneStats::default()],
        chunks: metas,
    };
    let mut too_late = honest.clone();
    (too_late.chunks[1].min_tick, too_late.chunks[1].max_tick) = (200, 300);
    let mut too_early = honest.clone();
    too_early.chunks[0].max_tick = 103;
    for (lie, window) in [(too_late, (250, 260)), (too_early, (100, 101))] {
        let mut file = bytes.clone();
        format::encode_footer(&mut file, &lie);
        let reader = TraceReader::from_bytes(file).expect("the index agrees with the walk");
        let malformed = |got: Result<Vec<TraceEvent>, ora_trace::TraceError>, query: &str| {
            assert!(
                matches!(got, Err(ora_trace::TraceError::Malformed(_))),
                "{query} over {lie:?}: {got:?}"
            );
        };
        malformed(reader.records(), "records()");
        malformed(reader.events().collect(), "events()");
        malformed(reader.time_range(window.0, window.1), "time_range");
        malformed(reader.for_region(1), "for_region");
        let ranks = merge_ranks(std::slice::from_ref(&reader));
        malformed(
            ranks.map(|m| m.into_iter().map(|e| e.record).collect()),
            "merge_ranks",
        );
    }
    let mut file = bytes;
    format::encode_footer(&mut file, &honest);
    let reader = TraceReader::from_bytes(file).unwrap();
    let ticks: Vec<u64> = reader.records().unwrap().iter().map(|r| r.tick).collect();
    assert_eq!(ticks, [50, 51, 52, 53, 54, 100, 101, 102, 103, 104]);
}

/// A footer that clears a region's bit from a chunk that holds records
/// of it, re-sealed so the file opens: `for_region` skips chunks by
/// that mask, so the lie would hide records from it. Every merge that
/// decodes the chunk fails as malformed instead. (A `for_region` of the
/// cleared region skips the chunk and never sees the lie: only chunks
/// that carry their own masks can close that, ROADMAP 12a.)
#[test]
fn a_footer_lying_about_a_region_mask_fails_the_merge() {
    let mut bytes = Vec::new();
    format::encode_header(&mut bytes);
    let mut metas = Vec::new();
    for (base, regions) in [(100, [1, 2]), (200, [3, 3])] {
        let records: Vec<RawRecord> = (0..6)
            .map(|i| RawRecord {
                seq: base + i,
                ..rec(base + i, 0, regions[i as usize % 2])
            })
            .collect();
        let offset = bytes.len() as u64;
        metas.push(format::encode_chunk(&mut bytes, offset, 0, &records));
    }
    let honest = ora_trace::Footer {
        lanes: vec![ora_trace::LaneStats::default()],
        chunks: metas,
    };
    assert_eq!(honest.chunks[0].region_mask, 0b110);
    let mut lie = honest.clone();
    lie.chunks[0].region_mask &= !(1 << 2);
    let mut file = bytes.clone();
    format::encode_footer(&mut file, &lie);
    let reader = TraceReader::from_bytes(file).expect("the index agrees with the walk");
    let malformed = |got: Result<Vec<TraceEvent>, ora_trace::TraceError>, query: &str| {
        assert!(
            matches!(got, Err(ora_trace::TraceError::Malformed(_))),
            "{query}: {got:?}"
        );
    };
    malformed(reader.records(), "records()");
    malformed(reader.events().collect(), "events()");
    malformed(reader.for_region(1), "for_region(1)");
    let ranks = merge_ranks(std::slice::from_ref(&reader));
    malformed(
        ranks.map(|m| m.into_iter().map(|e| e.record).collect()),
        "merge_ranks",
    );
    let mut file = bytes;
    format::encode_footer(&mut file, &honest);
    let reader = TraceReader::from_bytes(file).unwrap();
    assert_eq!(reader.records().unwrap().len(), 12);
    assert_eq!(reader.for_region(2).unwrap().len(), 3);
}

fn ranked(tick: u64, gtid: usize, seq: u64, rank: usize) -> RankedEvent {
    RankedEvent {
        rank,
        record: TraceEvent {
            tick,
            gtid,
            seq,
            event: Event::Fork,
            region_id: 0,
            wait_id: 0,
        },
    }
}

/// The shared backward merge keeps `dst[floor..]` in strict
/// `(tick, gtid, seq, rank)` order for any sorted run, whatever the
/// overlap — the invariant the lane cursors and the fleet daemon's
/// watermark merge both lean on — and never touches `dst[..floor]`.
#[test]
fn merge_run_keeps_the_full_key_order() {
    let mut rng = XorShift64::new(0x57e4_0003);
    for _ in 0..200 {
        let floor = rng.below(4) as usize;
        let mut dst: Vec<RankedEvent> = (0..floor).map(|i| ranked(99, 0, i as u64, 9)).collect();
        let below = dst.clone();
        let mut all = Vec::new();
        for _ in 0..1 + rng.below(6) {
            let mut run: Vec<RankedEvent> = (0..rng.below(40))
                .map(|_| {
                    let (tick, gtid) = (rng.below(32), rng.below(8) as usize);
                    ranked(tick, gtid, rng.next_u64(), rng.below(4) as usize)
                })
                .collect();
            run.sort_by_key(RankedEvent::key);
            all.extend_from_slice(&run);
            merge_run(&mut dst, floor, &run);
            assert_eq!(dst[..floor], below[..], "below the floor");
            let keys: Vec<_> = dst[floor..].iter().map(RankedEvent::key).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        }
        all.sort_by_key(RankedEvent::key);
        assert_eq!(dst[floor..], all[..]);
    }
}

/// A run merged into a buffer whose released prefix is skipped lands
/// at sorted position above the floor; what is below stays put.
#[test]
fn merge_run_leaves_everything_below_the_floor_alone() {
    let mut dst = vec![
        ranked(50, 0, 0, 0),
        ranked(60, 0, 1, 0),
        ranked(10, 0, 2, 0),
        ranked(30, 0, 3, 0),
    ];
    merge_run(
        &mut dst,
        2,
        &[ranked(5, 1, 0, 1), ranked(20, 1, 1, 1), ranked(40, 1, 2, 1)],
    );
    let ticks: Vec<u64> = dst.iter().map(|e| e.record.tick).collect();
    assert_eq!(ticks, vec![50, 60, 5, 10, 20, 30, 40]);
}

/// Equal keys: a run's record goes after every `dst` record of its key.
#[test]
fn merge_run_places_a_run_after_equal_keys() {
    let tagged = |wait_id| RankedEvent {
        rank: 0,
        record: TraceEvent {
            wait_id,
            ..ranked(5, 0, 0, 0).record
        },
    };
    let mut dst = vec![ranked(1, 0, 0, 0), tagged(1), ranked(9, 0, 0, 0)];
    merge_run(&mut dst, 0, &[tagged(2)]);
    let tags: Vec<u64> = dst.iter().map(|e| e.record.wait_id).collect();
    assert_eq!(tags, vec![0, 1, 2, 0]);
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
