//! Property tests on the one begin/end pairing and the summary built on
//! it. Timelines are drawn from a fixed-seed PRNG so runs are
//! deterministic and offline.

use ora_core::event::{Event, ALL_EVENTS};
use ora_core::testutil::XorShift64;
use ora_trace::analyze::{pair_intervals, summarize};
use ora_trace::{RankedEvent, TraceEvent, Unpaired};

fn ev(rank: usize, tick: u64, gtid: usize, event: Event, wait_id: u64) -> RankedEvent {
    RankedEvent {
        rank,
        record: TraceEvent {
            tick,
            gtid,
            seq: tick,
            event,
            region_id: 1,
            wait_id,
        },
    }
}

fn arb_events(rng: &mut XorShift64, max: usize) -> Vec<RankedEvent> {
    let len = rng.range_usize(0, max);
    (0..len)
        .map(|_| RankedEvent {
            rank: rng.range_usize(0, 2),
            record: TraceEvent {
                tick: rng.next_u32() as u64,
                gtid: rng.range_usize(0, 16),
                seq: rng.next_u32() as u64,
                event: ALL_EVENTS[rng.range_usize(0, ALL_EVENTS.len())],
                // Small ID spaces, so arbitrary streams do pair.
                region_id: rng.range_usize(0, 4) as u64,
                wait_id: rng.range_usize(0, 4) as u64,
            },
        })
        .collect()
}

/// Pairing never panics and its aggregates are internally consistent
/// for arbitrary (even nonsensical) timelines.
#[test]
fn analysis_is_total_and_consistent() {
    let mut rng = XorShift64::new(0x7ace_0002);
    for _case in 0..256 {
        let events = arb_events(&mut rng, 128);
        let s = summarize(events.iter().copied());
        assert_eq!(s.events, events.len() as u64);
        // Every record is a begin or an end, and each ends up in exactly
        // one interval or one unpaired count.
        let unpaired: u64 = s.unpaired.begins.iter().chain(&s.unpaired.ends).sum();
        let paired = 2 * (s.regions.len() + s.waits.len()) as u64;
        assert_eq!(paired + unpaired, s.events);
        let count = |e: Event| events.iter().filter(|r| r.record.event == e).count();
        assert!(s.regions.len() <= count(Event::Fork).min(count(Event::Join)));
        // Every interval is well formed.
        for r in &s.regions {
            assert!(r.end >= r.start);
            assert_eq!(r.begin, Event::Fork);
        }
        for w in &s.waits {
            assert!(w.end >= w.start);
            assert!(w.begin.is_begin() && w.begin != Event::Fork);
        }
        assert!(s.peak_region_concurrency() <= s.regions.len());
        // Total region time can't exceed span × interval count.
        assert!(s.total_region_ticks() <= s.span_ticks * s.regions.len() as u64);
    }
}

/// A timeline made of perfectly nested begin/end pairs per thread pairs
/// completely, whatever the thread and pair counts.
#[test]
fn balanced_pairs_have_no_unmatched_begins() {
    let mut rng = XorShift64::new(0x7ace_0003);
    for _case in 0..256 {
        let threads = rng.range_usize(1, 4);
        let pairs_per_thread = rng.range_usize(0, 10);
        let mut events = Vec::new();
        let mut tick = 0u64;
        for gtid in 0..threads {
            for wait in 0..pairs_per_thread as u64 {
                events.push(ev(0, tick, gtid, Event::ThreadBeginImplicitBarrier, wait));
                events.push(ev(0, tick + 1, gtid, Event::ThreadEndImplicitBarrier, wait));
                tick += 2;
            }
        }
        let s = summarize(events);
        assert_eq!(s.unpaired, Unpaired::default());
        assert_eq!(s.waits.len(), threads * pairs_per_thread);
    }
}

/// Equal `(gtid, wait id)` — and equal region IDs — on different ranks
/// never cross-pair: rank 0's begin must not be closed by rank 1's end.
#[test]
fn ranks_never_cross_pair() {
    let events = [
        ev(0, 10, 1, Event::ThreadBeginLockWait, 7),
        ev(1, 20, 1, Event::ThreadEndLockWait, 7),
        ev(0, 30, 0, Event::Fork, 0),
        ev(1, 40, 0, Event::Join, 0),
        ev(1, 50, 0, Event::Fork, 0),
        ev(0, 60, 0, Event::Join, 0),
        ev(1, 70, 0, Event::Join, 0),
    ];
    let mut seen = Vec::new();
    let unpaired = pair_intervals(events, |iv| seen.push((iv.rank, iv.start, iv.end)));
    assert_eq!(seen, [(0, 30, 60), (1, 50, 70)]);
    assert_eq!(unpaired.begins[Event::ThreadBeginLockWait.index()], 1);
    assert_eq!(unpaired.ends[Event::ThreadBeginLockWait.index()], 1);
    assert_eq!(unpaired.ends[Event::Fork.index()], 1, "rank 1's early join");
}
