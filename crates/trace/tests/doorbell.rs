//! The drainer wakes when a Block lane needs it, not only on its epoch.
//!
//! With an hour-long epoch the drainer's timer never fires during these
//! tests, so every sweep the first one sees was rung by a producer: a
//! lane half undrained at a quarter lap, or a lane found full. With an
//! unlimited yield budget a producer waits until a sweep frees a slot,
//! so a lost ring hangs it; the test thread waits on a watchdog instead
//! of joining, and fails rather than hangs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ora_trace::{DropPolicy, MemorySink, RawRecord, Recorder, TraceConfig};

fn rec(tick: u64, gtid: u32) -> RawRecord {
    RawRecord {
        tick,
        gtid,
        event: 1,
        ..RawRecord::default()
    }
}

#[test]
fn block_producers_on_small_lanes_finish_under_a_dormant_timer() {
    const PER: u64 = 20_000;
    let cfg = TraceConfig {
        lanes: 2,
        capacity_per_lane: 64,
        policy: DropPolicy::Block,
        epoch: Duration::from_secs(3600),
        block_yield_limit: u64::MAX,
        ..TraceConfig::default()
    };
    let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
    let (done, finished) = mpsc::channel();
    for gtid in 0..2u32 {
        let rings = recorder.rings();
        let done = done.clone();
        std::thread::spawn(move || {
            for tick in 0..PER {
                rings.record(rec(tick, gtid));
            }
            let _ = done.send(());
        });
    }
    for _ in 0..2 {
        // On failure the recorder drops as the test unwinds, which shuts
        // the rings down and releases the stranded producers.
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a Block producer waited 10 s for a sweep nobody rang");
    }
    let rings = recorder.rings();
    let (_, stats) = recorder.finish().unwrap();
    assert_eq!(stats.drained(), 2 * PER);
    assert_eq!(stats.dropped(), 0);
    assert_eq!(stats.blocked_waits, rings.total_stats().blocked_waits);
}

#[test]
fn a_quiet_block_lane_is_still_swept_by_the_epoch() {
    const RECORDS: u64 = 10;
    let epoch = Duration::from_millis(5);
    let cfg = TraceConfig {
        lanes: 1,
        capacity_per_lane: 64,
        policy: DropPolicy::Block,
        epoch,
        ..TraceConfig::default()
    };
    let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
    let rings = recorder.rings();
    for tick in 0..RECORDS {
        rings.record(rec(tick, 0)); // 10 of 64 slots: never rings
    }
    let deadline = Instant::now() + 20 * epoch;
    while recorder.health().drained < RECORDS {
        assert!(
            Instant::now() < deadline,
            "a below-half Block lane was not swept within 20 epochs"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_, stats) = recorder.finish().unwrap();
    assert_eq!(stats.drained(), RECORDS);
    assert_eq!(stats.blocked_waits, 0);
}
