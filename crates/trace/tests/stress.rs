//! Drop-policy stress tests under thread oversubscription.
//!
//! Spawn several times more producer threads than the machine has
//! cores, all hammering deliberately tiny rings while the drainer runs
//! at its normal cadence, and check the pipeline's accounting invariants
//! for every backpressure policy:
//!
//! * `Block` loses nothing: every produced record is persisted;
//! * `Newest`/`Oldest` may lose records, but the loss is exactly
//!   observable: `produced == persisted + dropped` (from the footer);
//! * the decoded stream is well-formed regardless of policy.

use std::sync::Arc;
use std::time::Duration;

use ora_trace::{
    DropPolicy, MemorySink, RawRecord, Recorder, Ring, RingSet, TraceConfig, TraceReader,
};

const RECORDS_PER_THREAD: u64 = 4_000;

fn oversubscribed_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    cores * 4
}

/// Run `threads` producers against tiny rings under `policy`; return the
/// reader over the finished trace plus the produced-record count.
fn hammer(policy: DropPolicy, threads: usize) -> (TraceReader, u64) {
    let cfg = TraceConfig {
        lanes: 4,              // force heavy lane sharing
        capacity_per_lane: 64, // force backpressure
        policy,
        epoch: Duration::from_micros(500),
        ..TraceConfig::default()
    };
    let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
    let rings: Arc<RingSet> = recorder.rings();

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let rings = rings.clone();
            std::thread::spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    rings.record(RawRecord {
                        tick: i,
                        seq: 0,
                        event: 1 + ((t as u64 + i) % 26) as u32,
                        gtid: t as u32,
                        region_id: i % 7,
                        wait_id: 0,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (sink, _) = recorder.finish().unwrap();
    let produced = threads as u64 * RECORDS_PER_THREAD;
    (
        TraceReader::from_bytes(sink.into_bytes()).unwrap(),
        produced,
    )
}

#[test]
fn block_policy_loses_nothing_under_oversubscription() {
    let threads = oversubscribed_threads();
    let (reader, produced) = hammer(DropPolicy::Block, threads);
    assert_eq!(reader.dropped(), Some(0));
    assert_eq!(reader.record_count(), produced);
    assert_eq!(reader.records().unwrap().len() as u64, produced);
}

#[test]
fn drop_newest_accounts_for_every_record() {
    let threads = oversubscribed_threads();
    let (reader, produced) = hammer(DropPolicy::Newest, threads);
    let footer = reader.footer().unwrap();
    // written + dropped_newest == produced (every record either entered
    // a ring or was counted at the door)...
    let written: u64 = footer.lanes.iter().map(|l| l.written).sum();
    assert_eq!(written + reader.dropped().unwrap(), produced);
    // ...and everything written was persisted (drop-newest never evicts).
    assert_eq!(reader.record_count(), written);
    assert_eq!(reader.records().unwrap().len() as u64, written);
}

#[test]
fn drop_oldest_accounts_for_every_record() {
    let threads = oversubscribed_threads();
    let (reader, produced) = hammer(DropPolicy::Oldest, threads);
    let footer = reader.footer().unwrap();
    // Drop-oldest admits everything (written == produced) and evicts
    // from the buffer, so persisted == written - dropped_oldest.
    let written: u64 = footer.lanes.iter().map(|l| l.written).sum();
    assert_eq!(written, produced);
    assert_eq!(reader.record_count(), written - reader.dropped().unwrap());
    assert_eq!(
        reader.records().unwrap().len() as u64,
        reader.record_count()
    );
}

/// The batch drain claims a whole run with one CAS on the dequeue
/// cursor, while drop-oldest producers reclaim single slots through
/// `try_pop` on the same cursor. Four such producers on one small lane
/// race a thread draining in a loop. Every record must come out once:
/// each producer's drained `seq`s strictly increase (nothing drained
/// twice or out of order) and `drained + dropped_oldest == written`. A
/// claim that skips the CAS hands one position to both sides and fails
/// this, or corrupts the slot sequences so a producer spins forever,
/// which the watchdog turns into a failure.
#[test]
fn batch_drain_races_drop_oldest_reclaim() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, RecvTimeoutError};

    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 50_000;
    for capacity in [64, 256] {
        let ring = Arc::new(Ring::new(capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let (done, finished) = channel();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let (ring, done) = (ring.clone(), done.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let rec = RawRecord {
                            tick: i,
                            gtid: t as u32,
                            event: 1,
                            ..RawRecord::default()
                        };
                        ring.record(rec, DropPolicy::Oldest);
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    let _ = done.send(());
                })
            })
            .collect();
        let drainer = {
            let (ring, stop) = (ring.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    if ring.drain_into(&mut got, capacity) == 0 {
                        std::thread::yield_now();
                    }
                }
                got
            })
        };
        for p in 0..PRODUCERS {
            match finished.recv_timeout(Duration::from_secs(10)) {
                Ok(()) => {}
                Err(RecvTimeoutError::Timeout) => {
                    panic!("capacity {capacity}: producer {p} of {PRODUCERS} hung")
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for h in producers {
            h.join().expect("a producer panicked");
        }
        stop.store(true, Ordering::Release);
        let mut got = drainer.join().expect("the drainer panicked");
        ring.drain_into(&mut got, capacity);

        // Producers take their seqs before they race for a slot, so only
        // each producer's own seqs are in ring order.
        let mut last_seq = [None; PRODUCERS as usize];
        for r in &got {
            let last = &mut last_seq[r.gtid as usize];
            if let Some(prev) = last.replace(r.seq) {
                assert!(
                    prev < r.seq,
                    "capacity {capacity}: producer {} seq {} drained after {prev}",
                    r.gtid,
                    r.seq
                );
            }
        }
        let stats = ring.stats();
        assert_eq!(stats.written, PRODUCERS * PER_PRODUCER);
        assert_eq!(
            got.len() as u64 + stats.dropped_oldest,
            stats.written,
            "capacity {capacity}: drained + dropped_oldest != written"
        );
    }
}

/// Whatever the policy, each thread's surviving records keep their
/// arrival order (per-gtid seq strictly increases through the merge).
#[test]
fn per_thread_order_survives_every_policy() {
    for policy in [DropPolicy::Newest, DropPolicy::Oldest, DropPolicy::Block] {
        let (reader, _) = hammer(policy, 8);
        let records = reader.records().unwrap();
        let mut last_seq: std::collections::HashMap<(usize, usize), u64> = Default::default();
        // seq is per-lane; key by (lane, gtid) — 4 lanes configured.
        for r in &records {
            let key = (r.gtid % 4, r.gtid);
            if let Some(prev) = last_seq.insert(key, r.seq) {
                assert!(prev < r.seq, "policy {policy:?}: seq went backwards");
            }
        }
        // And the global merge is ordered by its documented key.
        for w in records.windows(2) {
            assert!(w[0].key() <= w[1].key());
        }
    }
}
