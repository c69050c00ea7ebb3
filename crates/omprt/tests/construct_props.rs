//! Property tests over random construct sequences: whatever program shape
//! a region executes, the event stream a collector sees is well formed —
//! begins pair with ends per thread, wait IDs are monotone, and fork/join
//! bracket everything. Programs are drawn from a fixed-seed PRNG so runs
//! are deterministic and offline.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use omprt::{Config, OpenMp, Schedule, WordLock};
use ora_core::event::{Event, ALL_EVENTS};
use ora_core::registry::EventData;
use ora_core::request::Request;
use ora_core::testutil::XorShift64;

#[derive(Debug, Clone, Copy)]
enum Construct {
    Barrier,
    ForStatic,
    ForDynamic,
    Single,
    Critical,
    Reduction,
    Ordered,
    Task,
    Master,
}

const ALL_CONSTRUCTS: [Construct; 9] = [
    Construct::Barrier,
    Construct::ForStatic,
    Construct::ForDynamic,
    Construct::Single,
    Construct::Critical,
    Construct::Reduction,
    Construct::Ordered,
    Construct::Task,
    Construct::Master,
];

fn arb_program(rng: &mut XorShift64) -> Vec<Construct> {
    let len = rng.range_usize(0, 8);
    (0..len).map(|_| *rng.choose(&ALL_CONSTRUCTS)).collect()
}

fn run_program(threads: usize, program: &[Construct]) -> Vec<EventData> {
    let rt = OpenMp::with_config(Config {
        num_threads: threads,
        ..Config::default()
    });
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    for e in ALL_EVENTS {
        let log = log.clone();
        // Atomic events unsupported by default; skip them.
        let _ = api.register_callback(
            e,
            Arc::new(move |d: &EventData| {
                log.lock().unwrap().push(*d);
            }),
        );
    }

    let acc = AtomicU64::new(0);
    rt.parallel(|ctx| {
        for c in program {
            match c {
                Construct::Barrier => ctx.barrier(),
                Construct::ForStatic => {
                    ctx.for_schedule(Schedule::StaticEven, 0, 15, 1, |i| {
                        std::hint::black_box(i);
                    });
                }
                Construct::ForDynamic => {
                    ctx.for_schedule(Schedule::Dynamic(3), 0, 15, 1, |i| {
                        std::hint::black_box(i);
                    });
                }
                Construct::Single => {
                    ctx.single(|| {});
                }
                Construct::Critical => {
                    static PROP: WordLock = WordLock::new();
                    ctx.critical(&PROP, || {});
                }
                Construct::Reduction => {
                    ctx.reduction(|| {
                        acc.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
                Construct::Ordered => {
                    ctx.for_ordered(0, 7, 1, |i| {
                        std::hint::black_box(i);
                    });
                }
                Construct::Task => {
                    ctx.task(|| {});
                    ctx.taskwait();
                }
                Construct::Master => {
                    ctx.master(|| {});
                }
            }
        }
    });

    // Drop the runtime so worker shutdown completes, then snapshot.
    drop(rt);
    let log = log.lock().unwrap().clone();
    log
}

fn unmatched(log: &[EventData], begin: Event) -> i64 {
    let end = begin.pair().unwrap();
    let mut per_thread: std::collections::HashMap<usize, i64> = Default::default();
    let mut violations = 0i64;
    for d in log {
        let depth = per_thread.entry(d.gtid).or_insert(0);
        if d.event == begin {
            *depth += 1;
        } else if d.event == end {
            *depth -= 1;
            if *depth < 0 {
                violations += 1;
                *depth = 0;
            }
        }
    }
    violations + per_thread.values().sum::<i64>()
}

#[test]
fn event_stream_is_well_formed() {
    let mut rng = XorShift64::new(0xc025_7ac7_0001);
    for _case in 0..24 {
        let threads = rng.range_usize(1, 4);
        let program = arb_program(&mut rng);
        let log = run_program(threads, &program);

        // Exactly one fork and one join, both from the master.
        let forks: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Fork).collect();
        let joins: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Join).collect();
        assert_eq!(forks.len(), 1);
        assert_eq!(joins.len(), 1);
        assert_eq!(forks[0].gtid, 0);
        assert_eq!(joins[0].gtid, 0);
        assert_eq!(forks[0].region_id, joins[0].region_id);

        // Every paired begin/end event type balances per thread. (The log
        // is in per-thread program order for a given gtid because Vec
        // pushes happen under one mutex on the firing thread.)
        for begin in [
            Event::ThreadBeginImplicitBarrier,
            Event::ThreadBeginExplicitBarrier,
            Event::ThreadBeginCriticalWait,
            Event::ThreadBeginOrderedWait,
            Event::ThreadBeginSingle,
            Event::ThreadBeginMaster,
            Event::TaskBegin,
            Event::TaskWaitBegin,
            Event::LoopBegin,
        ] {
            assert_eq!(
                unmatched(&log, begin),
                0,
                "unbalanced {begin:?} in {program:?} (threads={threads})"
            );
        }

        // Wait IDs are strictly increasing per thread for barrier events.
        for gtid in 0..threads {
            let ids: Vec<u64> = log
                .iter()
                .filter(|d| {
                    d.gtid == gtid
                        && matches!(
                            d.event,
                            Event::ThreadBeginImplicitBarrier | Event::ThreadBeginExplicitBarrier
                        )
                })
                .map(|d| d.wait_id)
                .collect();
            assert!(
                ids.windows(2).all(|w| w[1] > w[0]),
                "barrier ids not monotone for gtid {gtid}: {ids:?}"
            );
        }

        // Loop sequence numbers per thread are 0..n in order.
        for gtid in 0..threads {
            let seqs: Vec<u64> = log
                .iter()
                .filter(|d| d.gtid == gtid && d.event == Event::LoopBegin)
                .map(|d| d.wait_id)
                .collect();
            let expected: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, expected, "gtid {gtid}");
        }

        // All in-region events carry the region's ID.
        let region_id = forks[0].region_id;
        for d in &log {
            if matches!(
                d.event,
                Event::ThreadBeginExplicitBarrier | Event::ThreadBeginSingle | Event::LoopBegin
            ) {
                assert_eq!(d.region_id, region_id);
                assert_eq!(d.parent_region_id, 0);
            }
        }
    }
}
