//! Integration tests: the runtime fires ORA events and maintains states
//! exactly as the paper's OpenUH implementation describes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use omprt::{Config, OpenMp, Schedule, SourceFunction, WordLock};
use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraError, Request, Response};
use ora_core::state::{ThreadState, WaitIdKind};

const NT: usize = 4;

/// Start collection and record every occurrence of `events`.
fn record(rt: &OpenMp, events: &[Event]) -> Arc<Mutex<Vec<EventData>>> {
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    for &e in events {
        let log = log.clone();
        api.register_callback(
            e,
            Arc::new(move |d: &EventData| {
                log.lock().unwrap().push(*d);
            }),
        )
        .unwrap();
    }
    log
}

#[test]
fn fork_and_join_fire_once_per_region_master_only() {
    let rt = OpenMp::with_threads(NT);
    let log = record(&rt, &[Event::Fork, Event::Join]);

    for _ in 0..5 {
        rt.parallel(|_ctx| {});
    }

    let log = log.lock().unwrap();
    let forks: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Fork).collect();
    let joins: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Join).collect();
    assert_eq!(forks.len(), 5);
    assert_eq!(joins.len(), 5);
    // "The fork and join event callback are only invoked by the master
    // thread of any parallel region."
    assert!(log.iter().all(|d| d.gtid == 0));
    // Region IDs increase monotonically and match between fork and join.
    for (i, (f, j)) in forks.iter().zip(joins.iter()).enumerate() {
        assert_eq!(f.region_id, i as u64 + 1);
        assert_eq!(j.region_id, f.region_id);
        assert_eq!(f.parent_region_id, 0, "non-nested parent is 0");
    }
    assert_eq!(rt.region_calls(), 5);
}

#[test]
fn team_executes_all_thread_ids() {
    let rt = OpenMp::with_threads(NT);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    rt.parallel(move |ctx| {
        assert_eq!(ctx.num_threads(), NT);
        s.lock().unwrap().push(ctx.thread_num());
    });
    let mut ids = seen.lock().unwrap().clone();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
}

#[test]
fn nested_regions_are_serialized_without_fork_events() {
    let rt = OpenMp::with_threads(2);
    let log = record(&rt, &[Event::Fork]);
    let inner_threads = Arc::new(Mutex::new(Vec::new()));
    let it = inner_threads.clone();

    rt.parallel(|ctx| {
        let outer_region = ctx.region_id();
        // Nested parallel: serialized, team of one, outer IDs preserved.
        rt.parallel(|inner| {
            assert_eq!(inner.num_threads(), 1);
            assert_eq!(inner.thread_num(), 0);
            assert_eq!(inner.region_id(), outer_region);
            it.lock().unwrap().push(ctx.thread_num());
        });
    });

    // One fork for the outer region only.
    assert_eq!(log.lock().unwrap().len(), 1);
    // Every team thread ran its own serialized nested region.
    assert_eq!(inner_threads.lock().unwrap().len(), 2);
    assert_eq!(rt.region_calls(), 1);
}

#[test]
fn implicit_and_explicit_barriers_are_distinct_events() {
    let rt = OpenMp::with_threads(NT);
    let log = record(
        &rt,
        &[
            Event::ThreadBeginImplicitBarrier,
            Event::ThreadEndImplicitBarrier,
            Event::ThreadBeginExplicitBarrier,
            Event::ThreadEndExplicitBarrier,
        ],
    );

    rt.parallel(|ctx| {
        ctx.barrier(); // one explicit barrier
    });

    let log = log.lock().unwrap();
    let ebar_begin = log
        .iter()
        .filter(|d| d.event == Event::ThreadBeginExplicitBarrier)
        .count();
    let ibar_begin = log
        .iter()
        .filter(|d| d.event == Event::ThreadBeginImplicitBarrier)
        .count();
    // Every thread: one explicit + the region-end implicit barrier.
    assert_eq!(ebar_begin, NT);
    assert_eq!(ibar_begin, NT);
    // Begin/end events pair up with identical wait IDs per thread.
    for gtid in 0..NT {
        let begins: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid && d.event == Event::ThreadBeginExplicitBarrier)
            .map(|d| d.wait_id)
            .collect();
        let ends: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid && d.event == Event::ThreadEndExplicitBarrier)
            .map(|d| d.wait_id)
            .collect();
        assert_eq!(begins, ends);
    }
}

#[test]
fn barrier_ids_increment_per_thread() {
    let rt = OpenMp::with_threads(2);
    let log = record(&rt, &[Event::ThreadBeginImplicitBarrier]);
    rt.parallel(|ctx| {
        ctx.implicit_barrier();
        ctx.implicit_barrier();
    });
    let log = log.lock().unwrap();
    for gtid in 0..2 {
        let ids: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid)
            .map(|d| d.wait_id)
            .collect();
        // Two explicit calls + region end: strictly increasing IDs.
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{ids:?}");
    }
}

#[test]
fn idle_events_bracket_worker_participation() {
    let rt = OpenMp::with_threads(3);
    let log = record(&rt, &[Event::ThreadBeginIdle, Event::ThreadEndIdle]);
    rt.parallel(|_| {});
    rt.parallel(|_| {});
    // Give workers a moment to return to idle after the join.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let log = log.lock().unwrap();
    for gtid in 1..3 {
        let evts: Vec<Event> = log
            .iter()
            .filter(|d| d.gtid == gtid)
            .map(|d| d.event)
            .collect();
        // begin-idle (spawn), end-idle (region 1), begin-idle, end-idle
        // (region 2), begin-idle.
        assert_eq!(
            evts,
            vec![
                Event::ThreadBeginIdle,
                Event::ThreadEndIdle,
                Event::ThreadBeginIdle,
                Event::ThreadEndIdle,
                Event::ThreadBeginIdle,
            ],
            "gtid {gtid}"
        );
    }
    // The master never idles.
    assert!(log.iter().all(|d| d.gtid != 0));
}

#[test]
fn state_queries_track_the_calling_thread() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();

    // Outside any region the master is serial.
    let r = api.handle_request(Request::QueryState).unwrap();
    assert_eq!(r.state(), Some(ThreadState::Serial));

    let states = Arc::new(Mutex::new(Vec::new()));
    let s = states.clone();
    let api2 = api.clone();
    rt.parallel(move |_ctx| {
        let r = api2.handle_request(Request::QueryState).unwrap();
        s.lock().unwrap().push(r.state().unwrap());
    });
    for st in states.lock().unwrap().iter() {
        assert_eq!(*st, ThreadState::Working);
    }

    // Back outside: serial again.
    let r = api.handle_request(Request::QueryState).unwrap();
    assert_eq!(r.state(), Some(ThreadState::Serial));
}

#[test]
fn region_id_queries_follow_the_paper_semantics() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();

    // Outside a region: out-of-sequence error (paper §IV-E).
    assert_eq!(
        api.handle_request(Request::QueryCurrentPrid),
        Err(OraError::OutOfSequence)
    );

    let api2 = api.clone();
    let ids = Arc::new(Mutex::new(Vec::new()));
    let ids2 = ids.clone();
    rt.parallel(move |ctx| {
        let cur = api2.handle_request(Request::QueryCurrentPrid).unwrap();
        let parent = api2.handle_request(Request::QueryParentPrid).unwrap();
        ids2.lock().unwrap().push((ctx.thread_num(), cur, parent));
    });
    for (_, cur, parent) in ids.lock().unwrap().iter() {
        assert_eq!(*cur, Response::RegionId(1));
        assert_eq!(*parent, Response::RegionId(0));
    }
}

#[test]
fn worksharing_schedules_all_compute_the_same_sum() {
    for schedule in [
        Schedule::StaticEven,
        Schedule::StaticChunk(7),
        Schedule::Dynamic(5),
        Schedule::Guided(3),
    ] {
        let rt = OpenMp::with_config(Config {
            num_threads: NT,
            schedule,
            ..Config::default()
        });
        let total = Arc::new(AtomicU64::new(0));
        let t = total.clone();
        rt.parallel(move |ctx| {
            let mut local = 0u64;
            ctx.for_each(0, 999, |i| local += i as u64);
            ctx.atomic_update(&t, |v| v + local);
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            999 * 1000 / 2,
            "{schedule:?}"
        );
    }
}

#[test]
fn reduction_matches_serial_sum() {
    let func = SourceFunction::new("reduction_test", "tests.rs", 1);
    let region = func.loop_region("1", 2);
    let rt = OpenMp::with_threads(NT);
    // The paper's Fig. 1: sum += 1 over N iterations.
    let sum = rt.parallel_for_sum(&region, 0, 9999, |_| 1.0);
    assert_eq!(sum, 10_000.0);
    // And a value-dependent reduction.
    let sum = rt.parallel_for_sum(&region, 1, 100, |i| i as f64);
    assert_eq!(sum, 5050.0);
}

#[test]
fn min_max_reductions_match_serial_results() {
    use std::sync::atomic::AtomicU64;
    let rt = OpenMp::with_threads(NT);
    let min_acc = AtomicU64::new(f64::INFINITY.to_bits());
    let max_acc = AtomicU64::new(f64::NEG_INFINITY.to_bits());
    let results = Arc::new(Mutex::new(Vec::new()));
    let r = results.clone();
    rt.parallel(move |ctx| {
        // f(i) = (i - 40)^2 has its minimum at i = 40 and max at i = 0.
        let f = |i: i64| ((i - 40) * (i - 40)) as f64;
        let min = ctx.for_reduce_min(0, 99, f, &min_acc);
        let max = ctx.for_reduce_max(0, 99, f, &max_acc);
        r.lock().unwrap().push((min, max));
    });
    let results = results.lock().unwrap();
    assert_eq!(results.len(), NT, "every thread returns the reduction");
    for &(min, max) in results.iter() {
        assert_eq!(min, 0.0);
        assert_eq!(max, (59 * 59) as f64);
    }
}

#[test]
fn single_runs_exactly_once_and_fires_paired_events() {
    let rt = OpenMp::with_threads(NT);
    let log = record(&rt, &[Event::ThreadBeginSingle, Event::ThreadEndSingle]);
    let runs = Arc::new(AtomicUsize::new(0));
    let r = runs.clone();
    rt.parallel(move |ctx| {
        for _ in 0..10 {
            ctx.single(|| {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(runs.load(Ordering::SeqCst), 10);
    let log = log.lock().unwrap();
    assert_eq!(
        log.iter()
            .filter(|d| d.event == Event::ThreadBeginSingle)
            .count(),
        10
    );
    assert_eq!(
        log.iter()
            .filter(|d| d.event == Event::ThreadEndSingle)
            .count(),
        10
    );
}

#[test]
fn master_runs_only_on_master_with_begin_end_events() {
    let rt = OpenMp::with_threads(NT);
    let log = record(&rt, &[Event::ThreadBeginMaster, Event::ThreadEndMaster]);
    let runner = Arc::new(Mutex::new(Vec::new()));
    let r = runner.clone();
    rt.parallel(move |ctx| {
        ctx.master(|| {
            r.lock().unwrap().push(ctx.thread_num());
        });
    });
    assert_eq!(*runner.lock().unwrap(), vec![0]);
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 2);
    assert!(log.iter().all(|d| d.gtid == 0));
}

#[test]
fn ordered_sections_execute_in_iteration_order() {
    let rt = OpenMp::with_threads(NT);
    let order = Arc::new(Mutex::new(Vec::new()));
    let o = order.clone();
    rt.parallel(move |ctx| {
        ctx.for_ordered(0, 49, 1, |i| {
            o.lock().unwrap().push(i);
        });
    });
    let order = order.lock().unwrap();
    assert_eq!(*order, (0..=49).collect::<Vec<i64>>());
}

#[test]
fn critical_sections_exclude_and_fire_wait_events_only_on_contention() {
    static UPDATE: WordLock = WordLock::new();
    let rt = OpenMp::with_threads(NT);
    let log = record(&rt, &[Event::ThreadBeginCriticalWait]);
    let shared = Arc::new(Mutex::new(0u64));
    let s = shared.clone();
    rt.parallel(move |ctx| {
        for _ in 0..100 {
            ctx.critical(&UPDATE, || {
                *s.lock().unwrap() += 1;
            });
        }
    });
    assert_eq!(*shared.lock().unwrap(), (NT * 100) as u64);
    // Wait IDs on any observed contention events are per-thread monotone.
    let log = log.lock().unwrap();
    for gtid in 0..NT {
        let ids: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid)
            .map(|d| d.wait_id)
            .collect();
        assert!(ids.windows(2).all(|w| w[1] > w[0]), "{ids:?}");
    }
}

/// One interval kind: its Begin/End events, the state and wait-ID kind a
/// Begin callback reads, the state an End callback reads (the one from
/// before the interval), and a program that raises it at least once.
struct Interval {
    begin: Event,
    end: Event,
    state: ThreadState,
    wait: Option<WaitIdKind>,
    before: ThreadState,
    atomic_events: bool,
    run: fn(&OpenMp),
}

const INTERVALS: [Interval; 8] = [
    Interval {
        begin: Event::ThreadBeginExplicitBarrier,
        end: Event::ThreadEndExplicitBarrier,
        state: ThreadState::ExplicitBarrier,
        wait: Some(WaitIdKind::Barrier),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| rt.parallel(|ctx| ctx.barrier()),
    },
    Interval {
        begin: Event::ThreadBeginImplicitBarrier,
        end: Event::ThreadEndImplicitBarrier,
        state: ThreadState::ImplicitBarrier,
        wait: Some(WaitIdKind::Barrier),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| rt.parallel(|_| {}),
    },
    Interval {
        begin: Event::ThreadBeginLockWait,
        end: Event::ThreadEndLockWait,
        state: ThreadState::LockWait,
        wait: Some(WaitIdKind::Lock),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| {
            let lock = rt.new_lock();
            rt.parallel(|_| {
                lock.set();
                std::thread::sleep(Duration::from_micros(300));
                lock.unset();
            });
        },
    },
    Interval {
        begin: Event::ThreadBeginCriticalWait,
        end: Event::ThreadEndCriticalWait,
        state: ThreadState::CriticalWait,
        wait: Some(WaitIdKind::Critical),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| {
            static HELD: WordLock = WordLock::new();
            rt.parallel(|ctx| {
                ctx.critical(&HELD, || std::thread::sleep(Duration::from_micros(300)));
            });
        },
    },
    Interval {
        begin: Event::ThreadBeginOrderedWait,
        end: Event::ThreadEndOrderedWait,
        state: ThreadState::OrderedWait,
        wait: Some(WaitIdKind::Ordered),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| {
            rt.parallel(|ctx| {
                ctx.for_ordered(0, 7, 1, |_| std::thread::sleep(Duration::from_micros(100)));
            });
        },
    },
    Interval {
        begin: Event::ThreadBeginAtomicWait,
        end: Event::ThreadEndAtomicWait,
        state: ThreadState::AtomicWait,
        wait: Some(WaitIdKind::Atomic),
        before: ThreadState::Working,
        atomic_events: true,
        run: |rt| {
            let cell = AtomicU64::new(0);
            rt.parallel(|ctx| {
                ctx.atomic_update(&cell, |v| {
                    std::thread::sleep(Duration::from_micros(100));
                    v + 1
                });
            });
        },
    },
    Interval {
        begin: Event::TaskWaitBegin,
        end: Event::TaskWaitEnd,
        state: ThreadState::TaskWait,
        wait: Some(WaitIdKind::Task),
        before: ThreadState::Working,
        atomic_events: false,
        run: |rt| {
            rt.parallel(|ctx| {
                ctx.task(|| std::thread::sleep(Duration::from_micros(100)));
                ctx.taskwait();
            });
        },
    },
    // A task runs inside the taskwait that drains it: its End reads
    // the taskwait's state back, not Working.
    Interval {
        begin: Event::TaskBegin,
        end: Event::TaskEnd,
        state: ThreadState::Working,
        wait: None,
        before: ThreadState::TaskWait,
        atomic_events: false,
        run: |rt| {
            rt.parallel(|ctx| {
                ctx.task(|| {});
                ctx.taskwait();
            });
        },
    },
];

#[test]
fn begin_reads_the_intervals_state_and_end_reads_the_state_before_it() {
    for interval in &INTERVALS {
        let rt = OpenMp::with_config(Config {
            num_threads: NT,
            atomic_events: interval.atomic_events,
            ..Config::default()
        });
        let api = rt.collector_api();
        api.handle_request(Request::Start).unwrap();
        // (event, its wait-ID field, the state query's reply)
        let log = Arc::new(Mutex::new(Vec::new()));
        for event in [interval.begin, interval.end] {
            let (log, query) = (log.clone(), api.clone());
            api.register_callback(
                event,
                Arc::new(move |d: &EventData| {
                    let reply = query.handle_request(Request::QueryState).unwrap();
                    log.lock().unwrap().push((d.event, d.wait_id, reply));
                }),
            )
            .unwrap();
        }
        // Contended intervals fire only when a probe fails: run until one
        // has.
        for _ in 0..50 {
            (interval.run)(&rt);
            if !log.lock().unwrap().is_empty() {
                break;
            }
        }
        let log = log.lock().unwrap();
        let name = interval.begin;
        assert!(!log.is_empty(), "{name:?} never fired");
        for &(event, wait_id, reply) in log.iter() {
            let Response::State {
                state,
                wait_id: wait,
            } = reply
            else {
                panic!("{name:?}: a state query answered {reply:?}");
            };
            if event == interval.begin {
                assert_eq!(state, interval.state, "{name:?}");
                assert_eq!(wait, interval.wait.map(|kind| (kind, wait_id)), "{name:?}");
            } else {
                assert_eq!(state, interval.before, "{event:?}");
            }
        }
    }
}

#[test]
fn pause_suppresses_events_and_resume_restores_them() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    let log = record(&rt, &[Event::Fork]);

    rt.parallel(|_| {});
    assert_eq!(log.lock().unwrap().len(), 1);

    api.handle_request(Request::Pause).unwrap();
    rt.parallel(|_| {});
    assert_eq!(log.lock().unwrap().len(), 1, "paused: no events");

    api.handle_request(Request::Resume).unwrap();
    rt.parallel(|_| {});
    assert_eq!(log.lock().unwrap().len(), 2);

    // States kept updating during the pause (always-on tracking).
    let r = api.handle_request(Request::QueryState).unwrap();
    assert_eq!(r.state(), Some(ThreadState::Serial));
}

#[test]
fn atomic_events_rejected_by_default_accepted_when_enabled() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let token = api.intern_callback(Arc::new(|_| {}));
    // The paper's runtime does not implement atomic wait events (§IV-C7).
    assert_eq!(
        api.handle_request(Request::Register {
            event: Event::ThreadBeginAtomicWait,
            token
        }),
        Err(OraError::UnsupportedEvent)
    );

    let rt2 = OpenMp::with_config(Config {
        num_threads: 2,
        atomic_events: true,
        ..Config::default()
    });
    let api2 = rt2.collector_api();
    api2.handle_request(Request::Start).unwrap();
    let token2 = api2.intern_callback(Arc::new(|_| {}));
    assert_eq!(
        api2.handle_request(Request::Register {
            event: Event::ThreadBeginAtomicWait,
            token: token2
        }),
        Ok(Response::Ack)
    );
}

#[test]
fn capabilities_query_reflects_runtime_support() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    let resp = api.handle_request(Request::QueryCapabilities).unwrap();
    let supported = resp.supported_events().expect("capabilities response");
    // Everything except atomic-wait events (paper §IV-C7 default).
    assert!(supported.contains(&Event::Fork));
    assert!(supported.contains(&Event::Join));
    assert!(supported.contains(&Event::TaskBegin));
    assert!(!supported.contains(&Event::ThreadBeginAtomicWait));
    assert!(!supported.contains(&Event::ThreadEndAtomicWait));
    assert_eq!(supported.len(), ora_core::event::EVENT_COUNT - 2);

    // With atomic events enabled, the bitmap is complete.
    let rt2 = OpenMp::with_config(Config {
        num_threads: 2,
        atomic_events: true,
        ..Config::default()
    });
    let resp = rt2
        .collector_api()
        .handle_request(Request::QueryCapabilities)
        .unwrap();
    assert_eq!(
        resp.supported_events().unwrap().len(),
        ora_core::event::EVENT_COUNT
    );
}

#[test]
fn collector_discovers_runtime_through_dynamic_symbol() {
    let rt = OpenMp::with_threads(2);
    // A collector that knows only the symbol name and the wire format.
    let entry = psx::dynsym::lookup(rt.symbol_name()).expect("runtime exports its symbol");
    let mut batch = ora_core::message::RequestBatch::new(&[Request::Start, Request::QueryState]);
    assert_eq!(entry(batch.as_mut_bytes()), 2);
    assert_eq!(batch.response(0), Ok(Response::Ack));
    assert_eq!(
        batch.response(1).unwrap().state(),
        Some(ThreadState::Serial)
    );
}

#[test]
fn runtime_instances_are_isolated() {
    let a = OpenMp::with_threads(2);
    let b = OpenMp::with_threads(2);
    let log_a = record(&a, &[Event::Fork]);
    let log_b = record(&b, &[Event::Fork]);

    a.parallel(|_| {});
    a.parallel(|_| {});
    b.parallel(|_| {});

    assert_eq!(log_a.lock().unwrap().len(), 2);
    assert_eq!(log_b.lock().unwrap().len(), 1);
    assert_eq!(a.region_calls(), 2);
    assert_eq!(b.region_calls(), 1);
    assert_ne!(a.symbol_name(), b.symbol_name());
}

#[test]
fn team_size_can_grow_between_regions() {
    let rt = OpenMp::with_threads(2);
    rt.parallel(|ctx| assert_eq!(ctx.num_threads(), 2));
    assert_eq!(rt.spawned_workers(), 1);
    // "Subsequent fork events will be triggered before the call to
    // pthread_create() in order to add more threads" — growing the team
    // spawns the extra workers at the next fork.
    rt.parallel_n(4, |ctx| assert_eq!(ctx.num_threads(), 4));
    assert_eq!(rt.spawned_workers(), 3);
    // Shrinking keeps the spare workers idle.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    rt.parallel_n(2, move |ctx| s.lock().unwrap().push(ctx.thread_num()));
    let mut ids = seen.lock().unwrap().clone();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);
    assert_eq!(rt.spawned_workers(), 3);
}

#[test]
fn join_callstack_contains_fork_frame_for_master() {
    // The collector records the implementation callstack at join; for the
    // master it should show main → __ompc_fork.
    let func = SourceFunction::new("join_stack_main", "t.rs", 1);
    let region = func.region("1", 5);
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let stacks = Arc::new(Mutex::new(Vec::new()));
    let st = stacks.clone();
    api.register_callback(
        Event::Join,
        Arc::new(move |_| {
            st.lock().unwrap().push(psx::capture());
        }),
    )
    .unwrap();

    {
        let _f = func.frame();
        rt.parallel_region(&region, |_| {});
    }

    let stacks = stacks.lock().unwrap();
    assert_eq!(stacks.len(), 1);
    let names: Vec<String> = stacks[0]
        .resolve(psx::SymbolTable::global())
        .map(|s| s.unwrap().name.to_string())
        .collect();
    // The outlined frame is still live at the join event (the implicit
    // barrier lives inside the outlined procedure, paper Fig. 2), so the
    // join callstack attributes to the construct.
    assert_eq!(
        names,
        vec![
            "join_stack_main",
            "__ompc_fork",
            "__ompregion_join_stack_main_1"
        ]
    );
}

#[test]
fn oversubscribed_teams_complete_reliably() {
    // Fig. 4 runs up to 32 threads on far fewer cores; the runtime must
    // stay correct (and live) under heavy oversubscription.
    let rt = OpenMp::with_threads(16);
    let total = Arc::new(AtomicU64::new(0));
    for _ in 0..50 {
        let t = total.clone();
        rt.parallel(move |ctx| {
            let mut local = 0u64;
            ctx.for_each(0, 159, |i| local += i as u64);
            ctx.atomic_update(&t, |v| v + local);
            ctx.barrier();
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 50 * (159 * 160 / 2));
    assert_eq!(rt.region_calls(), 50);
    assert_eq!(rt.spawned_workers(), 15);
}

#[test]
fn worker_panic_propagates_to_master() {
    let rt = OpenMp::with_threads(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|ctx| {
            if ctx.thread_num() == 1 {
                panic!("worker boom");
            }
        });
    }));
    assert!(result.is_err());
    // The runtime survives and can run another region.
    let ok = Arc::new(AtomicUsize::new(0));
    let o = ok.clone();
    rt.parallel(move |_| {
        o.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(ok.load(Ordering::SeqCst), 2);
}

#[test]
fn strided_worksharing_covers_the_iteration_space() {
    let rt = OpenMp::with_threads(3);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    rt.parallel(move |ctx| {
        ctx.for_schedule(Schedule::StaticEven, 0, 20, 4, |i| {
            s.lock().unwrap().push(i);
        });
    });
    let mut seen = seen.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 4, 8, 12, 16, 20]);
}

#[test]
fn empty_loops_run_no_iterations_on_any_schedule() {
    let rt = OpenMp::with_threads(2);
    for schedule in [
        Schedule::StaticEven,
        Schedule::StaticChunk(4),
        Schedule::Dynamic(4),
        Schedule::Guided(2),
    ] {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        rt.parallel(move |ctx| {
            ctx.for_schedule(schedule, 5, 4, 1, |_| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0, "{schedule:?}");
    }
}

#[test]
fn single_nowait_does_not_barrier() {
    // A thread that loses the single must be able to proceed immediately:
    // the loser reaches the atomic before the (sleeping) winner finishes.
    let rt = OpenMp::with_threads(2);
    let order = Arc::new(Mutex::new(Vec::new()));
    let o = order.clone();
    rt.parallel(move |ctx| {
        let ran = ctx.single_nowait(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            o.lock().unwrap().push("winner-done");
        });
        if !ran {
            o.lock().unwrap().push("loser-proceeded");
        }
    });
    let order = order.lock().unwrap();
    assert_eq!(
        *order,
        vec!["loser-proceeded", "winner-done"],
        "nowait loser must not wait for the winner"
    );
}

#[test]
fn region_ids_continue_across_many_regions() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let ids = Arc::new(Mutex::new(Vec::new()));
    let i2 = ids.clone();
    api.register_callback(
        Event::Fork,
        Arc::new(move |d| i2.lock().unwrap().push(d.region_id)),
    )
    .unwrap();
    for _ in 0..100 {
        rt.parallel(|_| {});
    }
    let ids = ids.lock().unwrap();
    assert_eq!(*ids, (1..=100).collect::<Vec<u64>>());
}
