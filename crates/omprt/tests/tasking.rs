//! Integration tests for the OpenMP 3.0 tasking extension, the
//! worksharing-loop events, and the `sections` construct.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omprt::OpenMp;
use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::Request;
use ora_core::state::ThreadState;

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
fn tasks_all_execute_before_region_end() {
    let rt = OpenMp::with_threads(4);
    let done = Arc::new(AtomicUsize::new(0));
    let d = done.clone();
    rt.parallel(move |ctx| {
        if ctx.is_master() {
            for _ in 0..100 {
                let d = d.clone();
                ctx.task(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // No explicit taskwait: the region-end implicit barrier drains.
    });
    assert_eq!(done.load(Ordering::SeqCst), 100);
}

#[test]
fn borrowed_tasks_may_capture_region_lived_data() {
    let rt = OpenMp::with_threads(2);
    let total = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let weights = [1u64, 2, 3, 4];
        let total = &total;
        if ctx.is_master() {
            for &w in &weights {
                // `total` is borrowed (valid through the taskwait below);
                // `w` is moved. Safety: both outlive the drain point.
                unsafe {
                    ctx.task_borrowed(move || {
                        total.fetch_add(w, Ordering::SeqCst);
                    });
                }
            }
        }
        ctx.taskwait();
        // Taskwait guarantees completion on the creating thread's
        // control path; the worker may arrive before the master has
        // pushed anything and return immediately, so only the master
        // can assert here.
        if ctx.is_master() {
            assert_eq!(total.load(Ordering::SeqCst), 10);
        }
    });
    assert_eq!(total.load(Ordering::SeqCst), 10);
}

#[test]
fn taskwait_is_cheap_when_no_tasks_were_created() {
    let rt = OpenMp::with_threads(2);
    let log = record(&rt, &[Event::TaskWaitBegin]);
    rt.parallel(|ctx| {
        ctx.taskwait();
    });
    // No tasks → no taskwait events (early return), and the implicit
    // barrier did not drain either.
    assert_eq!(log.lock().unwrap().len(), 0);
}

#[test]
fn task_events_pair_and_count() {
    let rt = OpenMp::with_threads(2);
    let log = record(
        &rt,
        &[
            Event::TaskBegin,
            Event::TaskEnd,
            Event::TaskWaitBegin,
            Event::TaskWaitEnd,
        ],
    );
    rt.parallel(|ctx| {
        if ctx.is_master() {
            for _ in 0..10 {
                ctx.task(|| {});
            }
        }
        ctx.taskwait();
    });
    let log = log.lock().unwrap();
    let begins = log.iter().filter(|d| d.event == Event::TaskBegin).count();
    let ends = log.iter().filter(|d| d.event == Event::TaskEnd).count();
    assert_eq!(begins, 10);
    assert_eq!(ends, 10);
    // Every thread that actually waited fired paired taskwait events with
    // matching wait IDs.
    let tw_begins = log
        .iter()
        .filter(|d| d.event == Event::TaskWaitBegin)
        .count();
    let tw_ends = log.iter().filter(|d| d.event == Event::TaskWaitEnd).count();
    assert_eq!(tw_begins, tw_ends);
    assert!(tw_begins >= 1);
}

#[test]
fn tasks_created_by_tasks_complete() {
    let rt = OpenMp::with_threads(2);
    let done = Arc::new(AtomicUsize::new(0));
    let d = done.clone();
    rt.parallel(move |ctx| {
        if ctx.is_master() {
            // A task cannot safely capture `ctx` (it may run on another
            // thread), so nesting is expressed by counting both levels
            // through the shared counter.
            let d1 = d.clone();
            ctx.task(move || {
                d1.fetch_add(1, Ordering::SeqCst);
            });
            let d2 = d.clone();
            ctx.task(move || {
                d2.fetch_add(10, Ordering::SeqCst);
            });
        }
        ctx.taskwait();
        assert_eq!(d.load(Ordering::SeqCst), 11);
    });
    assert_eq!(done.load(Ordering::SeqCst), 11);
}

#[test]
fn taskwait_state_is_observable() {
    let rt = OpenMp::with_threads(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let states = Arc::new(Mutex::new(Vec::new()));
    let s = states.clone();
    let api2 = api.clone();
    // Sample the firing thread's state at TaskWaitBegin.
    api.register_callback(
        Event::TaskWaitBegin,
        Arc::new(move |_| {
            let r = api2.handle_request(Request::QueryState).unwrap();
            s.lock().unwrap().push(r);
        }),
    )
    .unwrap();

    rt.parallel(|ctx| {
        if ctx.is_master() {
            ctx.task(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        }
        ctx.taskwait();
    });

    let states = states.lock().unwrap();
    assert!(!states.is_empty());
    for resp in states.iter() {
        assert_eq!(resp.state(), Some(ThreadState::TaskWait));
        // TaskWait carries its wait-ID kind.
        if let ora_core::request::Response::State { wait_id, .. } = resp {
            let (kind, id) = wait_id.expect("taskwait carries a wait id");
            assert_eq!(kind, ora_core::state::WaitIdKind::Task);
            assert!(id >= 1);
        }
    }
}

#[test]
fn loop_events_carry_sequence_numbers() {
    let rt = OpenMp::with_threads(2);
    let log = record(&rt, &[Event::LoopBegin, Event::LoopEnd]);
    rt.parallel(|ctx| {
        ctx.for_each(0, 9, |_| {});
        ctx.for_each(0, 9, |_| {});
    });
    let log = log.lock().unwrap();
    for gtid in 0..2 {
        let seqs: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid && d.event == Event::LoopBegin)
            .map(|d| d.wait_id)
            .collect();
        assert_eq!(seqs, vec![0, 1], "per-thread loop sequence numbers");
        let end_seqs: Vec<u64> = log
            .iter()
            .filter(|d| d.gtid == gtid && d.event == Event::LoopEnd)
            .map(|d| d.wait_id)
            .collect();
        assert_eq!(end_seqs, vec![0, 1]);
    }
}

#[test]
fn sections_distribute_each_exactly_once() {
    let rt = OpenMp::with_threads(3);
    let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
    let runners = Mutex::new(Vec::new());
    rt.parallel(|ctx| {
        let s0 = || {
            hits[0].fetch_add(1, Ordering::SeqCst);
            runners.lock().unwrap().push(ctx.thread_num());
        };
        let s1 = || {
            hits[1].fetch_add(1, Ordering::SeqCst);
        };
        let s2 = || {
            hits[2].fetch_add(1, Ordering::SeqCst);
        };
        let s3 = || {
            hits[3].fetch_add(1, Ordering::SeqCst);
        };
        let s4 = || {
            hits[4].fetch_add(1, Ordering::SeqCst);
        };
        ctx.sections(&[&s0, &s1, &s2, &s3, &s4]);
        // After the construct's barrier, all sections are done.
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    });
}

#[test]
fn single_copyprivate_broadcasts_to_the_team() {
    let rt = OpenMp::with_threads(4);
    let received = Arc::new(Mutex::new(Vec::new()));
    let r = received.clone();
    rt.parallel(move |ctx| {
        // Exactly one thread computes; everyone receives the same value.
        let value = ctx.single_copy(|| ctx.thread_num() * 100 + 7);
        r.lock().unwrap().push(value);
    });
    let received = received.lock().unwrap();
    assert_eq!(received.len(), 4);
    assert!(received.iter().all(|v| v == &received[0]));
    assert_eq!(received[0] % 100, 7);
}

#[test]
fn single_copyprivate_works_repeatedly() {
    let rt = OpenMp::with_threads(2);
    let sums = Arc::new(AtomicU64::new(0));
    let s = sums.clone();
    rt.parallel(move |ctx| {
        for round in 0..10u64 {
            let v: u64 = ctx.single_copy(|| round * 2);
            s.fetch_add(v, Ordering::SeqCst);
        }
    });
    // Each round broadcasts round*2 to both threads: 2 * 2*(0+..+9) = 180.
    assert_eq!(sums.load(Ordering::SeqCst), 180);
}

#[test]
fn tied_tasks_execute_only_on_their_spawning_thread() {
    let rt = OpenMp::with_threads(4);
    let log = record(&rt, &[Event::TaskBegin]);
    rt.parallel(move |ctx| {
        for _ in 0..8 {
            // The body is inert; the TaskBegin event's gtid identifies
            // the executing thread.
            ctx.task(|| {});
        }
        ctx.taskwait();
    });
    // Tied tasks are owner-pinned: every TaskBegin for the 8 tasks thread
    // N spawned fires on thread N. IDs are assigned in push order
    // globally, so reconstruct ownership from the event stream: each
    // executing thread must have run exactly its own 8.
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 32);
    let mut per_thread = [0usize; 4];
    for d in log.iter() {
        per_thread[d.gtid] += 1;
    }
    assert_eq!(per_thread, [8, 8, 8, 8], "tied tasks never migrate");
}

#[test]
fn untied_tasks_distribute_and_steals_are_counted() {
    let rt = OpenMp::with_threads(4);
    let log = record(&rt, &[Event::TaskBegin]);
    let ran = Arc::new(AtomicUsize::new(0));
    let r = ran.clone();
    rt.parallel(move |ctx| {
        if ctx.is_master() {
            for _ in 0..64 {
                let r = r.clone();
                ctx.task_untied(move || {
                    r.fetch_add(1, Ordering::SeqCst);
                    // Enough work that other threads reach their
                    // taskwait while tasks are still pending.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                });
            }
        }
        // Publish before anyone concludes the pool is quiescent.
        ctx.barrier();
        ctx.taskwait();
    });
    assert_eq!(ran.load(Ordering::SeqCst), 64);
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 64);
    let stolen = log.iter().filter(|d| d.gtid != 0).count();
    assert!(stolen > 0, "untied tasks must migrate off the producer");
    // The scheduler counters surfaced through ApiHealth at region end.
    let health = rt.health();
    assert!(
        health.tasks_stolen >= stolen as u64,
        "health reports {} steals, events show {stolen}",
        health.tasks_stolen
    );
}

#[test]
fn task_trees_spawn_through_the_scope() {
    let rt = OpenMp::with_threads(2);
    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    rt.parallel(move |ctx| {
        if ctx.is_master() {
            let s = s.clone();
            ctx.task_scoped(move |scope| {
                s.fetch_add(1, Ordering::SeqCst);
                for _ in 0..3 {
                    let s = s.clone();
                    scope.spawn_scoped(move |scope| {
                        s.fetch_add(10, Ordering::SeqCst);
                        let s = s.clone();
                        scope.spawn_untied(move || {
                            s.fetch_add(100, Ordering::SeqCst);
                        });
                    });
                }
            });
        }
        ctx.taskwait();
        assert_eq!(s.load(Ordering::SeqCst), 331);
    });
    assert_eq!(sum.load(Ordering::SeqCst), 331);
}

#[test]
fn task_events_carry_task_ids() {
    let rt = OpenMp::with_threads(2);
    let log = record(&rt, &[Event::TaskBegin, Event::TaskEnd]);
    rt.parallel(|ctx| {
        if ctx.is_master() {
            for _ in 0..5 {
                ctx.task(|| {});
            }
        }
        ctx.taskwait();
    });
    let log = log.lock().unwrap();
    let begin_ids: Vec<u64> = log
        .iter()
        .filter(|d| d.event == Event::TaskBegin)
        .map(|d| d.wait_id)
        .collect();
    let mut end_ids: Vec<u64> = log
        .iter()
        .filter(|d| d.event == Event::TaskEnd)
        .map(|d| d.wait_id)
        .collect();
    // Pool-assigned IDs start at 1; begin/end carry the same ID.
    let mut sorted = begin_ids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    end_ids.sort_unstable();
    assert_eq!(end_ids, sorted);
}

#[test]
fn taskwait_executes_descendants_while_waiting() {
    // The master spawns untied work then taskwaits; per the pop order it
    // executes queued tasks itself rather than only blocking, so even a
    // solo team makes progress.
    let rt = OpenMp::with_threads(1);
    let ran = Arc::new(AtomicUsize::new(0));
    let r = ran.clone();
    rt.parallel(move |ctx| {
        for _ in 0..10 {
            let r = r.clone();
            ctx.task_untied(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        ctx.taskwait();
        assert_eq!(r.load(Ordering::SeqCst), 10);
    });
}

#[test]
fn tasks_interleave_with_worksharing() {
    // Producer/consumer: the master queues tasks while everyone also
    // works a loop; the next barrier picks up all of it.
    let rt = OpenMp::with_threads(4);
    let task_sum = AtomicU64::new(0);
    let loop_sum = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let task_sum = &task_sum;
        if ctx.is_master() {
            for i in 0..50u64 {
                // Safety: `task_sum` outlives the implicit barrier below.
                unsafe {
                    ctx.task_borrowed(move || {
                        task_sum.fetch_add(i + 1, Ordering::SeqCst);
                    });
                }
            }
        }
        let mut local = 0u64;
        ctx.for_each(0, 99, |i| local += i as u64);
        ctx.atomic_update(&loop_sum, |v| v + local);
        ctx.implicit_barrier(); // drains the 50 tasks too
        assert_eq!(task_sum.load(Ordering::SeqCst), 50 * 51 / 2);
        assert_eq!(loop_sum.load(Ordering::SeqCst), 99 * 100 / 2);
    });
}

/// ROADMAP item 1's lost wakeup: the master spawns an episode of untied
/// tasks, the team meets at a barrier, and both threads then taskwait.
/// With the eventcount key sampled after the failed pop it guards, the
/// worker could park against an epoch already past every push of the next
/// episode and the region hung as `[ExplicitBarrier, TaskWait]`. The
/// watchdog (this thread) turns a hang into a failure carrying the thread
/// states instead of a stuck test binary.
#[test]
fn barrier_then_taskwait_does_not_lose_the_wakeup() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    const REPS: usize = 10;
    static SUM: AtomicU64 = AtomicU64::new(0);
    let rt = Arc::new(OpenMp::with_threads(2));
    let team_rt = Arc::clone(&rt);
    let (progress, reps_done) = channel();
    let runner = std::thread::spawn(move || {
        for _ in 0..REPS {
            for _ in 0..300 {
                team_rt.parallel(|ctx| {
                    for _ in 0..20 {
                        if ctx.is_master() {
                            for i in 0..64u64 {
                                ctx.task_untied(move || {
                                    SUM.fetch_add(i, Ordering::Relaxed);
                                });
                            }
                        }
                        ctx.barrier();
                        ctx.taskwait();
                    }
                });
            }
            if progress.send(()).is_err() {
                return;
            }
        }
    });
    for rep in 0..REPS {
        match reps_done.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => panic!(
                "repetition {rep} hung; thread states: {:?}",
                rt.registered_thread_states()
            ),
            // The runner panicked; joining it below reports why.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    runner.join().expect("the runner thread panicked");
    let per_episode = 63 * 64 / 2;
    assert_eq!(
        SUM.load(Ordering::Relaxed),
        (REPS * 300 * 20) as u64 * per_episode
    );
}
