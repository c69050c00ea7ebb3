//! True nested parallelism (`Config::nested`) — the behaviour the paper
//! promises for future compiler releases: nested regions fork real teams,
//! fire fork/join events, and report live parent region IDs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omprt::{Config, OpenMp};
use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraError, Request, Response};

fn nested_rt(outer: usize) -> OpenMp {
    OpenMp::with_config(Config {
        num_threads: outer,
        nested: true,
        ..Config::default()
    })
}

#[test]
fn nested_region_forks_a_real_team() {
    let rt = nested_rt(2);
    let inner_threads = Arc::new(AtomicUsize::new(0));
    let it = inner_threads.clone();
    rt.parallel(|ctx| {
        if ctx.is_master() {
            rt.parallel_n(3, |inner| {
                assert_eq!(inner.num_threads(), 3);
                it.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(inner_threads.load(Ordering::SeqCst), 3);
    // Outer + one nested region.
    assert_eq!(rt.region_calls(), 2);
}

#[test]
fn nested_fork_events_carry_parent_region_ids() {
    let rt = nested_rt(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    for e in [Event::Fork, Event::Join] {
        let log = log.clone();
        api.register_callback(
            e,
            Arc::new(move |d: &EventData| {
                log.lock().unwrap().push(*d);
            }),
        )
        .unwrap();
    }

    rt.parallel(|ctx| {
        if ctx.is_master() {
            rt.parallel_n(2, |_| {});
        }
    });

    let log = log.lock().unwrap();
    let forks: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Fork).collect();
    assert_eq!(forks.len(), 2, "outer fork + nested fork");
    let outer = forks[0];
    let nested = forks[1];
    assert_eq!(outer.parent_region_id, 0);
    assert_eq!(
        nested.parent_region_id, outer.region_id,
        "nested parent is the spawning team's region"
    );
    assert!(nested.region_id > outer.region_id);
    // Joins mirror the forks.
    let joins: Vec<&EventData> = log.iter().filter(|d| d.event == Event::Join).collect();
    assert_eq!(joins.len(), 2);
}

#[test]
fn parent_prid_query_works_inside_nested_regions() {
    let rt = nested_rt(2);
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let observed = Arc::new(Mutex::new(Vec::new()));
    let obs = observed.clone();
    let api2 = api.clone();

    rt.parallel(|ctx| {
        let outer_region = ctx.region_id();
        if ctx.is_master() {
            let api3 = api2.clone();
            let obs = obs.clone();
            rt.parallel_n(2, move |inner| {
                assert_eq!(inner.parent_region_id(), outer_region);
                let cur = api3.handle_request(Request::QueryCurrentPrid).unwrap();
                let parent = api3.handle_request(Request::QueryParentPrid).unwrap();
                obs.lock().unwrap().push((cur, parent, outer_region));
            });
        }
    });

    let observed = observed.lock().unwrap();
    assert_eq!(observed.len(), 2);
    for (cur, parent, outer_region) in observed.iter() {
        assert_eq!(*parent, Response::RegionId(*outer_region));
        if let Response::RegionId(id) = cur {
            assert!(*id > *outer_region);
        } else {
            panic!("expected region id");
        }
    }
}

#[test]
fn doubly_nested_regions_chain_parent_ids() {
    let rt = nested_rt(1);
    let chain = Arc::new(Mutex::new(Vec::new()));
    let c = chain.clone();
    rt.parallel(|outer| {
        let outer_id = outer.region_id();
        rt.parallel_n(1, |mid| {
            let mid_id = mid.region_id();
            assert_eq!(mid.parent_region_id(), outer_id);
            rt.parallel_n(1, |inner| {
                assert_eq!(inner.parent_region_id(), mid_id);
                c.lock()
                    .unwrap()
                    .push((outer_id, mid_id, inner.region_id()));
            });
        });
    });
    let chain = chain.lock().unwrap();
    assert_eq!(chain.len(), 1);
    let (a, b, c) = chain[0];
    assert!(a < b && b < c);
}

#[test]
fn nesting_levels_count_both_serialized_and_real() {
    // Real nesting.
    let rt = nested_rt(1);
    rt.parallel(|outer| {
        assert_eq!(outer.level(), 1);
        rt.parallel_n(1, |mid| {
            assert_eq!(mid.level(), 2);
            rt.parallel_n(1, |inner| {
                assert_eq!(inner.level(), 3);
            });
        });
    });

    // Serialized nesting also increments the level (omp_get_level counts
    // nested regions whether or not they got their own team), and keeps
    // counting through serialized-inside-serialized chains.
    let rt = OpenMp::with_threads(2);
    rt.parallel(|outer| {
        assert_eq!(outer.level(), 1);
        rt.parallel(|inner| {
            assert_eq!(inner.level(), 2);
            assert_eq!(inner.num_threads(), 1);
            rt.parallel(|deepest| {
                assert_eq!(deepest.level(), 3);
                assert_eq!(deepest.num_threads(), 1);
                assert_eq!(deepest.region_id(), inner.region_id());
            });
        });
        // Back at level 1, a fresh serialized nest restarts at 2.
        rt.parallel(|again| assert_eq!(again.level(), 2));
    });
}

#[test]
fn serialized_default_is_unchanged() {
    // Without the flag, nesting still serializes with no fork events.
    let rt = OpenMp::with_threads(2);
    rt.parallel(|ctx| {
        rt.parallel_n(4, |inner| {
            assert_eq!(inner.num_threads(), 1);
            assert_eq!(inner.region_id(), ctx.region_id());
        });
    });
    assert_eq!(rt.region_calls(), 1);
}

#[test]
fn sibling_nested_regions_fork_concurrently() {
    // Every outer-team thread opens its own nested region.
    let rt = nested_rt(3);
    let total_inner = Arc::new(AtomicUsize::new(0));
    let t = total_inner.clone();
    rt.parallel(|_ctx| {
        let t = t.clone();
        rt.parallel_n(2, move |_| {
            t.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(total_inner.load(Ordering::SeqCst), 6);
    assert_eq!(rt.region_calls(), 4, "1 outer + 3 nested");
}

#[test]
fn nested_worksharing_partitions_within_inner_team() {
    let rt = nested_rt(2);
    let sum = Arc::new(AtomicUsize::new(0));
    let s = sum.clone();
    rt.parallel(|ctx| {
        if ctx.is_master() {
            let s = s.clone();
            rt.parallel_n(3, move |inner| {
                let mut local = 0usize;
                inner.for_each(0, 299, |i| local += i as usize);
                s.fetch_add(local, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(sum.load(Ordering::SeqCst), 299 * 300 / 2);
}

#[test]
fn pooled_nested_fork_reuses_pool_workers() {
    // Nested sub-teams lease parked pool workers instead of spawning OS
    // threads: after the first nested fork warms the pool, repeated
    // nested forks leave the worker count untouched.
    let rt = nested_rt(2);
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    rt.parallel(|ctx| {
        if ctx.is_master() {
            rt.parallel_n(4, |_| {});
        }
    });
    let after_first = rt.spawned_workers();
    const ROUNDS: usize = 20;
    rt.parallel(|ctx| {
        if ctx.is_master() {
            for _ in 0..ROUNDS {
                let h = h.clone();
                rt.parallel_n(4, move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), ROUNDS * 4);
    assert_eq!(
        rt.spawned_workers(),
        after_first,
        "repeated nested forks must lease, not spawn"
    );
}

#[test]
fn hand_off_to_a_worker_still_finishing_a_lease() {
    // No sleeps anywhere, so each hand-off below is likely to land while
    // its worker is still restoring its pool identity after the last
    // barrier: a top-level team handing to the workers a nested team just
    // leased, and a nested fork leasing a worker the previous one just
    // returned. Every member must still run exactly once, and the pool
    // must neither grow nor strand a worker outside the idle state.
    use ora_core::state::ThreadState;

    const K: usize = 3;
    const ROUNDS: usize = 2_000;
    let rt = nested_rt(1);
    let ran: Vec<AtomicUsize> = (0..=K).map(|_| AtomicUsize::new(0)).collect();
    let count = |ctx: &omprt::ParCtx<'_>| {
        ran[ctx.thread_num()].fetch_add(1, Ordering::SeqCst);
    };
    let each_ran_once = |what: &str| {
        for (member, n) in ran.iter().enumerate() {
            assert_eq!(n.swap(0, Ordering::SeqCst), 1, "{what}: member {member}");
        }
    };
    for _ in 0..ROUNDS {
        // A nested team leases workers `1..=K` under a 1-thread region...
        rt.parallel_n(1, |_| rt.parallel_n(K + 1, count));
        each_ran_once("nested team");
        // ...and a top-level team hands to those same workers at once.
        rt.parallel_n(K + 1, count);
        each_ran_once("top-level team");
        // Back-to-back nested forks lease the same workers again.
        rt.parallel_n(1, |_| {
            for _ in 0..2 {
                rt.parallel_n(K + 1, count);
                each_ran_once("second lease");
            }
        });
    }
    assert_eq!(rt.spawned_workers(), K, "the pool must not grow");

    // The last workers restore after the master leaves the barrier.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let states = rt.registered_thread_states();
        if states[1..].iter().all(|s| *s == ThreadState::Idle) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "workers not idle: {states:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn leased_sub_team_workers_are_visible_to_state_queries() {
    // Regression: ephemeral nested workers used to bind fresh, unregistered
    // descriptors, so health/state tooling saw an idle pool while a nested
    // region was running flat out. Leased pool workers keep their
    // registered descriptor, so a mid-region snapshot shows them Working.
    use ora_core::state::ThreadState;

    let rt = nested_rt(1);
    let seen_working = Arc::new(AtomicUsize::new(0));
    let sw = seen_working.clone();
    rt.parallel(|_outer| {
        let arrived = AtomicUsize::new(0);
        let release = AtomicUsize::new(0);
        let sw = sw.clone();
        let rt = &rt;
        rt.parallel_n(4, move |inner| {
            arrived.fetch_add(1, Ordering::SeqCst);
            if inner.thread_num() == 0 {
                // Wait until the whole sub-team is inside the region
                // body, then snapshot every registered descriptor.
                while arrived.load(Ordering::SeqCst) < 4 {
                    std::hint::spin_loop();
                }
                let working = rt
                    .registered_thread_states()
                    .into_iter()
                    .filter(|s| *s == ThreadState::Working)
                    .count();
                sw.store(working, Ordering::SeqCst);
                release.store(1, Ordering::SeqCst);
            } else {
                while release.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
    });
    assert!(
        seen_working.load(Ordering::SeqCst) >= 3,
        "the 3 leased sub-team workers must appear Working in the \
         registered-descriptor snapshot, got {}",
        seen_working.load(Ordering::SeqCst)
    );
}

#[test]
fn nested_master_panic_keeps_its_payload() {
    let rt = nested_rt(1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|_| {
            rt.parallel_n(2, |inner| {
                if inner.thread_num() == 0 {
                    panic!("inner master boom");
                }
            });
        });
    }));
    let payload = result.expect_err("the inner master's panic propagates");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"inner master boom"),
        "the master's own payload, not a generic message"
    );
    rt.parallel(|_| {});
}

#[test]
fn nested_panic_propagates() {
    let rt = nested_rt(1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|_| {
            rt.parallel_n(2, |inner| {
                if inner.thread_num() == 1 {
                    panic!("inner boom");
                }
            });
        });
    }));
    assert!(result.is_err());
    // Runtime survives.
    rt.parallel(|_| {});
}

/// Every event each OS thread fires, as `(gtid, thread)` pairs, while
/// each member of a three-thread team forks two nested two-thread
/// regions that barrier and take a contended user lock.
fn event_threads(rt: &OpenMp) -> Vec<(usize, std::thread::ThreadId)> {
    let api = rt.collector_api();
    api.handle_request(Request::Start).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    for e in ora_core::event::ALL_EVENTS {
        let log = log.clone();
        let registered = api.register_callback(
            e,
            Arc::new(move |d: &EventData| {
                log.lock()
                    .unwrap()
                    .push((d.gtid, std::thread::current().id()));
            }),
        );
        assert!(matches!(
            registered,
            Ok(()) | Err(OraError::UnsupportedEvent)
        ));
    }
    let lock = rt.new_lock();
    rt.parallel(|_| {
        for _ in 0..2 {
            rt.parallel_n(2, |inner| {
                inner.barrier();
                lock.set();
                std::thread::yield_now();
                lock.unset();
            });
        }
    });
    api.handle_request(Request::Stop).unwrap();
    let log = log.lock().unwrap().clone();
    log
}

/// An event's gtid is its firing thread's descriptor gtid, never its
/// team member ID: under serialized nesting every outer thread keeps
/// its own gtid inside the nested region, and with real nesting a
/// leased worker fires under its pool gtid, not the member ID it shares
/// with an outer thread.
#[test]
fn an_events_gtid_names_one_thread() {
    for nested in [false, true] {
        let rt = OpenMp::with_config(Config {
            num_threads: 3,
            nested,
            ..Config::default()
        });
        let mut threads_of: std::collections::BTreeMap<usize, Vec<_>> = Default::default();
        for (gtid, thread) in event_threads(&rt) {
            let threads = threads_of.entry(gtid).or_default();
            if !threads.contains(&thread) {
                threads.push(thread);
            }
        }
        for (gtid, threads) in &threads_of {
            assert_eq!(
                threads.len(),
                1,
                "nested {nested}: gtid {gtid} on {threads:?}"
            );
        }
        let gtids: Vec<usize> = threads_of.into_keys().collect();
        if nested {
            assert!(
                gtids.len() > 3 && gtids[..3] == [0, 1, 2],
                "leased workers fire under their own gtids: {gtids:?}"
            );
        } else {
            assert_eq!(gtids, [0, 1, 2]);
        }
    }
}
