//! A nested fork that asks for more threads than the pool may hold.
//!
//! In a file of its own, not in `nested.rs`: it parks five hundred
//! threads on one barrier, and test functions of one file run
//! concurrently — starving the leased workers of
//! `pooled_nested_fork_reuses_pool_workers` long enough for its
//! pool-growth bound to flake.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omprt::{Config, OpenMp};
use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::Request;

#[test]
fn nested_fork_past_the_pool_cap_delivers_a_smaller_team() {
    // The pool is capped (top-level team plus every lease), so a nested
    // fork asking for more than the cap gets the threads that exist —
    // OpenMP allows a `parallel` to deliver fewer than requested. The
    // inner team must say so (`num_threads` is its real size, and its
    // barrier waits for exactly that many), and the fork/join/level
    // contract is the same as for any other nested region.
    const REQUESTED: usize = 600;
    let rt = OpenMp::with_config(Config {
        num_threads: 1,
        nested: true,
        ..Config::default()
    });
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

    let reported = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    rt.parallel(|outer| {
        rt.parallel_n(REQUESTED, |inner| {
            assert_eq!(inner.level(), 2);
            assert_eq!(inner.parent_region_id(), outer.region_id());
            reported.store(inner.num_threads(), Ordering::SeqCst);
            ran.fetch_add(1, Ordering::SeqCst);
            inner.barrier();
            // Past the barrier every member of the real team has run.
            assert_eq!(ran.load(Ordering::SeqCst), inner.num_threads());
        });
    });

    let size = reported.load(Ordering::SeqCst);
    assert!(
        1 < size && size < REQUESTED,
        "the cap must bite: team of {size} for {REQUESTED} requested"
    );
    assert_eq!(ran.load(Ordering::SeqCst), size);
    assert_eq!(
        size,
        1 + rt.spawned_workers(),
        "the inner master plus every pooled worker"
    );

    let log = log.lock().unwrap();
    let ids = |e: Event| -> Vec<(u64, u64)> {
        log.iter()
            .filter(|d| d.event == e)
            .map(|d| (d.region_id, d.parent_region_id))
            .collect()
    };
    let (forks, mut joins) = (ids(Event::Fork), ids(Event::Join));
    joins.reverse();
    assert_eq!(forks.len(), 2, "outer fork + nested fork");
    assert_eq!(forks, joins, "joins mirror the forks, innermost first");
    assert_eq!(forks[1].1, forks[0].0, "nested parent is the outer region");
}
