//! Exact governor counts for any number of threads and for two threads
//! under one gtid.
//!
//! Every thread counts on a dispatch lane of its own, keyed by its RCU
//! thread slot, with plain loads and stores. That is exact only if no two
//! live threads ever share a lane: a lane shared by gtid (`gtid & 63`, say)
//! loses updates between its threads, and its fate stacks hand one
//! thread's begin fate to another thread's end. One armed governor, on a
//! virtual clock with a budget it cannot meet, samples most events out;
//! eighty threads, then two threads that share gtid 0, admit a fixed
//! begin/end mix and serve requests. Every total must come out exact, and
//! every thread must see as many kept ends as kept begins. Run it
//! optimized too (`scripts/tier1.sh` does): only there are a racing
//! thread's load and store close enough to lose an update reliably.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use ora_core::api::CollectorApi;
use ora_core::event::{Event, EVENT_COUNT};
use ora_core::governor::GovernorConfig;
use ora_core::message::RequestBatch;
use ora_core::registry::EventData;
use ora_core::request::Request;

/// One iteration of every thread's event mix: nested pairs, two kinds.
const MIX: [Event; 8] = [
    Event::LoopBegin,
    Event::TaskBegin,
    Event::TaskEnd,
    Event::TaskBegin,
    Event::TaskEnd,
    Event::LoopEnd,
    Event::ThreadBeginLockWait,
    Event::ThreadEndLockWait,
];

/// The begin/end pairs [`MIX`] fires.
const PAIRS: [(Event, Event); 3] = [
    (Event::LoopBegin, Event::LoopEnd),
    (Event::TaskBegin, Event::TaskEnd),
    (Event::ThreadBeginLockWait, Event::ThreadEndLockWait),
];

/// Requests every thread serves: this many typed ones, and as many
/// two-record batches.
const REQUESTS: u64 = 40;

thread_local! {
    /// Callback runs on this thread, per event.
    static KEPT: RefCell<[u64; EVENT_COUNT]> = const { RefCell::new([0; EVENT_COUNT]) };
}

/// An armed governor that samples down hard: every clock reading is one
/// tick, so each timed dispatch costs at least a tick against a budget
/// of 100 ppm.
fn armed_api() -> CollectorApi {
    let api = CollectorApi::new();
    api.handle_request(Request::Start).unwrap();
    let token = api.intern_callback(Arc::new(|data: &EventData| {
        KEPT.with(|kept| kept.borrow_mut()[data.event.index()] += 1);
    }));
    for event in MIX {
        api.handle_request(Request::Register { event, token })
            .unwrap();
    }
    let ticks = Arc::new(AtomicU64::new(0));
    api.install_governor(GovernorConfig {
        budget_ppm: 100,
        min_window_ticks: 1_000,
        clock: Some(Arc::new(move || ticks.fetch_add(1, Ordering::Relaxed))),
    });
    api
}

/// `threads` threads, thread `t` firing under gtid `gtid_of(t)`, each run
/// `iterations` of [`MIX`] and serve [`REQUESTS`] of each kind; every
/// count must be exact.
fn admit_exactly(threads: usize, iterations: u64, gtid_of: fn(usize) -> usize) {
    let api = armed_api();
    let before = api.health();
    let start = Barrier::new(threads);
    let kept: Vec<[u64; EVENT_COUNT]> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (api, start) = (&api, &start);
                s.spawn(move || {
                    let gtid = gtid_of(t);
                    let mut batch = RequestBatch::new(&[Request::QueryHealth, Request::Start]);
                    start.wait();
                    for i in 0..iterations {
                        for event in MIX {
                            api.event(&EventData::bare(event, gtid));
                        }
                        if i % (iterations / REQUESTS) == 0 {
                            api.handle_request(Request::QueryHealth).unwrap();
                            assert_eq!(api.handle_bytes(batch.as_mut_bytes()), 2);
                        }
                    }
                    KEPT.with(|kept| *kept.borrow())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, kept) in kept.iter().enumerate() {
        for (begin, end) in PAIRS {
            let (begins, ends) = (kept[begin.index()], kept[end.index()]);
            assert_eq!(
                begins, ends,
                "thread {t}: {begin:?} kept {begins}, its end {ends}"
            );
        }
    }
    let status = api.governor().status();
    let observed = api.governor().observed_per_event();
    let fired = threads as u64 * iterations;
    for event in MIX {
        let per_iteration = MIX.iter().filter(|&&e| e == event).count() as u64;
        assert_eq!(
            observed[event.index()],
            fired * per_iteration,
            "{event:?} observations"
        );
    }
    let total: u64 = observed.iter().sum();
    assert_eq!(total, fired * MIX.len() as u64, "per-event totals");
    assert_eq!(
        total,
        status.events_sampled + status.events_skipped,
        "observed == sampled + skipped: {status:?}"
    );
    let delivered: u64 = kept.iter().flat_map(|k| k.iter()).sum();
    assert_eq!(status.events_sampled, delivered, "callback runs");
    assert!(status.events_skipped > 0, "the governor never sampled out");
    assert!(status.events_sampled > 0, "the governor kept nothing");
    let health = api.health();
    assert_eq!(health.events_sampled, status.events_sampled);
    assert_eq!(health.events_skipped, status.events_skipped);
    // Each thread: REQUESTS typed requests and REQUESTS two-record
    // batches.
    assert_eq!(
        health.requests - before.requests,
        threads as u64 * REQUESTS * 3,
        "served requests"
    );
}

#[test]
fn counts_are_exact_past_64_threads_and_under_a_shared_gtid() {
    // Eighty threads, each under its own gtid: more than a gtid-keyed
    // table of 64 lanes holds.
    admit_exactly(80, 4_000, |t| t);
    // Two threads under gtid 0, contending with each other throughout.
    admit_exactly(2, 200_000, |_| 0);
}
