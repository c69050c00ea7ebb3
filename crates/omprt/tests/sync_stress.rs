//! Seeded stress tests for the synchronization core: the runtime's one
//! wait primitive (`EventCount`) under oversubscription (teams much
//! larger than the host's core count), many-episode barrier reuse (the
//! tree-node reset edge), and runtime shutdown racing workers that are
//! just entering their parked state.
//!
//! Deterministic given a seed; the default sweep runs under
//! `scripts/stress.sh`. Set `ORA_FAULT_SEED` to replay a specific seed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use omprt::{Barrier, Config, OpenMp, Schedule, Topology};
use ora_core::park::EventCount;
use ora_core::testutil::XorShift64;

fn seed() -> u64 {
    std::env::var("ORA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Seeded jitter: sometimes nothing, sometimes a yield, sometimes a
/// short sleep — enough scheduling noise to drive waiters through every
/// phase (spin, backoff, park) in different interleavings per episode.
fn jitter(rng: &mut XorShift64) {
    match rng.range_usize(0, 8) {
        0 | 1 => {}
        2..=5 => std::thread::yield_now(),
        _ => std::thread::sleep(Duration::from_micros(rng.range_usize(1, 60) as u64)),
    }
}

/// Many-episode barrier reuse with a team far larger than the host's
/// cores: every participant parks/unparks constantly, and each episode
/// re-crosses the counter-reset edge the releaser publishes. A stale
/// tree-node count or a missed wakeup shows up as an assertion failure
/// (phase skew) or a hang. The tree is built from an explicit machine
/// model so the shape under test is independent of the host.
fn oversubscribed_barrier(topo: Topology, threads: usize, episodes: usize, seed: u64) {
    let barrier = Arc::new(Barrier::with_topology(threads, topo));
    let phase = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let barrier = barrier.clone();
            let phase = phase.clone();
            std::thread::spawn(move || {
                let mut rng = XorShift64::new(seed ^ ((tid as u64 + 1) << 32));
                for ep in 0..episodes {
                    assert_eq!(
                        phase.load(Ordering::SeqCst) / threads as u64,
                        ep as u64,
                        "tid {tid} entered episode {ep} early under {topo:?}"
                    );
                    jitter(&mut rng);
                    phase.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(tid);
                    assert!(
                        phase.load(Ordering::SeqCst) >= ((ep + 1) * threads) as u64,
                        "tid {tid} released from episode {ep} early under {topo:?}"
                    );
                    barrier.wait(tid); // separates episodes
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(phase.load(Ordering::SeqCst), (threads * episodes) as u64);
}

/// The process topology (whatever `OMP_ORA_TOPOLOGY` injects, else the
/// host): 16 threads, and 17 so that some node on every layer is partial
/// and the releaser-side reset covers full and partial nodes alike.
#[test]
fn barrier_oversubscribed_many_episodes() {
    oversubscribed_barrier(Topology::current(), 16, 300, seed());
    oversubscribed_barrier(Topology::current(), 17, 300, seed());
}

/// 32-thread oversubscription sweep over tree-shape edge cases: a team
/// far wider than every injected machine, so gtids wrap the slot space
/// and every leaf/subtree sees multiple attached threads. Covers the
/// degenerate 1-package and SMT-less shapes plus an odd team size that
/// leaves partial nodes on every layer.
#[test]
fn barrier_oversubscribed_32_threads_across_topologies() {
    let s = seed();
    for topo in [
        Topology::new(1, 4, 1), // 1 package, SMT-less: package layer degenerates
        Topology::new(1, 2, 4), // single package, deep SMT leaves
        Topology::new(2, 4, 2), // the CI-injected reference shape
        Topology::new(4, 3, 1), // odd cores per package, SMT-less
    ] {
        oversubscribed_barrier(topo, 32, 40, s);
        // Odd team size: partial leaves and a ragged last package.
        oversubscribed_barrier(topo, 29, 40, s);
    }
}

/// 64-thread sweep: heavier oversubscription, including a shape with
/// more packages than the team spans compactly (the root combines
/// everything) and a single giant package (no package layer at all).
#[test]
fn barrier_oversubscribed_64_threads_across_topologies() {
    let s = seed();
    for topo in [
        Topology::new(1, 64, 1), // one giant SMT-less package
        Topology::new(2, 4, 2),  // reference shape, 4x oversubscribed
        Topology::new(8, 1, 1),  // package-per-core: the root does the work
    ] {
        oversubscribed_barrier(topo, 64, 25, s);
        oversubscribed_barrier(topo, 61, 25, s);
    }
}

/// The wait primitive under oversubscription: 12 waiters (far more than
/// cores) on one event count, one notifier, seeded jitter on both sides.
/// A missed wakeup hangs the test; a lost count fails it.
#[test]
fn event_count_oversubscribed_hammer() {
    const WAITERS: usize = 12;
    const ROUNDS: u64 = 400;
    let base_seed = seed();
    let count = EventCount::new(WAITERS);
    let level = AtomicU64::new(0);
    std::thread::scope(|s| {
        for who in 0..WAITERS {
            let (count, level) = (&count, &level);
            s.spawn(move || {
                let mut rng = XorShift64::new(base_seed ^ ((who as u64 + 1) * 0x9e37_79b9));
                for target in 1..=ROUNDS {
                    jitter(&mut rng);
                    count.wait_until(who, 0, || {
                        (level.load(Ordering::SeqCst) >= target).then_some(())
                    });
                }
            });
        }
        let mut rng = XorShift64::new(base_seed ^ 0xdead_beef);
        for _ in 0..ROUNDS {
            jitter(&mut rng);
            level.fetch_add(1, Ordering::SeqCst);
            count.notify_all();
        }
    });
    assert_eq!(level.load(Ordering::SeqCst), ROUNDS);
}

/// A notify racing a waiter's registration: the notifier flips the flag
/// and notifies while the waiter is anywhere between its attempt and
/// parking, over 200 seeded rounds. Every round must terminate;
/// the park protocol forbids the missed-wakeup interleaving.
#[test]
fn notify_racing_registration_never_loses_the_wake() {
    let base_seed = seed();
    for round in 0..200u64 {
        let count = EventCount::new(1);
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| count.wait_until(0, 0, || flag.load(Ordering::SeqCst).then_some(())));
            let mut rng = XorShift64::new(base_seed ^ round);
            jitter(&mut rng);
            flag.store(true, Ordering::SeqCst);
            count.notify_all();
        });
    }
}

/// Runtime teardown racing workers that are just parking on their
/// descriptor doorbells. Dropping the runtime joins every worker, so a
/// missed shutdown wakeup is a hang, not a flake.
#[test]
fn shutdown_races_parking_workers() {
    let base_seed = seed();
    for round in 0..25u64 {
        let mut rng = XorShift64::new(base_seed.wrapping_add(round * 7919));
        let rt = OpenMp::with_threads(8);
        // Between zero and two regions: teardown hits workers that have
        // never run, workers mid-region, and workers just re-parking.
        for _ in 0..rng.range_usize(0, 3) {
            let hits = AtomicU64::new(0);
            rt.parallel(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8);
        }
        jitter(&mut rng);
        drop(rt); // must join all 7 workers without hanging
    }
}

/// Teardown immediately after publication: the master runs one last
/// region and drops the runtime while non-participants of that region
/// (never woken by it) are still parked from long ago.
#[test]
fn shutdown_wakes_workers_skipped_by_narrow_regions() {
    let base_seed = seed();
    for round in 0..25u64 {
        let mut rng = XorShift64::new(base_seed ^ (round << 16));
        let rt = OpenMp::with_config(Config {
            num_threads: 8,
            ..Config::default()
        });
        // Wide region spawns all 8, then narrow regions leave gtids 4..8
        // parked and lagging epochs behind.
        rt.parallel(|_| {});
        for _ in 0..rng.range_usize(1, 4) {
            rt.parallel_n(rng.range_usize(2, 5), |_| {});
        }
        jitter(&mut rng);
        drop(rt);
    }
}

/// End-to-end schedule stress under oversubscription: every schedule
/// kind partitions exactly while 8 threads fight over one core, with the
/// batched claimer on the dynamic path.
#[test]
fn oversubscribed_worksharing_partitions_exactly() {
    let base_seed = seed();
    for (case, schedule) in [
        Schedule::Dynamic(3),
        Schedule::Guided(2),
        Schedule::StaticEven,
        Schedule::StaticChunk(5),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = XorShift64::new(base_seed ^ (case as u64));
        let n = rng.range_i64(200, 2000);
        let rt = OpenMp::with_config(Config {
            num_threads: 8,
            schedule,
            ..Config::default()
        });
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        rt.parallel(|ctx| {
            ctx.for_each(0, n - 1, |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "iteration {i} under {schedule:?} ran a wrong number of times"
            );
        }
    }
}

/// The batched claimer's tail paths (fuzz satellite): trip counts
/// smaller than the team (some threads must claim nothing and still be
/// released by the loop barrier) and counts sitting just off multiples
/// of `BATCH_MAX * chunk * nthreads`, where the batch factor has to
/// shrink and the final partial chunk must be handed out exactly once.
/// Seeded sweep over dynamic and guided chunk sizes; replay a failure
/// with `ORA_FAULT_SEED`.
#[test]
fn claimer_tail_counts_partition_exactly() {
    const BATCH_MAX: i64 = 8;
    let base_seed = seed();
    let threads = 4usize;
    let mut rng = XorShift64::new(base_seed ^ 0x00c1_a13e);
    let mut counts: Vec<i64> = Vec::new();
    // Every count below the team size.
    counts.extend(1..threads as i64);
    // Batch-aligned anchors ± 1..3 for several chunk sizes, plus primes.
    for chunk in [1i64, 2, 3, 5] {
        let base = BATCH_MAX * chunk * threads as i64;
        for eps in [-3, -1, 1, 3] {
            counts.push((base + eps).max(1));
        }
    }
    counts.extend([7, 13, 31, 61, 127, 251, 509]);
    for _ in 0..4 {
        counts.push(rng.range_i64(1, 600));
    }

    for &n in &counts {
        for chunk in [1usize, 2, 3, 5] {
            for schedule in [Schedule::Dynamic(chunk), Schedule::Guided(chunk)] {
                let rt = OpenMp::with_config(Config {
                    num_threads: threads,
                    schedule,
                    ..Config::default()
                });
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let participated = AtomicU64::new(0);
                rt.parallel(|ctx| {
                    let mut rng = XorShift64::new(
                        base_seed ^ ((ctx.thread_num() as u64 + 1) << 24) ^ n as u64,
                    );
                    jitter(&mut rng);
                    ctx.for_each(0, n - 1, |i| {
                        hits[i as usize].fetch_add(1, Ordering::Relaxed);
                    });
                    // The loop's closing barrier must release threads that
                    // claimed nothing; reaching here is the proof.
                    participated.fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "iteration {i} of {n} under {schedule:?} claimed {} time(s)",
                        h.load(Ordering::Relaxed)
                    );
                }
                assert_eq!(
                    participated.load(Ordering::Relaxed),
                    threads as u64,
                    "a thread wedged on the empty tail of {n} under {schedule:?}"
                );
            }
        }
    }
}

/// Ordered-turn hand-off under oversubscription (fuzz satellite): 8
/// threads on a small host fold iterations through a non-commutative
/// rolling hash inside `for_ordered`, with seeded jitter injected
/// right before each turn to shuffle which thread is parked when its
/// turn arrives. Any skipped, repeated, or out-of-order turn changes
/// the hash.
#[test]
fn ordered_turns_stay_in_global_order_when_oversubscribed() {
    let base_seed = seed();
    for round in 0..6u64 {
        let n = XorShift64::new(base_seed ^ round).range_i64(1, 120);
        let rt = OpenMp::with_config(Config {
            num_threads: 8,
            ..Config::default()
        });
        let hash = AtomicU64::new(0);
        rt.parallel(|ctx| {
            let mut rng =
                XorShift64::new(base_seed ^ (round << 8) ^ ((ctx.thread_num() as u64 + 1) << 40));
            ctx.for_ordered(0, n - 1, 1, |i| {
                jitter(&mut rng);
                // Relaxed is enough: the ordered turn word orders the
                // read-modify-write chain across threads.
                let h = hash.load(Ordering::Relaxed);
                hash.store(h.wrapping_mul(31).wrapping_add(i as u64), Ordering::Relaxed);
            });
        });
        let expected = (0..n as u64).fold(0u64, |h, i| h.wrapping_mul(31).wrapping_add(i));
        assert_eq!(
            hash.load(Ordering::Relaxed),
            expected,
            "ordered hand-off broke global order for n={n} (round {round})"
        );
    }
}
