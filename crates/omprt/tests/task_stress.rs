//! Seeded stress tests for the work-stealing task scheduler under
//! oversubscription: teams far larger than the host's core count pushing
//! tied and untied task storms through the per-thread deques (past
//! their `DEQUE_CAP` overflow depth), and the taskwait parking path in
//! jittered interleavings.
//!
//! Deterministic given a seed; the default sweep runs under
//! `scripts/stress.sh`. Set `ORA_FAULT_SEED` to replay a specific seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use omprt::{Config, OpenMp};
use ora_core::testutil::XorShift64;

fn seed() -> u64 {
    std::env::var("ORA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn jitter(rng: &mut XorShift64) {
    match rng.range_usize(0, 8) {
        0 | 1 => {}
        2..=5 => std::thread::yield_now(),
        _ => std::thread::sleep(Duration::from_micros(rng.range_usize(1, 40) as u64)),
    }
}

/// The closed-form checksum every scenario converges to: each spawned
/// task contributes `mix(tag)` exactly once, whatever thread ran it.
fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// Every thread of an oversubscribed team spawns a seeded mix of tied
/// and untied tasks across several episodes, with scheduling jitter
/// between spawns, then taskwaits. Tied tasks must still land on their
/// spawner, untied tasks may migrate; either way the checksum is exact
/// and the pool is quiescent at every episode boundary.
#[test]
fn oversubscribed_mixed_task_storm_keeps_the_checksum() {
    let seed = seed();
    let threads = 16;
    let episodes = 12;
    let per_thread = 40;
    let rt = OpenMp::with_config(Config {
        num_threads: threads,
        ..Config::default()
    });
    let sum = Arc::new(AtomicU64::new(0));
    let expected: u64 = (0..episodes as u64)
        .flat_map(|ep| (0..threads as u64 * per_thread as u64).map(move |i| mix((ep << 32) | i)))
        .fold(0u64, u64::wrapping_add);
    let s = sum.clone();
    rt.parallel(move |ctx| {
        let mut rng = XorShift64::new(seed ^ ((ctx.thread_num() as u64 + 1) << 24));
        for ep in 0..episodes as u64 {
            for k in 0..per_thread as u64 {
                let tag = (ep << 32) | (ctx.thread_num() as u64 * per_thread as u64 + k);
                let s = s.clone();
                if rng.range_usize(0, 2) == 0 {
                    ctx.task(move || {
                        s.fetch_add(mix(tag), Ordering::Relaxed);
                    });
                } else {
                    ctx.task_untied(move || {
                        s.fetch_add(mix(tag), Ordering::Relaxed);
                    });
                }
                jitter(&mut rng);
            }
            ctx.taskwait();
            // taskwait drains the whole team's pool to quiescence, but a
            // *peer* may spawn its episode-N+1 tasks before this thread
            // checks, so only a barriered check is exact.
            ctx.barrier();
            if ctx.is_master() {
                let partial: u64 = (0..=ep)
                    .flat_map(|e| {
                        (0..threads as u64 * per_thread as u64).map(move |i| mix((e << 32) | i))
                    })
                    .fold(0u64, u64::wrapping_add);
                assert_eq!(
                    s.load(Ordering::SeqCst),
                    partial,
                    "episode {ep} drained with a wrong checksum"
                );
            }
            ctx.barrier();
        }
    });
    assert_eq!(sum.load(Ordering::SeqCst), expected);
}

/// A single producer floods far past the per-thread deque capacity while
/// an oversubscribed team steals: exercises a deque deeper than
/// `DEQUE_CAP`, its overflow count, and the park/wake path (consumers park waiting for work, the producer's
/// pushes must wake them).
#[test]
fn producer_flood_past_deque_capacity_drains_exactly_once() {
    let seed = seed();
    let threads = 12;
    // Well past DEQUE_CAP (256) so the producer's deque runs deep.
    let tasks = 700u64;
    let rt = OpenMp::with_config(Config {
        num_threads: threads,
        ..Config::default()
    });
    let sum = Arc::new(AtomicU64::new(0));
    let count = Arc::new(AtomicU64::new(0));
    let expected: u64 = (0..tasks).map(mix).fold(0u64, u64::wrapping_add);
    let (s, c) = (sum.clone(), count.clone());
    rt.parallel(move |ctx| {
        let mut rng = XorShift64::new(seed ^ 0xF100D);
        if ctx.is_master() {
            for i in 0..tasks {
                let (s, c) = (s.clone(), c.clone());
                ctx.task_untied(move || {
                    s.fetch_add(mix(i), Ordering::Relaxed);
                    c.fetch_add(1, Ordering::Relaxed);
                });
                if i % 64 == 0 {
                    jitter(&mut rng);
                }
            }
        }
        ctx.barrier();
        ctx.taskwait();
        assert_eq!(c.load(Ordering::SeqCst), tasks, "exactly-once execution");
    });
    assert_eq!(sum.load(Ordering::SeqCst), expected);
    let health = rt.health();
    assert!(
        health.task_overflows > 0,
        "a {tasks}-task flood must push past DEQUE_CAP"
    );
}

/// Task trees under oversubscription: every thread roots a tree that
/// fans out through `TaskScope` spawns (tied and untied levels mixed by
/// the seed). The region-end implicit barrier must drain all
/// descendants, including grandchildren spawned by stolen children.
#[test]
fn nested_task_trees_drain_at_region_end() {
    let seed = seed();
    let threads = 10;
    let fanout = 3u64;
    let rt = OpenMp::with_config(Config {
        num_threads: threads,
        ..Config::default()
    });
    let nodes = Arc::new(AtomicU64::new(0));
    // Each root spawns `fanout` children, each child `fanout` leaves:
    // 1 + 3 + 9 nodes per root per episode.
    let per_root = 1 + fanout + fanout * fanout;
    let n = nodes.clone();
    rt.parallel(move |ctx| {
        let mut rng = XorShift64::new(seed ^ ((ctx.thread_num() as u64 + 1) << 16));
        for _ in 0..6 {
            let untied_children = rng.range_usize(0, 2) == 0;
            let n = n.clone();
            ctx.task_scoped(move |scope| {
                n.fetch_add(1, Ordering::Relaxed);
                for _ in 0..fanout {
                    let n = n.clone();
                    let spawn_leaf = move |scope: &omprt::TaskScope<'_>| {
                        n.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..fanout {
                            let n = n.clone();
                            scope.spawn_untied(move || {
                                n.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    };
                    if untied_children {
                        scope.spawn_scoped_untied(spawn_leaf);
                    } else {
                        scope.spawn_scoped(spawn_leaf);
                    }
                }
            });
            jitter(&mut rng);
        }
        // No explicit taskwait: the region-end implicit barrier must
        // reach global quiescence across the whole forest.
    });
    assert_eq!(
        nodes.load(Ordering::SeqCst),
        threads as u64 * 6 * per_root,
        "every tree node ran exactly once"
    );
}
