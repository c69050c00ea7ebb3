//! Barrier micro-costs: solo, 2-thread and contended 8-thread episodes of
//! the topology-shaped combining tree, and the cost of the ORA events
//! added to the implicit/explicit barrier runtime calls (the events are
//! two of the three the paper's tool registers).

use omprt::{Barrier, OpenMp};
use ora_bench::microbench::Criterion;
use ora_bench::{criterion_group, criterion_main};
use ora_core::event::Event;
use ora_core::request::Request;
use std::sync::Arc;

/// `threads`-wide runtime with its pool already spawned.
fn warm_runtime(threads: usize) -> OpenMp {
    let rt = OpenMp::with_threads(threads);
    rt.parallel(|_| {});
    rt
}

fn bench_barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier");
    g.sample_size(10);

    // Single-thread episode cost: the arithmetic of arrival/release
    // without contention.
    g.bench_function("solo_episode", |b| {
        let barrier = Barrier::new(1);
        b.iter(|| barrier.wait(0));
    });

    // The one-node tree every 2-thread team gets.
    g.bench_function("explicit_barrier_region_2thr", |b| {
        let rt = warm_runtime(2);
        b.iter(|| {
            rt.parallel(|ctx| {
                for _ in 0..8 {
                    ctx.barrier();
                }
            })
        });
    });

    // Contended episodes at 8 threads: every episode crosses arrival,
    // release, counter reset, and (oversubscribed) the park/unpark edge.
    // 16 episodes per region amortize the fork/join cost so the number
    // is dominated by barrier latency.
    g.bench_function("episodes_x16_8thr", |b| {
        let rt = warm_runtime(8);
        b.iter(|| {
            rt.parallel(|ctx| {
                for _ in 0..16 {
                    ctx.barrier();
                }
            })
        });
    });
    g.finish();
}

fn bench_barrier_event_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier_event_cost");
    g.sample_size(10);

    // Barriers with no collector attached.
    {
        let rt = warm_runtime(2);
        g.bench_function("no_collector", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..8 {
                        ctx.barrier();
                    }
                })
            });
        });
    }

    // Barriers with EBAR events registered into an empty callback.
    {
        let rt = warm_runtime(2);
        let api = rt.collector_api();
        api.handle_request(Request::Start).unwrap();
        api.register_callback(Event::ThreadBeginExplicitBarrier, Arc::new(|_| {}))
            .unwrap();
        api.register_callback(Event::ThreadEndExplicitBarrier, Arc::new(|_| {}))
            .unwrap();
        g.bench_function("ebar_events_registered", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..8 {
                        ctx.barrier();
                    }
                })
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_barrier, bench_barrier_event_cost);
criterion_main!(benches);
