//! The workloads that drive the OpenMP runtime through the collector
//! ladder: `sync-storm`, `task-flood`, `compute-npb`, and `fleet-live`
//! (the sync-storm generator with its events streamed to a daemon).
//!
//! Work is fixed operation counts, the same on every commit; `--seconds`
//! only decides how many rounds are timed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use omprt::OpenMp;
use ora_trace::analyze::timeline_bytes;
use workloads::npb::{NpbClass, NpbKernel};

use crate::fleet::{self, FleetSide, Transport};
use crate::ladder::{self, BlockOut, Env, Rounds, Rung, Sample};
use crate::metrics::Report;
use crate::offline;
use crate::spans;
use crate::stats;
use crate::Opts;

// Sizing (2-core reference host). One `absent` block of each generator is
// about 45 ms; the governed block of the dense generators is three times
// that, so it spans over a thousand of the governor's 0.1 ms retune
// windows.

/// `sync-storm`: empty regions in the fork-flood part of a block.
pub const FORK_REGIONS: u64 = 10_000;
/// `sync-storm`: barrier episodes in the barrier-storm part (one region).
pub const BARRIER_EPISODES: u64 = 50_000;
/// `task-flood`: tied tasks each thread spawns per spawn-flood episode.
pub const FLOOD_TASKS: u64 = 64;
/// `task-flood`: spawn-flood episodes per block (one region).
pub const FLOOD_EPISODES: u64 = 400;
/// `task-flood`: untied tasks the master spawns per producer-steal episode.
pub const STEAL_TASKS: u64 = 128;
/// `task-flood`: producer-steal episodes per block (one region).
pub const STEAL_EPISODES: u64 = 400;
/// `compute-npb`: CG passes (class W: 114 region calls) per block.
pub const CG_PASSES: u64 = 1;
/// `compute-npb`: EP passes (class B-sim: 3 region calls) per block.
pub const EP_PASSES: u64 = 48;
/// Divisor applied to every count for the warm-up round in set-up.
pub const WARMUP_DIVISOR: u64 = 8;

/// Which generator a ladder drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    SyncStorm,
    TaskFlood,
    ComputeNpb,
}

/// One runtime workload: a generator, the size of its blocks, and the
/// rung that persists its events.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub generator: Generator,
    /// Divisor applied to every count of the generator in a timed block.
    pub divisor: u64,
    /// `Rung::Trace`, or `Rung::Socket` for `fleet-live`: the rung behind
    /// `overhead_ratio`, `events_per_s` and `trace_bytes_per_event`.
    pub trace_rung: Rung,
    /// Seconds one untraced ladder round takes on the reference host;
    /// with `--seconds` it fixes the number of rounds.
    pub round_seconds: f64,
}

impl Spec {
    pub const SYNC_STORM: Spec = Spec {
        generator: Generator::SyncStorm,
        divisor: 1,
        trace_rung: Rung::Trace,
        round_seconds: 0.62,
    };
    pub const TASK_FLOOD: Spec = Spec {
        generator: Generator::TaskFlood,
        divisor: 1,
        trace_rung: Rung::Trace,
        round_seconds: 0.39,
    };
    pub const COMPUTE_NPB: Spec = Spec {
        generator: Generator::ComputeNpb,
        divisor: 1,
        trace_rung: Rung::Trace,
        round_seconds: 0.25,
    };
    /// The sync-storm generator at half size: its socket block is
    /// daemon-bound and about eight times a `trace` block, and a
    /// full-size one would leave too few rounds in a run.
    pub const FLEET_LIVE: Spec = Spec {
        generator: Generator::SyncStorm,
        divisor: 2,
        trace_rung: Rung::Socket,
        round_seconds: 0.45,
    };

    /// The rungs of this workload's ladder. A traced run of a `trace`
    /// ladder adds the ablation rungs, one stage of the pipeline each.
    fn rungs(&self, traced: bool) -> Vec<Rung> {
        let mut rungs = vec![Rung::AbsentA, Rung::AbsentB];
        match (self.trace_rung, self.generator) {
            (Rung::Socket, _) => rungs.push(Rung::Socket),
            (_, Generator::ComputeNpb) => rungs.extend([Rung::Trace, Rung::Profiler]),
            _ => rungs.extend([Rung::Paused, Rung::State, Rung::Trace, Rung::Governed]),
        }
        if traced && self.trace_rung == Rung::Trace {
            rungs.push(Rung::NullCallback);
            if self.generator == Generator::SyncStorm {
                rungs.extend([Rung::RingNoDrain, Rung::Socket]);
            }
        }
        rungs
    }
}

/// Rounds (or passes) of a run whose untraced round takes `round_s`. A
/// traced run adds ablation rungs to every round and probes after the
/// rounds, so it gets half as many (its metrics carry no bounds).
pub fn rounds_for_run(opts: &Opts, round_s: f64) -> usize {
    let seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    ladder::rounds_for(seconds, round_s, 5)
}

/// Cheap deterministic task payload: enough arithmetic that the body
/// cannot be elided, little enough that spawn and dispatch dominate.
#[inline]
fn task_mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// Checksum cell of the task generator. A `static` so tasks can be
/// `'static` closures without reference counting in their bodies.
static TASK_SUM: AtomicU64 = AtomicU64::new(0);

fn task_value(seed: u64, part: u64, episode: u64, index: u64) -> u64 {
    seed ^ (part << 62) ^ (episode << 32) ^ index
}

/// What the task generator's checksum must be, computed sequentially.
fn task_checksum(seed: u64, div: u64) -> u64 {
    let mut sum = 0u64;
    for ep in 0..FLOOD_EPISODES / div {
        for i in 0..FLOOD_TASKS {
            // Every one of the two threads spawns the same batch.
            sum = sum.wrapping_add(
                task_mix(task_value(seed, 0, ep, i)).wrapping_mul(ladder::THREADS as u64),
            );
        }
    }
    for ep in 0..STEAL_EPISODES / div {
        for i in 0..STEAL_TASKS {
            sum = sum.wrapping_add(task_mix(task_value(seed, 1, ep, i)));
        }
    }
    sum
}

/// One block of `generator` with every count divided by `div`. Returns
/// the operations issued and the result to check.
pub fn block(generator: Generator, seed: u64, div: u64, rt: &OpenMp) -> BlockOut {
    match generator {
        Generator::SyncStorm => {
            let regions = FORK_REGIONS / div;
            let episodes = BARRIER_EPISODES / div;
            for _ in 0..regions {
                rt.parallel(|_| {});
            }
            rt.parallel(|ctx| {
                for _ in 0..episodes {
                    ctx.barrier();
                }
            });
            BlockOut {
                ops: regions + 1 + episodes,
                checksum: 0,
            }
        }
        Generator::TaskFlood => {
            TASK_SUM.store(0, Ordering::Relaxed);
            let flood = FLOOD_EPISODES / div;
            let steal = STEAL_EPISODES / div;
            // Spawn-flood: every thread pushes tied tasks onto its own
            // deque, then taskwaits.
            rt.parallel(|ctx| {
                for ep in 0..flood {
                    for i in 0..FLOOD_TASKS {
                        let v = task_value(seed, 0, ep, i);
                        ctx.task(move || {
                            TASK_SUM.fetch_add(task_mix(v), Ordering::Relaxed);
                        });
                    }
                    ctx.taskwait();
                }
            });
            // Producer-steal: only the master spawns (untied, stealable)
            // while its teammate sits in the taskwait stealing; a barrier
            // closes the episode. (The legacy meter's order — barrier,
            // then taskwait — deadlocks a two-thread team about once in
            // 300 regions: both threads end up parked. Recorded in the
            // README; no workload may hang, so the order is swapped.)
            rt.parallel(|ctx| {
                for ep in 0..steal {
                    if ctx.is_master() {
                        for i in 0..STEAL_TASKS {
                            let v = task_value(seed, 1, ep, i);
                            ctx.task_untied(move || {
                                TASK_SUM.fetch_add(task_mix(v), Ordering::Relaxed);
                            });
                        }
                    }
                    ctx.taskwait();
                    ctx.barrier();
                }
            });
            BlockOut {
                ops: flood * FLOOD_TASKS * ladder::THREADS as u64 + steal * STEAL_TASKS,
                checksum: TASK_SUM.load(Ordering::Relaxed),
            }
        }
        Generator::ComputeNpb => {
            let cg = NpbKernel::cg();
            let ep = NpbKernel::ep();
            let cg_passes = (CG_PASSES / div).max(1);
            let ep_passes = (EP_PASSES / div).max(1);
            let mut sum = 0.0;
            for _ in 0..cg_passes {
                sum += cg.run(rt, NpbClass::W);
            }
            for _ in 0..ep_passes {
                sum += ep.run(rt, NpbClass::Bsim);
            }
            BlockOut {
                ops: cg_passes * cg.region_calls(NpbClass::W)
                    + ep_passes * ep.region_calls(NpbClass::Bsim),
                checksum: sum.to_bits(),
            }
        }
    }
}

/// Whether a block's result matches the reference. NPB checksums are
/// floating-point reductions whose order depends on which thread
/// arrives first, so they are compared to 1e-9 relative, as the
/// kernels' own verification does; everything else is exact.
fn checksum_ok(generator: Generator, got: u64, want: u64) -> bool {
    match generator {
        Generator::ComputeNpb => {
            let (got, want) = (f64::from_bits(got), f64::from_bits(want));
            ((got - want) / want.abs().max(1e-30)).abs() < 1e-9
        }
        _ => got == want,
    }
}

/// Check one rung's sample: the block's result, and for streaming rungs
/// the accounting identity `observed == persisted + dropped` (governor
/// decision records are persisted but are not events) with nothing
/// dropped.
fn check_sample(
    generator: Generator,
    rung: Rung,
    sample: &Sample,
    want_checksum: u64,
    report: &mut Report,
) {
    report.expect(
        checksum_ok(generator, sample.out.checksum, want_checksum),
        || format!("{}: block result differs from the reference", rung.key()),
    );
    for why in &sample.failures {
        report.expect(false, || format!("{}: {why}", rung.key()));
    }
    if !matches!(
        rung,
        Rung::Trace | Rung::Governed | Rung::RingNoDrain | Rung::Socket
    ) {
        return;
    }
    let decisions = sample.governor.map_or(0, |g| g.decisions);
    let accounted = sample.persisted + sample.dropped - decisions;
    report.check(
        sample.observed,
        sample.dropped + sample.observed.abs_diff(accounted),
        || {
            format!(
                "{}: observed {} != persisted {} + dropped {} - decisions {decisions}",
                rung.key(),
                sample.observed,
                sample.persisted,
                sample.dropped
            )
        },
    );
}

/// Set up `SETUP_REPEATS` times (pool spawn, discovery, one warm-up round
/// that attaches every rung once at reduced size), keep the last. Returns
/// the environment and the set-up times.
fn setup(rungs: &[Rung], measure: &dyn Fn(&Env, Rung, u64) -> Sample) -> (Env, Vec<f64>) {
    let mut times = Vec::new();
    let mut env = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(env.take());
        let _span = spans::enter("setup");
        let t = Instant::now();
        let e = Env::new();
        for rung in rungs {
            measure(&e, *rung, WARMUP_DIVISOR);
        }
        times.push(t.elapsed().as_secs_f64());
        env = Some(e);
    }
    (env.expect("set up at least once"), times)
}

fn log_summary(name: &str, s: stats::Summary) {
    eprintln!(
        "  {name} {:.4} [{:.4}, {:.4}] n={}",
        s.median, s.q1, s.q3, s.n
    );
}

/// Set the end-to-end metrics a ladder yields, each from the rungs it
/// needs, and the meter's two self-checks.
fn set_ladder_metrics(rounds: &Rounds, trace_rung: Rung, report: &mut Report) {
    let mut set = |name, s: stats::Summary| {
        log_summary(name, s);
        report.set(name, s.median);
    };
    set("bare_ops_per_s", rounds.bare_ops_per_s());
    set("overhead_ratio", rounds.ratio(trace_rung));
    set("events_per_s", rounds.events_per_s(trace_rung));
    set("trace_bytes_per_event", rounds.bytes_per_event(trace_rung));
    for (name, rung) in [
        ("state_overhead_ratio", Rung::State),
        ("governed_overhead_ratio", Rung::Governed),
        ("core.dispatch.paused_ratio", Rung::Paused),
    ] {
        if rounds.has(rung) {
            set(name, rounds.ratio(rung));
        }
    }
    // Printed with every run: `aa.sh` judges the null ratio.
    set("core.dispatch.null_ratio", rounds.null_ratio());
}

/// Set the in-workload per-layer metrics a ladder yields (traced runs).
fn set_layer_metrics(rounds: &Rounds, trace_rung: Rung, report: &mut Report) {
    let trace = rounds.of(trace_rung);
    let med = |f: &dyn Fn(&Sample) -> f64| stats::median(&trace.iter().map(f).collect::<Vec<_>>());
    report.set("collector.attach_s", med(&|s| s.attach_s));
    report.set(
        "collector.callbacks_left_interned",
        med(&|s| s.left_interned as f64),
    );
    report.set("collector.finish_s", med(&|s| s.finish_s));
    report.set(
        "trace.ring.blocked_drops",
        trace.iter().map(|s| s.blocked_drops).sum::<u64>() as f64,
    );
    report.set("trace.ring.written", med(&|s| s.ring_written as f64));
    report.set("trace.drain.chunks", med(&|s| s.chunks as f64));
    report.set(
        "trace.drain.records_per_chunk",
        med(&|s| s.persisted as f64 / s.chunks.max(1) as f64),
    );
    let governed: Vec<_> = rounds
        .of(Rung::Governed)
        .iter()
        .filter_map(|s| s.governor)
        .collect();
    if !governed.is_empty() {
        let g = |f: &dyn Fn(&ladder::GovernorDelta) -> f64| {
            stats::median(&governed.iter().map(f).collect::<Vec<_>>())
        };
        report.set(
            "core.governor.sampled_frac",
            g(&|g| g.sampled as f64 / (g.sampled + g.skipped).max(1) as f64),
        );
        report.set("core.governor.retunes", g(&|g| g.retunes as f64));
        report.set("core.governor.overhead_ppm", g(&|g| g.overhead_ppm as f64));
    }
    if rounds.has(Rung::NullCallback) {
        let above_null = |rung| {
            rounds
                .delta_ns_per_event(rung, Some(Rung::NullCallback), trace_rung)
                .median
        };
        report.set(
            "ablation.null_callback.ns_per_event",
            rounds
                .delta_ns_per_event(Rung::NullCallback, None, trace_rung)
                .median,
        );
        report.set("collector.tracer.ns_per_event", above_null(trace_rung));
        if rounds.has(Rung::State) {
            report.set(
                "collector.state_timer.ns_per_event",
                above_null(Rung::State),
            );
        }
    }
    if rounds.has(Rung::Profiler) {
        report.set(
            "collector.profiler.overhead_ratio",
            rounds.ratio(Rung::Profiler).median,
        );
    }
}

/// What the last timed trace-rung block left behind, kept for
/// verification: the encoded trace (the tee file on the socket rung), how
/// many event records it persisted, and the store export if there was a
/// store.
struct LastTrace {
    trace: Vec<u8>,
    persisted: u64,
    export: Option<Vec<u8>>,
}

/// Take the last trace through the offline pipeline: it must decode to
/// exactly the persisted records with begin/end pairing intact, and a
/// store export must be byte-identical to the offline merge.
fn verify_trace(last: LastTrace, report: &mut Report) -> Result<(), String> {
    let pass = offline::pass(vec![last.trace])?;
    report.check(
        last.persisted,
        last.persisted.abs_diff(pass.records()),
        || {
            format!(
                "decoded {} of {} persisted record(s)",
                pass.records(),
                last.persisted
            )
        },
    );
    let violations = ladder::pairing_violations(&pass.per_rank[0]);
    report.check(pass.records(), violations.len() as u64, || {
        format!(
            "{} pairing violation(s) in the decoded trace, first: {}",
            violations.len(),
            violations[0]
        )
    });
    if let Some(export) = last.export {
        report.check(
            pass.records(),
            u64::from(timeline_bytes(&pass.merged) != export) * pass.records(),
            || "store export differs from the offline merge of the tee".into(),
        );
    }
    Ok(())
}

/// Run one of the four runtime workloads.
pub fn run(spec: Spec, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let Spec {
        generator,
        trace_rung,
        ..
    } = spec;
    let rungs = spec.rungs(opts.traced);
    // The socket rung is `fleet-live`'s trace rung (a Unix socket, teed to
    // a rank file) and sync-storm's last ablation (a socket pair).
    let (transport, tee) = if trace_rung == Rung::Socket {
        (
            Transport::Unix(opts.out_dir.join("fleet-live.sock")),
            Some(opts.out_dir.join("fleet-live.rank0.oratrace")),
        )
    } else {
        (Transport::Loopback, None)
    };
    let seed = opts.seed;
    let measure_at = |env: &Env, rung: Rung, div: u64| -> (Sample, Option<FleetSide>) {
        let b = |rt: &OpenMp| block(generator, seed, div * spec.divisor, rt);
        if rung == Rung::Socket {
            let (sample, side) = fleet::socket_rung(env, &b, &transport, tee.as_deref());
            (sample, Some(side))
        } else {
            (ladder::measure(env, rung, &b), None)
        }
    };

    let (env, setups) = setup(&rungs, &|env, rung, div| measure_at(env, rung, div).0);
    report.set("setup_s", stats::median(&setups));
    report.set("omprt.pool.spawn_s", env.pool_spawn_s);
    let want = match generator {
        Generator::SyncStorm => 0,
        Generator::TaskFlood => task_checksum(seed, spec.divisor),
        // The reference NPB result comes from an unmonitored block.
        Generator::ComputeNpb => block(generator, seed, spec.divisor, &env.rt).checksum,
    };

    let count = rounds_for_run(opts, spec.round_seconds);
    let mut last = None;
    let mut sides = Vec::new();
    let ladder_start = Instant::now();
    let rounds = ladder::run(&rungs, count, &mut |round, rung| {
        spans::enable_for_round(opts.traced, round);
        let (mut sample, side) = measure_at(&env, rung, 1);
        check_sample(generator, rung, &sample, want, &mut report);
        // Only one trace is alive at a time: the trace rung's latest.
        let trace = sample.trace.take();
        if rung == trace_rung {
            let mut side = side;
            last = trace.map(|trace| LastTrace {
                trace,
                persisted: sample.persisted,
                export: side.as_mut().map(|s| std::mem::take(&mut s.export)),
            });
            sides.extend(side);
        }
        sample
    });
    spans::set_enabled(opts.traced);
    eprintln!(
        "  {} timed round(s), {:.2} s each",
        rounds.rounds(),
        ladder_start.elapsed().as_secs_f64() / rounds.rounds() as f64
    );
    rounds.log_blocks();
    set_ladder_metrics(&rounds, trace_rung, &mut report);
    verify_trace(last.ok_or("the trace rung returned no trace")?, &mut report)?;

    if opts.traced {
        set_layer_metrics(&rounds, trace_rung, &mut report);
        report.set(
            "bench.trace_overhead_frac",
            spans::overhead_frac(&rounds.round_totals()),
        );
        if trace_rung == Rung::Socket {
            fleet::set_layer_metrics(&sides, rounds.events_per_s(trace_rung).median, &mut report);
        } else if generator == Generator::SyncStorm {
            crate::probes::ablation_split(&rounds, &mut report);
        }
    }
    report.set("peak_rss_mib", crate::peak_rss_mib()?);
    if let (Transport::Unix(socket), Some(tee)) = (&transport, &tee) {
        let _ = std::fs::remove_file(socket);
        let _ = std::fs::remove_file(tee);
    }
    Ok(report)
}
