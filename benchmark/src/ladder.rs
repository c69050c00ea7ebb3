//! The collector ladder: one generator, every rung, rotated each round.
//!
//! A workload that drives the OpenMP runtime runs `R` rounds. Each round
//! visits every rung of its ladder once, in an order rotated per round so
//! no rung always runs first (warm) or last (after the drainer's
//! allocations). Attach and finish sit outside the timed block. A ratio
//! is the median of per-round ratios against that round's mean `absent`
//! time; `absent-b / absent-a` is the in-run null test of the meter.
//!
//! The streaming rungs use `TraceConfig::default()` with
//! `DropPolicy::Block`, so a pipeline that cannot keep up slows the
//! producer (which the timings show) instead of silently losing records.

use std::sync::Arc;
use std::time::{Duration, Instant};

use collector::{
    clock, CollectionConfig, Profiler, ProfilerConfig, RuntimeHandle, StreamingTracer,
};
use omprt::OpenMp;
use ora_core::event::{Event, ALL_EVENTS};
use ora_core::governor::{GovernorConfig, GovernorStatus, DEFAULT_BUDGET_PPM};
use ora_core::request::{CallbackToken, OraError, Request};
use ora_core::state::ThreadState;
use ora_trace::{DropPolicy, MemorySink, RecordingStats, TraceConfig, TraceSink};

use crate::spans;
use crate::stats::{self, Summary};

/// One rung of a workload's ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// No collector attached (first of the two null-test rungs).
    AbsentA,
    /// No collector attached (second null-test rung).
    AbsentB,
    /// Callbacks registered, event generation paused.
    Paused,
    /// Per-event `OMP_REQ_STATE` round trips (`StateTimer`).
    State,
    /// Every event streamed through ring, drainer and `MemorySink`.
    Trace,
    /// `Trace` with the overhead governor armed at its default budget.
    Governed,
    /// The paper's profiler: fork/join/barrier timing and a callstack
    /// captured at every join.
    Profiler,
    /// Ablation: every event registered with an empty callback.
    NullCallback,
    /// Ablation: the tracer's callbacks and rings, but a drainer that
    /// never sweeps before finish.
    RingNoDrain,
    /// `Trace` streamed through a `SocketSink` into a daemon instead of
    /// a `MemorySink` (see `fleet.rs`).
    Socket,
}

impl Rung {
    pub const fn key(self) -> &'static str {
        match self {
            Rung::AbsentA => "absent-a",
            Rung::AbsentB => "absent-b",
            Rung::Paused => "paused",
            Rung::State => "state",
            Rung::Trace => "trace",
            Rung::Governed => "governed",
            Rung::Profiler => "profiler",
            Rung::NullCallback => "null-callback",
            Rung::RingNoDrain => "ring-no-drain",
            Rung::Socket => "socket",
        }
    }
}

/// A live runtime and the handle a collector discovers it through.
pub struct Env {
    pub rt: OpenMp,
    pub handle: RuntimeHandle,
    /// `OpenMp::with_threads` plus the first region, seconds.
    pub pool_spawn_s: f64,
}

/// Team size: the reference host has two cores.
pub const THREADS: usize = 2;

impl Env {
    /// Spawn the pool (first region included) and discover the runtime.
    pub fn new() -> Env {
        let _span = spans::enter("omprt.pool.spawn");
        let t = Instant::now();
        let rt = OpenMp::with_threads(THREADS);
        rt.parallel(|_| {});
        let pool_spawn_s = t.elapsed().as_secs_f64();
        let handle = RuntimeHandle::discover_named(rt.symbol_name())
            .expect("the runtime exports its collector symbol");
        Env {
            rt,
            handle,
            pool_spawn_s,
        }
    }

    /// Wait until every pooled worker has gone idle after a block, then
    /// give its `ThreadBeginIdle` callback (fired just after the state
    /// store) time to return, so event accounting is exact at finish.
    pub fn quiesce(&self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self
            .rt
            .registered_thread_states()
            .iter()
            .skip(1)
            .any(|s| *s != ThreadState::Idle)
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// What one timed block did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockOut {
    /// Runtime operations issued (regions + barrier episodes, tasks, or
    /// NPB region calls).
    pub ops: u64,
    /// Result of the block's computation, compared across rungs.
    pub checksum: u64,
}

/// Governor counters over one governed block.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorDelta {
    pub sampled: u64,
    pub skipped: u64,
    pub retunes: u64,
    pub overhead_ppm: u64,
    pub decisions: u64,
}

/// One rung's measurements in one round.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The timed block.
    pub block_s: f64,
    pub attach_s: f64,
    /// Quiesce + finish (+ FIN, daemon finish and export on the socket
    /// rung): what persisting the block's events costs after the block.
    pub finish_s: f64,
    pub out: BlockOut,
    /// Events the rung's callbacks observed.
    pub observed: u64,
    /// Records persisted in the final store.
    pub persisted: u64,
    /// Records lost (ring drops).
    pub dropped: u64,
    /// Encoded trace bytes.
    pub bytes: u64,
    pub blocked_drops: u64,
    pub ring_written: u64,
    pub chunks: u64,
    pub governor: Option<GovernorDelta>,
    /// The encoded trace, kept for verification.
    pub trace: Option<Vec<u8>>,
    /// Failed output checks made while finishing (socket rung).
    pub failures: Vec<String>,
    /// Callbacks the rung's collector left interned at finish.
    pub left_interned: u64,
}

/// Per-lane capacity of the `ring-no-drain` ablation: above the densest
/// block's per-thread event count (sync-storm, ~3 x 10^5), and in total
/// about the memory of the default 64 x 16 Ki-slot ring set.
pub const RING_NO_DRAIN_CAPACITY: usize = 1 << 19;

/// Trace configuration of every streaming rung: the defaults, except
/// that a producer on a full lane blocks, and blocks for as long as the
/// drainer lives. (The default yield budget turns a long stall of the
/// drainer — a busy daemon, a descheduled thread on a 2-core host — into
/// drops, and a workload must be one on which no operation fails. A dead
/// drainer still releases the producers through the shutdown flag.)
pub fn trace_config() -> TraceConfig {
    TraceConfig {
        policy: DropPolicy::Block,
        block_yield_limit: u64::MAX,
        ..TraceConfig::default()
    }
}

/// Events `tracer`'s callbacks have counted so far.
pub fn sum_counts<S: TraceSink + 'static>(tracer: &StreamingTracer<S>) -> u64 {
    ALL_EVENTS.iter().map(|e| tracer.count(*e)).sum()
}

/// Quiesce, then wait until the drainer has persisted every event the
/// callbacks counted. A producer still blocked on a full ring when
/// `finish` shuts the rings down would turn its record into a drop; this
/// wait (at most a drain epoch or two) is part of what persisting costs.
pub fn settle<S: TraceSink + 'static>(env: &Env, tracer: &StreamingTracer<S>) {
    env.quiesce();
    let deadline = Instant::now() + Duration::from_secs(2);
    while tracer.health().drained < sum_counts(tracer)
        && !tracer.is_degraded()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Fill a sample's persistence fields from a finished recording.
pub fn record_stats(sample: &mut Sample, stats: &RecordingStats, bytes: u64) {
    sample.persisted = stats.drained();
    sample.dropped = stats.dropped();
    sample.blocked_drops = stats.dropped_blocked;
    sample.ring_written = stats.lanes.iter().map(|l| l.written).sum();
    sample.chunks = stats.chunks as u64;
    sample.bytes = bytes;
}

/// The next callback token the runtime will hand out (tokens are
/// sequential), found by interning and forgetting a throw-away callback.
pub fn token_mark(env: &Env) -> u64 {
    let token = env.handle.intern_callback(Arc::new(|_| {}));
    env.handle.forget_callback(token);
    token.0
}

/// Forget every callback interned since `mark` that its collector left
/// behind at finish, and return how many there were.
///
/// The collectors register through `RuntimeHandle::register` and never
/// forget the tokens, so each finished attachment would otherwise pin
/// its callbacks — and, for a tracer, its whole 64 x 16 Ki-slot ring set
/// — for the life of the runtime. A user attaches once per process; the
/// ladder attaches dozens of times, and without this the process would
/// grow by ~58 MB per streaming attach and time page faults instead of
/// the pipeline. The count is reported as
/// `collector.callbacks_left_interned`, so the leak stays visible.
pub fn reclaim_since(env: &Env, mark: u64) -> u64 {
    (mark + 1..token_mark(env))
        .filter(|id| env.handle.forget_callback(CallbackToken(*id)))
        .count() as u64
}

/// Run `block` under `rung` once: attach, time the block, quiesce and
/// finish. `Rung::Socket` is handled by `fleet::socket_rung`.
pub fn measure(env: &Env, rung: Rung, block: &dyn Fn(&OpenMp) -> BlockOut) -> Sample {
    let mark = token_mark(env);
    let mut sample = measure_rung(env, rung, block);
    sample.left_interned = reclaim_since(env, mark);
    sample
}

/// Time `block` on `env`'s runtime (one span).
pub fn timed_block(env: &Env, block: &dyn Fn(&OpenMp) -> BlockOut) -> (f64, BlockOut) {
    let _span = spans::enter("block");
    let t = Instant::now();
    let out = block(&env.rt);
    (t.elapsed().as_secs_f64(), out)
}

/// The shape every non-streaming rung shares: timed attach, the timed
/// block, then quiesce and a timed finish that returns the events the
/// collector observed.
fn bracketed<T>(
    env: &Env,
    block: &dyn Fn(&OpenMp) -> BlockOut,
    attach: impl FnOnce() -> T,
    finish: impl FnOnce(T) -> u64,
) -> Sample {
    let mut sample = Sample::default();
    let t = Instant::now();
    let attached = {
        let _span = spans::enter("collector.attach");
        attach()
    };
    sample.attach_s = t.elapsed().as_secs_f64();
    (sample.block_s, sample.out) = timed_block(env, block);
    let t = Instant::now();
    env.quiesce();
    let _span = spans::enter("collector.finish");
    sample.observed = finish(attached);
    sample.finish_s = t.elapsed().as_secs_f64();
    sample
}

fn measure_rung(env: &Env, rung: Rung, block: &dyn Fn(&OpenMp) -> BlockOut) -> Sample {
    let _rung_span = spans::enter(rung.key());
    let mut sample = Sample::default();
    match rung {
        Rung::AbsentA | Rung::AbsentB => {
            (sample.block_s, sample.out) = timed_block(env, block);
        }
        Rung::Paused | Rung::State => {
            let config = if rung == Rung::Paused {
                CollectionConfig::RegisteredPaused
            } else {
                CollectionConfig::StateQueries
            };
            return bracketed(
                env,
                block,
                || config.attach(&env.handle).expect("attach"),
                |active| active.finish().expect("finish").events_observed,
            );
        }
        Rung::Profiler => {
            return bracketed(
                env,
                block,
                || Profiler::attach(env.handle.clone(), ProfilerConfig::default()).expect("attach"),
                |profiler| {
                    let observed = profiler.events_observed();
                    let _ = profiler.finish();
                    observed
                },
            );
        }
        Rung::NullCallback => {
            return bracketed(
                env,
                block,
                || {
                    env.handle.request_one(Request::Start).expect("start");
                    let mut tokens = Vec::new();
                    for event in ALL_EVENTS {
                        match env.handle.register(event, Arc::new(|_| {})) {
                            Ok(token) => tokens.push(token),
                            Err(OraError::UnsupportedEvent) => {}
                            Err(e) => panic!("register {event}: {e:?}"),
                        }
                    }
                    tokens
                },
                |tokens| {
                    // Stop clears the registrations; the interned
                    // callbacks are then dropped by token.
                    let _ = env.handle.request_one(Request::Stop);
                    for token in tokens {
                        env.handle.forget_callback(token);
                    }
                    0
                },
            );
        }
        Rung::Trace | Rung::Governed | Rung::RingNoDrain => {
            let config = if rung == Rung::RingNoDrain {
                // Two lanes sized to hold a whole block: nothing is swept
                // until finish, so the block pays for callbacks and ring
                // commits but not for a drainer sharing the cores. (An
                // undersized lane would block, then drop: a counted
                // failure, not a silent one.)
                TraceConfig {
                    lanes: THREADS,
                    capacity_per_lane: RING_NO_DRAIN_CAPACITY,
                    epoch: Duration::from_secs(3600),
                    ..trace_config()
                }
            } else {
                trace_config()
            };
            let t = Instant::now();
            let before = governor_status(env);
            let tracer = {
                let _span = spans::enter("collector.attach");
                let tracer = StreamingTracer::attach(env.handle.clone(), config, MemorySink::new())
                    .expect("attach");
                if rung == Rung::Governed {
                    // As `CollectionConfig::Governed` arms it: default
                    // 2 % budget, the collector's clock, 0.1 ms retune
                    // windows. Armed after attach because installation
                    // calibrates against the final registration state.
                    env.handle.install_governor(GovernorConfig {
                        budget_ppm: DEFAULT_BUDGET_PPM,
                        clock: Some(Arc::new(clock::ticks)),
                        min_window_ticks: 100_000,
                    });
                }
                tracer
            };
            sample.attach_s = t.elapsed().as_secs_f64();
            (sample.block_s, sample.out) = timed_block(env, block);
            let t = Instant::now();
            if rung == Rung::RingNoDrain {
                // Nothing drains before finish, and nothing blocks.
                env.quiesce();
            } else {
                settle(env, &tracer);
            }
            let _span = spans::enter("collector.finish");
            sample.observed = sum_counts(&tracer);
            if rung == Rung::Governed {
                let after = governor_status(env);
                let decisions = env.handle.take_governor_decisions();
                tracer.record_governor_decisions(&decisions);
                sample.governor = Some(GovernorDelta {
                    sampled: after.events_sampled - before.events_sampled,
                    skipped: after.events_skipped - before.events_skipped,
                    retunes: after.retunes - before.retunes,
                    overhead_ppm: after.overhead_ppm,
                    decisions: decisions.len() as u64,
                });
            }
            let finished = tracer.finish();
            if rung == Rung::Governed {
                env.handle.uninstall_governor();
            }
            let (sink, stats) = finished.expect("finish");
            sample.finish_s = t.elapsed().as_secs_f64();
            let bytes = sink.into_bytes();
            record_stats(&mut sample, &stats, bytes.len() as u64);
            sample.trace = Some(bytes);
        }
        Rung::Socket => unreachable!("the socket rung is measured by fleet::socket_rung"),
    }
    sample
}

fn governor_status(env: &Env) -> GovernorStatus {
    env.handle.query_governor().unwrap_or_default()
}

/// Every timed round of a ladder, by rung.
#[derive(Debug, Default)]
pub struct Rounds {
    pub rungs: Vec<Rung>,
    /// `samples[i][round]` belongs to `rungs[i]`.
    pub samples: Vec<Vec<Sample>>,
}

impl Rounds {
    pub fn of(&self, rung: Rung) -> &[Sample] {
        match self.rungs.iter().position(|r| *r == rung) {
            Some(i) => &self.samples[i],
            None => &[],
        }
    }

    pub fn has(&self, rung: Rung) -> bool {
        self.rungs.contains(&rung)
    }

    pub fn rounds(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    pub fn block_times(&self, rung: Rung) -> Vec<f64> {
        self.of(rung).iter().map(|s| s.block_s).collect()
    }

    /// Each round's mean of the two `absent` blocks: the denominator of
    /// every ratio.
    pub fn absent_mean(&self) -> Vec<f64> {
        self.block_times(Rung::AbsentA)
            .iter()
            .zip(self.block_times(Rung::AbsentB))
            .map(|(a, b)| (a + b) / 2.0)
            .collect()
    }

    /// Median of per-round `rung / mean(absent)` block-time ratios.
    pub fn ratio(&self, rung: Rung) -> Summary {
        stats::paired_ratio(&self.block_times(rung), &self.absent_mean())
    }

    /// The null test: per-round `absent-b / absent-a`.
    pub fn null_ratio(&self) -> Summary {
        stats::paired_ratio(
            &self.block_times(Rung::AbsentB),
            &self.block_times(Rung::AbsentA),
        )
    }

    /// Runtime operations per second with no collector, per round.
    pub fn bare_ops_per_s(&self) -> Summary {
        let ops = self.of(Rung::AbsentA).first().map_or(0, |s| s.out.ops) as f64;
        let rates: Vec<f64> = self.absent_mean().iter().map(|t| ops / t).collect();
        stats::summarize(&rates)
    }

    /// Records persisted per second of `rung`'s block plus everything it
    /// takes to persist them afterwards (quiesce, finish, FIN, export).
    pub fn events_per_s(&self, rung: Rung) -> Summary {
        let rates: Vec<f64> = self
            .of(rung)
            .iter()
            .map(|s| s.persisted as f64 / (s.block_s + s.finish_s))
            .collect();
        stats::summarize(&rates)
    }

    /// Encoded bytes per persisted record on `rung`, per round.
    pub fn bytes_per_event(&self, rung: Rung) -> Summary {
        let v: Vec<f64> = self
            .of(rung)
            .iter()
            .map(|s| s.bytes as f64 / s.persisted as f64)
            .collect();
        stats::summarize(&v)
    }

    /// Per-event cost of going from rung `from` (`None`: the round's
    /// mean `absent`) to rung `to`, in wall nanoseconds per event, per
    /// round. The event count is what `events_of` observed in that round
    /// (a rung with empty callbacks counts nothing itself).
    pub fn delta_ns_per_event(&self, to: Rung, from: Option<Rung>, events_of: Rung) -> Summary {
        let base = match from {
            Some(rung) => self.block_times(rung),
            None => self.absent_mean(),
        };
        let v: Vec<f64> = self
            .of(to)
            .iter()
            .zip(base)
            .zip(self.of(events_of))
            .map(|((t, b), e)| (t.block_s - b) * 1e9 / e.observed.max(1) as f64)
            .collect();
        stats::summarize(&v)
    }

    /// Print every round's block times, one row per round (stderr).
    pub fn log_blocks(&self) {
        let keys: Vec<&str> = self.rungs.iter().map(|r| r.key()).collect();
        for (rung, samples) in self.rungs.iter().zip(&self.samples) {
            let med = |f: &dyn Fn(&Sample) -> f64| {
                stats::median(&samples.iter().map(f).collect::<Vec<_>>()) * 1e3
            };
            eprintln!(
                "  {:<14} attach {:6.1} ms  block {:7.1} ms  finish {:6.1} ms",
                rung.key(),
                med(&|s| s.attach_s),
                med(&|s| s.block_s),
                med(&|s| s.finish_s)
            );
        }
        eprintln!("  block ms by round: {}", keys.join(" "));
        for r in 0..self.rounds() {
            let row: Vec<String> = self
                .samples
                .iter()
                .map(|rung| format!("{:.1}", rung[r].block_s * 1e3))
                .collect();
            eprintln!("    {}", row.join(" "));
        }
    }

    /// Each round's total timed-block seconds, over all rungs.
    pub fn round_totals(&self) -> Vec<f64> {
        (0..self.rounds())
            .map(|r| self.samples.iter().map(|rung| rung[r].block_s).sum())
            .collect()
    }
}

/// How many rounds (or passes) a run of `seconds` gets when one takes
/// about `nominal_s` on the reference host, never fewer than `min`. The
/// count is fixed by `--seconds`, not by the clock, so two runs of the
/// same length do the same work and their peak memory is comparable.
pub fn rounds_for(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s) as usize).max(min)
}

/// Run `count` rounds of the ladder (the warm-up round belongs to
/// set-up). `measure` runs one rung once in the given round; callers
/// verify the sample there and drop its trace before returning it, so
/// only one trace is alive at a time.
pub fn run(rungs: &[Rung], count: usize, measure: &mut dyn FnMut(usize, Rung) -> Sample) -> Rounds {
    let mut rounds = Rounds {
        rungs: rungs.to_vec(),
        samples: vec![Vec::new(); rungs.len()],
    };
    for round in 0..count {
        for i in stats::rotation(round, rungs.len()) {
            rounds.samples[i].push(measure(round, rungs[i]));
        }
    }
    rounds
}

/// Begin/end pairing over a decoded trace: the number of violations.
///
/// Collection attaches and finishes while pooled workers sit between
/// regions, so a thread's first idle record may be an `end` (the idle
/// period began before attach) and its last an unfinished `begin`; that,
/// and nothing else, is tolerated.
pub fn pairing_violations(records: &[ora_trace::TraceEvent]) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut depth: BTreeMap<(usize, Event), i64> = BTreeMap::new();
    let mut violations = Vec::new();
    for r in records {
        let Some(pair) = r.event.pair() else { continue };
        if r.event.is_begin() {
            *depth.entry((r.gtid, r.event)).or_insert(0) += 1;
            continue;
        }
        match depth.get_mut(&(r.gtid, pair)) {
            Some(d) if *d > 0 => *d -= 1,
            // The thread's first idle record: its idle period began
            // before attach.
            None if r.event == Event::ThreadEndIdle => {
                depth.insert((r.gtid, pair), 0);
            }
            _ => violations.push(format!(
                "thread {} {} at tick {} ends nothing",
                r.gtid, r.event, r.tick
            )),
        }
    }
    for ((gtid, begin), open) in depth {
        // A pooled worker ends every block idle: one open idle interval
        // per thread is the normal end state.
        let allowed = i64::from(begin == Event::ThreadBeginIdle);
        if open > allowed {
            violations.push(format!("thread {gtid} has {open} unfinished {begin}"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_trace::TraceEvent;

    fn ev(tick: u64, gtid: usize, event: Event) -> TraceEvent {
        TraceEvent {
            tick,
            gtid,
            seq: tick,
            event,
            region_id: 1,
            wait_id: 0,
        }
    }

    #[test]
    fn pairing_tolerates_only_a_leading_end_idle() {
        let clean = [
            ev(1, 1, Event::ThreadEndIdle),
            ev(2, 0, Event::Fork),
            ev(3, 1, Event::ThreadBeginExplicitBarrier),
            ev(4, 1, Event::ThreadEndExplicitBarrier),
            ev(5, 0, Event::Join),
            ev(6, 1, Event::ThreadBeginIdle),
        ];
        assert_eq!(pairing_violations(&clean), Vec::<String>::new());
        // An unfinished begin, and an end that was never begun.
        let broken = [
            ev(1, 0, Event::Fork),
            ev(2, 1, Event::ThreadEndExplicitBarrier),
            ev(3, 1, Event::TaskBegin),
        ];
        assert_eq!(pairing_violations(&broken).len(), 3);
    }

    #[test]
    fn ratios_pair_within_rounds() {
        let sample = |block_s: f64| Sample {
            block_s,
            out: BlockOut {
                ops: 100,
                checksum: 0,
            },
            ..Sample::default()
        };
        let rounds = Rounds {
            rungs: vec![Rung::AbsentA, Rung::AbsentB, Rung::Trace],
            samples: vec![
                vec![sample(1.0), sample(2.0), sample(4.0)],
                vec![sample(1.0), sample(2.0), sample(4.0)],
                vec![sample(3.0), sample(6.0), sample(12.0)],
            ],
        };
        assert_eq!(rounds.rounds(), 3);
        assert_eq!(rounds.ratio(Rung::Trace).median, 3.0);
        assert_eq!(rounds.null_ratio().median, 1.0);
        assert_eq!(rounds.bare_ops_per_s().median, 50.0);
        assert!(rounds.of(Rung::State).is_empty() && !rounds.has(Rung::State));
    }
}
