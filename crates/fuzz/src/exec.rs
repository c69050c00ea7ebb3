//! Execute a scenario on the real runtime under one collector rung.
//!
//! The executor is the parallel interpretation of the grammar: every
//! team thread walks the op list in lockstep inside a single parallel
//! region, accumulating one `i64` result per op. Mutual-exclusion ops
//! deliberately use a *non-atomic* cell protected only by the construct
//! under test (critical / user lock / ordered turn), so a broken
//! exclusion or a missing release/acquire edge shows up as a lost
//! update in the diff rather than being papered over by an atomic.
//!
//! The run order matters for exact accounting: the runtime is dropped
//! (joining every worker, flushing every in-flight callback) *before*
//! the collection is finished, so `events_observed` and the trace's
//! drain/drop counters reconcile without sleeps or slack.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use collector::discovery::RuntimeHandle;
use collector::modes::{CollectionConfig, CollectionSummary};
use omprt::{Config, OpenMp, ParCtx, WordLock};
use ora_core::governor::GovernorStatus;
use ora_core::request::{ApiHealth, Request};

use crate::scenario::{mix, mix_small, Op, Scenario};

/// A shared non-atomic counter, protected by whatever construct the op
/// under test provides. SAFETY: all access happens inside that
/// construct's critical section (or, for `Master`, on one thread).
struct RaceProbe(UnsafeCell<i64>);
unsafe impl Sync for RaceProbe {}

impl RaceProbe {
    fn new() -> RaceProbe {
        RaceProbe(UnsafeCell::new(0))
    }
    /// One unsynchronized read-modify-write increment.
    ///
    /// # Safety
    /// The caller must hold the op's mutual exclusion.
    unsafe fn bump(&self) {
        let p = self.0.get();
        unsafe { *p = (*p).wrapping_add(1) };
    }
    /// Fold `i` into the cell with the order-sensitive hash.
    ///
    /// # Safety
    /// The caller must be inside the ordered turn for `i`.
    unsafe fn fold(&self, i: i64) {
        let p = self.0.get();
        unsafe { *p = (*p).wrapping_mul(31).wrapping_add(i) };
    }
    fn get(&self) -> i64 {
        unsafe { *self.0.get() }
    }
}

/// Everything one execution produced, for the differ.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-op computed results, same order as `scenario.ops`.
    pub results: Vec<i64>,
    /// Distinct thread IDs that participated in the post-run probe
    /// region (a wedged or skipped worker shows up here).
    pub post_threads: usize,
    /// The runtime's fault counters after the run.
    pub health: ApiHealth,
    /// What the collection observed.
    pub summary: CollectionSummary,
    /// Encoded trace bytes (streaming rungs only).
    pub trace: Option<Vec<u8>>,
    /// Governor snapshots taken right after the attach armed it and at
    /// quiescence, while still armed (governed rung only).
    pub governor: Option<(GovernorStatus, GovernorStatus)>,
}

/// Run `scenario` under `rung` and report everything observable.
pub fn run_under(scenario: &Scenario, rung: CollectionConfig) -> Result<RunOutcome, String> {
    let rt = OpenMp::with_config(Config {
        num_threads: scenario.threads,
        schedule: scenario.schedule.to_schedule(),
        nested: scenario.nested,
        ..Config::default()
    });
    let handle =
        RuntimeHandle::discover_named(rt.symbol_name()).ok_or("runtime symbol did not resolve")?;
    let active = rung
        .attach(&handle)
        .map_err(|e| format!("attach({}) failed: {e}", rung.key()))?;
    let governor_status = || {
        (rung == CollectionConfig::Governed)
            .then(|| handle.query_governor())
            .transpose()
            .map_err(|e| format!("governor status failed: {e:?}"))
    };
    let armed = governor_status()?;

    // Pause/resume gating only makes sense when collection is STARTed;
    // on the paused rung it would *resume* a deliberately quiescent
    // collector, and on the absent rung there is nothing to gate.
    let gates_enabled = matches!(
        rung,
        CollectionConfig::StateQueries
            | CollectionConfig::StreamingTrace
            | CollectionConfig::Governed
    );

    let cells: Vec<OpCell> = scenario
        .ops
        .iter()
        .map(|op| OpCell::for_op(op, &rt))
        .collect();
    let results: Vec<AtomicI64> = scenario.ops.iter().map(|_| AtomicI64::new(0)).collect();
    rt.parallel(|ctx| {
        for ((op, cell), slot) in scenario.ops.iter().zip(&cells).zip(&results) {
            exec_op(
                &rt,
                &handle,
                ctx,
                op,
                cell,
                slot,
                gates_enabled,
                scenario.nested,
            );
        }
    });

    // Post-run probe: the pool must still field a full team.
    let seen = AtomicUsize::new(0);
    rt.parallel(|ctx| {
        seen.fetch_or(1 << ctx.thread_num().min(63), Ordering::Relaxed);
    });
    let post_threads = seen.load(Ordering::Relaxed).count_ones() as usize;

    let health = handle
        .query_health()
        .map_err(|e| format!("OMP_REQ_HEALTH failed: {e:?}"))?;

    // Join every worker (flushing all in-flight callbacks) before the
    // collection snapshot, so event counts reconcile exactly.
    drop(rt);
    // Snapshot the governor at full quiescence, before finish disarms
    // it — the differ's reconciliation invariant is exact here.
    let governor = armed.zip(governor_status()?);
    let (summary, trace) = active
        .finish_with_trace()
        .map_err(|e| format!("finish({}) failed: {e}", rung.key()))?;

    Ok(RunOutcome {
        results: results.iter().map(|r| r.load(Ordering::Relaxed)).collect(),
        post_threads,
        health,
        summary,
        trace,
        governor,
    })
}

/// Per-op shared state, allocated before the region so the closure only
/// captures references.
enum OpCell {
    Sum(AtomicI64),
    Reduce(AtomicU64),
    Probe(RaceProbe),
    /// One shared user lock plus the cell it protects — created before
    /// the region so every thread contends on the *same* lock.
    Lock(omprt::OmpLock, RaceProbe),
    Atomic(AtomicU64),
    None,
}

impl OpCell {
    fn for_op(op: &Op, rt: &OpenMp) -> OpCell {
        match op {
            Op::For { .. }
            | Op::NestedPar { .. }
            | Op::NestedTeam { .. }
            | Op::TaskFlood { .. }
            | Op::TaskProducer { .. }
            | Op::TaskTree { .. } => OpCell::Sum(AtomicI64::new(0)),
            Op::ReduceSum { .. } => OpCell::Reduce(AtomicU64::new(0.0f64.to_bits())),
            Op::ReduceMin { .. } => OpCell::Reduce(AtomicU64::new(f64::INFINITY.to_bits())),
            Op::ReduceMax { .. } => OpCell::Reduce(AtomicU64::new(f64::NEG_INFINITY.to_bits())),
            Op::Ordered { .. } | Op::Critical { .. } | Op::Single { .. } | Op::Master { .. } => {
                OpCell::Probe(RaceProbe::new())
            }
            Op::Lock { .. } => OpCell::Lock(rt.new_lock(), RaceProbe::new()),
            Op::Atomic { .. } => OpCell::Atomic(AtomicU64::new(0)),
            Op::Barrier | Op::Gate => OpCell::None,
        }
    }
}

/// One link of a `NestedTeam` chain: fork a region of `threads`
/// threads, have every member fold `level * 100 + thread_num` into
/// `acc`, and recurse from the inner master until `depth` links exist.
/// The level/parent-region invariants are asserted inline — under real
/// nesting the paper's §IV-E contract (fresh region ID, parent chain,
/// incremented level), serialized the compiler-default contract (outer
/// region ID kept, level still counts the lexical nesting).
fn nested_chain(
    rt: &OpenMp,
    nested: bool,
    threads: usize,
    depth: usize,
    parent_level: u32,
    parent_region: u64,
    acc: &AtomicI64,
) {
    if depth == 0 {
        return;
    }
    rt.parallel_n(threads, |inner| {
        assert_eq!(inner.level(), parent_level + 1, "level must increment");
        if nested {
            assert_eq!(
                inner.num_threads(),
                threads,
                "real nesting forks the full sub-team"
            );
            assert_eq!(
                inner.parent_region_id(),
                parent_region,
                "parent region chain broken"
            );
            assert_ne!(
                inner.region_id(),
                parent_region,
                "sub-team needs its own region"
            );
        } else {
            assert_eq!(inner.num_threads(), 1, "serialized nesting is solo");
            assert_eq!(
                inner.region_id(),
                parent_region,
                "serialized nesting keeps the outer region ID"
            );
        }
        acc.fetch_add(
            (inner.level() as i64) * 100 + inner.thread_num() as i64,
            Ordering::Relaxed,
        );
        if inner.thread_num() == 0 {
            nested_chain(
                rt,
                nested,
                threads,
                depth - 1,
                inner.level(),
                inner.region_id(),
                acc,
            );
        }
    });
}

/// Grow a task tree: each call spawns `fanout` children and each child
/// recurses until `depth` levels exist, counting every node. Levels
/// alternate tied/untied so trees exercise both scheduling paths.
fn grow_tree(scope: &omprt::TaskScope<'_>, nodes: &Arc<AtomicI64>, fanout: usize, depth: usize) {
    for _ in 0..fanout {
        let n = Arc::clone(nodes);
        let body = move |s: &omprt::TaskScope<'_>| {
            n.fetch_add(1, Ordering::Relaxed);
            if depth > 1 {
                grow_tree(s, &n, fanout, depth - 1);
            }
        };
        if depth.is_multiple_of(2) {
            scope.spawn_scoped_untied(body);
        } else {
            scope.spawn_scoped(body);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_op(
    rt: &OpenMp,
    handle: &RuntimeHandle,
    ctx: &ParCtx<'_>,
    op: &Op,
    cell: &OpCell,
    slot: &AtomicI64,
    gates_enabled: bool,
    nested: bool,
) {
    match (op, cell) {
        (Op::For { sched, count }, OpCell::Sum(acc)) => {
            let mut local = 0i64;
            ctx.for_schedule(sched.to_schedule(), 0, count - 1, 1, |i| {
                local = local.wrapping_add(mix(i));
            });
            acc.fetch_add(local, Ordering::Relaxed);
            ctx.barrier();
            if ctx.is_master() {
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        (Op::ReduceSum { count }, OpCell::Reduce(acc)) => {
            let total = ctx.for_reduce_sum(0, count - 1, |i| (i % 97) as f64, acc);
            if ctx.is_master() {
                slot.store(total as i64, Ordering::Relaxed);
            }
        }
        (Op::ReduceMin { count }, OpCell::Reduce(acc)) => {
            let total = ctx.for_reduce_min(0, count - 1, |i| mix_small(i) as f64, acc);
            if ctx.is_master() {
                slot.store(total as i64, Ordering::Relaxed);
            }
        }
        (Op::ReduceMax { count }, OpCell::Reduce(acc)) => {
            let total = ctx.for_reduce_max(0, count - 1, |i| mix_small(i) as f64, acc);
            if ctx.is_master() {
                slot.store(total as i64, Ordering::Relaxed);
            }
        }
        (Op::Ordered { count }, OpCell::Probe(probe)) => {
            ctx.for_ordered(0, count - 1, 1, |i| {
                // SAFETY: inside the ordered turn for `i`; turns are
                // Release/Acquire-chained by the turn word.
                unsafe { probe.fold(i) };
            });
            ctx.barrier();
            if ctx.is_master() {
                slot.store(probe.get(), Ordering::Relaxed);
            }
        }
        (Op::Critical { rounds }, OpCell::Probe(probe)) => {
            static FUZZ: WordLock = WordLock::new();
            for _ in 0..*rounds {
                // SAFETY: inside the named critical section.
                ctx.critical(&FUZZ, || unsafe { probe.bump() });
            }
            ctx.barrier();
            if ctx.is_master() {
                slot.store(probe.get(), Ordering::Relaxed);
            }
        }
        (Op::Lock { rounds }, OpCell::Lock(lock, probe)) => {
            for _ in 0..*rounds {
                lock.set();
                // SAFETY: the shared user lock is held.
                unsafe { probe.bump() };
                lock.unset();
            }
            ctx.barrier();
            if ctx.is_master() {
                slot.store(probe.get(), Ordering::Relaxed);
            }
        }
        (Op::Atomic { rounds }, OpCell::Atomic(acc)) => {
            for _ in 0..*rounds {
                ctx.atomic_update(acc, |v| v.wrapping_add(1));
            }
            ctx.barrier();
            if ctx.is_master() {
                slot.store(acc.load(Ordering::Relaxed) as i64, Ordering::Relaxed);
            }
        }
        (Op::Single { rounds }, OpCell::Probe(probe)) => {
            for _ in 0..*rounds {
                // `single` carries its closing barrier, which orders one
                // round's increment before the next round's executor.
                ctx.single(|| {
                    // SAFETY: exactly one thread per encounter, rounds
                    // separated by the single's barrier.
                    unsafe { probe.bump() };
                });
            }
            if ctx.is_master() {
                slot.store(probe.get(), Ordering::Relaxed);
            }
        }
        (Op::Master { rounds }, OpCell::Probe(probe)) => {
            for _ in 0..*rounds {
                // SAFETY: master-only, one thread.
                ctx.master(|| unsafe { probe.bump() });
            }
            ctx.barrier();
            if ctx.is_master() {
                slot.store(probe.get(), Ordering::Relaxed);
            }
        }
        (Op::TaskFlood { count, untied }, OpCell::Sum(acc)) => {
            for i in 0..*count {
                // SAFETY: `acc` lives past the region; the taskwait
                // below drains every spawned task before the borrow
                // can end.
                unsafe {
                    if *untied {
                        ctx.task_borrowed_untied(move || {
                            acc.fetch_add(mix(i), Ordering::Relaxed);
                        });
                    } else {
                        ctx.task_borrowed(move || {
                            acc.fetch_add(mix(i), Ordering::Relaxed);
                        });
                    }
                }
            }
            ctx.taskwait();
            ctx.barrier();
            if ctx.is_master() {
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        (Op::TaskProducer { count }, OpCell::Sum(acc)) => {
            ctx.barrier();
            if ctx.is_master() {
                for i in 0..*count {
                    // SAFETY: as for TaskFlood — drained by the
                    // taskwait below; untied, so any teammate may run
                    // the closure, which only touches the atomic.
                    unsafe {
                        ctx.task_borrowed_untied(move || {
                            acc.fetch_add(mix(i), Ordering::Relaxed);
                        });
                    }
                }
            }
            ctx.taskwait();
            ctx.barrier();
            if ctx.is_master() {
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        (Op::TaskTree { fanout, depth }, OpCell::Sum(acc)) => {
            ctx.barrier();
            if ctx.is_master() {
                let nodes = Arc::new(AtomicI64::new(0));
                let (f, d) = (*fanout, *depth);
                let n = Arc::clone(&nodes);
                ctx.task_scoped(move |scope| grow_tree(scope, &n, f, d));
                ctx.taskwait();
                acc.fetch_add(nodes.load(Ordering::Relaxed), Ordering::Relaxed);
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            ctx.barrier();
        }
        (Op::Barrier, OpCell::None) => ctx.barrier(),
        (Op::Gate, OpCell::None) => {
            ctx.barrier();
            if ctx.is_master() && gates_enabled {
                let _ = handle.request_one(Request::Pause);
                let _ = handle.request_one(Request::Resume);
            }
            ctx.barrier();
        }
        (Op::NestedTeam { threads, depth }, OpCell::Sum(acc)) => {
            ctx.barrier();
            if ctx.is_master() {
                nested_chain(
                    rt,
                    nested,
                    *threads,
                    *depth,
                    ctx.level(),
                    ctx.region_id(),
                    acc,
                );
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            ctx.barrier();
        }
        (Op::NestedPar { threads, count }, OpCell::Sum(acc)) => {
            ctx.barrier();
            if ctx.is_master() {
                rt.parallel_n(*threads, |inner| {
                    let mut local = 0i64;
                    inner.for_each(0, count - 1, |i| local = local.wrapping_add(mix(i)));
                    acc.fetch_add(local, Ordering::Relaxed);
                });
                slot.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            ctx.barrier();
        }
        _ => unreachable!("op/cell mismatch"),
    }
}
