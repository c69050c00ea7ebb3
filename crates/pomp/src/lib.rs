//! # pomp — a POMP-style source-instrumentation interface
//!
//! The paper's related work (§II) contrasts ORA with POMP, the earlier
//! proposal for a standard OpenMP monitoring interface: "a portable set of
//! instrumentation calls that are designed to be inserted into an
//! application's source code", typically by a source-to-source tool like
//! Opari. POMP's drawbacks, per the paper: the calls are interwoven with
//! application code from the beginning (interfering with compiler
//! analysis/optimization), and the tool never learns how the compiler
//! actually translated the constructs.
//!
//! This crate reproduces that design point so the ORA-vs-POMP comparison
//! is runnable: a set of `pomp_*` instrumentation functions in the Opari
//! naming style ([`hooks`]), a registry of instrumented source regions
//! ([`RegionDescriptor`]), and a monitoring library that timestamps every
//! hook pair ([`PompMonitor`]). Unlike ORA,
//!
//! * the calls sit **in user code**, execute even when no tool is
//!   attached (a no-tool hook still costs an atomic load and two counter
//!   reads), and cannot be unregistered per-event;
//! * the data is keyed by **source region descriptors** supplied at
//!   instrumentation time, not by what the runtime actually did —
//!   serialized nested regions, for instance, are double-counted exactly
//!   as a source-level view would.
//!
//! The workspace's `examples/pomp_compare.rs` and this crate's
//! `tests/pomp_vs_ora.rs` run both systems on the same workload.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ora_core::clock::ticks;
use ora_core::sync::{Mutex, RwLock};

/// The construct kinds POMP instruments (a subset sufficient for the
/// comparison; full POMP covers every OpenMP construct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructKind {
    /// `parallel` regions (`pomp_parallel_{fork,join,begin,end}`).
    Parallel,
    /// Worksharing loops (`pomp_for_{enter,exit}`).
    For,
    /// Barriers (`pomp_barrier_{enter,exit}`).
    Barrier,
    /// Critical sections (`pomp_critical_{enter,exit}`).
    Critical,
}

/// A source region registered by the instrumenter (Opari writes these
/// tables into the instrumented source).
#[derive(Debug, Clone)]
pub struct RegionDescriptor {
    /// Region number assigned by the instrumenter.
    pub id: u32,
    /// Construct kind.
    pub kind: ConstructKind,
    /// Source file.
    pub file: &'static str,
    /// First line of the construct.
    pub begin_line: u32,
    /// Last line of the construct.
    pub end_line: u32,
}

#[derive(Default, Clone, Copy)]
struct RegionStat {
    enters: u64,
    total_ticks: u64,
}

struct MonitorState {
    /// Per-region accumulators, indexed by region id.
    stats: Mutex<Vec<RegionStat>>,
    /// Open enter timestamps per (thread slot, region id). POMP libraries
    /// key by thread; we use a flat slot map sized at attach.
    open: Mutex<std::collections::HashMap<(usize, u32), u64>>,
}

/// The process-global POMP runtime: the instrumented calls always exist
/// and always execute — that is the design point being compared.
pub struct Pomp {
    monitoring: AtomicBool,
    regions: RwLock<Vec<RegionDescriptor>>,
    monitor: RwLock<Option<Arc<MonitorState>>>,
    /// Hooks executed with no monitor attached (the "dormant" cost).
    dormant_calls: AtomicU64,
}

fn global() -> &'static Pomp {
    static POMP: OnceLock<Pomp> = OnceLock::new();
    POMP.get_or_init(|| Pomp {
        monitoring: AtomicBool::new(false),
        regions: RwLock::new(Vec::new()),
        monitor: RwLock::new(None),
        dormant_calls: AtomicU64::new(0),
    })
}

/// Register an instrumented source region; returns its id. (In real POMP
/// the instrumenter emits these tables; programs here call it once per
/// construct.)
pub fn register_region(
    kind: ConstructKind,
    file: &'static str,
    begin_line: u32,
    end_line: u32,
) -> u32 {
    let p = global();
    let mut regions = p.regions.write();
    let id = regions.len() as u32;
    regions.push(RegionDescriptor {
        id,
        kind,
        file,
        begin_line,
        end_line,
    });
    if let Some(m) = p.monitor.read().as_ref() {
        m.stats.lock().resize(regions.len(), RegionStat::default());
    }
    id
}

/// The instrumentation calls inserted into application source. Each takes
/// the region id and the calling thread's number — information the
/// *source* has, as opposed to ORA's runtime-internal context.
pub mod hooks {
    use super::*;

    #[inline]
    fn enter(region: u32, thread: usize) {
        let p = global();
        if !p.monitoring.load(Ordering::Acquire) {
            // The call is still in the instruction stream — this is the
            // no-tool overhead POMP always pays.
            p.dormant_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(m) = p.monitor.read().as_ref() {
            m.open.lock().insert((thread, region), ticks());
        }
    }

    #[inline]
    fn exit(region: u32, thread: usize) {
        let p = global();
        if !p.monitoring.load(Ordering::Acquire) {
            p.dormant_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(m) = p.monitor.read().as_ref() {
            let start = m.open.lock().remove(&(thread, region));
            if let Some(start) = start {
                let dur = ticks().saturating_sub(start);
                let mut stats = m.stats.lock();
                if (region as usize) < stats.len() {
                    stats[region as usize].enters += 1;
                    stats[region as usize].total_ticks += dur;
                }
            }
        }
    }

    /// `POMP_Parallel_fork` + `begin`: master enters the construct.
    pub fn pomp_parallel_begin(region: u32, thread: usize) {
        enter(region, thread);
    }
    /// `POMP_Parallel_end` + `join`.
    pub fn pomp_parallel_end(region: u32, thread: usize) {
        exit(region, thread);
    }
    /// `POMP_For_enter`.
    pub fn pomp_for_enter(region: u32, thread: usize) {
        enter(region, thread);
    }
    /// `POMP_For_exit`.
    pub fn pomp_for_exit(region: u32, thread: usize) {
        exit(region, thread);
    }
    /// `POMP_Barrier_enter`.
    pub fn pomp_barrier_enter(region: u32, thread: usize) {
        enter(region, thread);
    }
    /// `POMP_Barrier_exit`.
    pub fn pomp_barrier_exit(region: u32, thread: usize) {
        exit(region, thread);
    }
    /// `POMP_Critical_enter`.
    pub fn pomp_critical_enter(region: u32, thread: usize) {
        enter(region, thread);
    }
    /// `POMP_Critical_exit`.
    pub fn pomp_critical_exit(region: u32, thread: usize) {
        exit(region, thread);
    }
}

/// Per-region report entry.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// The registered descriptor.
    pub descriptor: RegionDescriptor,
    /// Completed enter/exit pairs.
    pub enters: u64,
    /// Total seconds inside the region (summed over threads).
    pub total_secs: f64,
}

/// An attached POMP monitoring library.
pub struct PompMonitor {
    state: Arc<MonitorState>,
}

impl PompMonitor {
    /// Attach: start timestamping every hook.
    pub fn attach() -> PompMonitor {
        let p = global();
        let state = Arc::new(MonitorState {
            stats: Mutex::new(vec![RegionStat::default(); p.regions.read().len()]),
            open: Mutex::new(Default::default()),
        });
        *p.monitor.write() = Some(state.clone());
        p.monitoring.store(true, Ordering::Release);
        PompMonitor { state }
    }

    /// Detach and report.
    pub fn finish(self) -> Vec<RegionReport> {
        let p = global();
        p.monitoring.store(false, Ordering::Release);
        *p.monitor.write() = None;
        let regions = p.regions.read();
        let stats = self.state.stats.lock();
        regions
            .iter()
            .map(|d| {
                let s = stats.get(d.id as usize).copied().unwrap_or_default();
                RegionReport {
                    descriptor: d.clone(),
                    enters: s.enters,
                    total_secs: s.total_ticks as f64 * 1e-9,
                }
            })
            .collect()
    }
}

/// Hook executions that happened with no monitor attached — the dormant
/// instrumentation cost ORA avoids by living inside the runtime.
pub fn dormant_calls() -> u64 {
    global().dormant_calls.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The POMP runtime is process-global with a single monitor slot, so
    // tests that attach/detach must not interleave.
    fn test_lock() -> ora_core::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn hooks_are_counted_even_without_a_monitor() {
        let _guard = test_lock();
        let region = register_region(ConstructKind::For, "app.c", 10, 20);
        let before = dormant_calls();
        hooks::pomp_for_enter(region, 0);
        hooks::pomp_for_exit(region, 0);
        assert_eq!(dormant_calls(), before + 2);
    }

    #[test]
    fn monitor_times_enter_exit_pairs() {
        let _guard = test_lock();
        let region = register_region(ConstructKind::Parallel, "app.c", 1, 9);
        let monitor = PompMonitor::attach();
        for _ in 0..5 {
            hooks::pomp_parallel_begin(region, 0);
            std::hint::black_box(());
            hooks::pomp_parallel_end(region, 0);
        }
        let report = monitor.finish();
        let entry = report.iter().find(|r| r.descriptor.id == region).unwrap();
        assert_eq!(entry.enters, 5);
        assert!(entry.total_secs >= 0.0);
        assert_eq!(entry.descriptor.kind, ConstructKind::Parallel);
    }

    #[test]
    fn per_thread_keys_do_not_collide() {
        let _guard = test_lock();
        let region = register_region(ConstructKind::Barrier, "app.c", 3, 3);
        let monitor = PompMonitor::attach();
        // Interleaved enters from two "threads".
        hooks::pomp_barrier_enter(region, 0);
        hooks::pomp_barrier_enter(region, 1);
        hooks::pomp_barrier_exit(region, 0);
        hooks::pomp_barrier_exit(region, 1);
        let report = monitor.finish();
        let entry = report.iter().find(|r| r.descriptor.id == region).unwrap();
        assert_eq!(entry.enters, 2);
    }

    #[test]
    fn detach_stops_recording() {
        let _guard = test_lock();
        let region = register_region(ConstructKind::Critical, "app.c", 4, 6);
        let monitor = PompMonitor::attach();
        hooks::pomp_critical_enter(region, 0);
        hooks::pomp_critical_exit(region, 0);
        let report = monitor.finish();
        let before = report
            .iter()
            .find(|r| r.descriptor.id == region)
            .unwrap()
            .enters;
        assert_eq!(before, 1);
        // After finish, hooks fall back to the dormant path.
        let dormant_before = dormant_calls();
        hooks::pomp_critical_enter(region, 0);
        assert_eq!(dormant_calls(), dormant_before + 1);
    }
}
