//! Overhead-measurement driver: run a workload with and without ORA
//! collection and report the percentage increase — the quantity plotted in
//! the paper's Figures 4-6.

use collector::{clock, Mode, Profiler, ProfilerConfig, RuntimeHandle};
use omprt::OpenMp;
use ora_core::OraResult;

/// Result of one with/without comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadResult {
    /// Seconds without collection.
    pub base_secs: f64,
    /// Seconds with collection enabled.
    pub collected_secs: f64,
}

impl OverheadResult {
    /// Percentage increase from enabling collection. The paper lists
    /// sub-1% cases as zero overhead; this is the raw value, and the
    /// harnesses round it with `ora_bench::fmt_pct`.
    pub fn overhead_pct(&self) -> f64 {
        if self.base_secs <= 0.0 {
            return 0.0;
        }
        (self.collected_secs - self.base_secs) / self.base_secs * 100.0
    }
}

/// Time one closure in seconds.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let (_, t) = clock::time(f);
    clock::to_secs(t)
}

/// Run `workload` `reps` times and return the minimum wall time — the
/// standard way to suppress scheduler noise on a shared machine.
pub fn best_of(reps: usize, mut workload: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        best = best.min(time_secs(&mut workload));
    }
    best
}

/// Measure the collection overhead of `workload` on `rt`: run it `reps`
/// times bare and `reps` times with a profiler attached (`mode`), taking
/// the best of each.
pub fn measure_overhead(
    rt: &OpenMp,
    reps: usize,
    mode: Mode,
    mut workload: impl FnMut(&OpenMp),
) -> OraResult<OverheadResult> {
    // Warm up the worker pool so thread creation isn't attributed to
    // either side.
    rt.parallel(|_| {});

    let base_secs = best_of(reps, || workload(rt));

    let handle =
        RuntimeHandle::discover_named(rt.symbol_name()).ok_or(ora_core::OraError::Error)?;
    let profiler = Profiler::attach(
        handle,
        ProfilerConfig {
            mode,
            ..ProfilerConfig::default()
        },
    )?;
    let collected_secs = best_of(reps, || workload(rt));
    let _profile = profiler.finish();

    Ok(OverheadResult {
        base_secs,
        collected_secs,
    })
}

/// The §V-B breakdown: split total collection overhead into the
/// measurement/storage component and the communication/callback component
/// by running the workload bare, with empty callbacks, and with the full
/// profiler.
#[derive(Debug, Clone, Copy)]
pub struct OverheadBreakdown {
    /// Seconds with no collection.
    pub base_secs: f64,
    /// Seconds with callbacks registered but recording nothing.
    pub callbacks_secs: f64,
    /// Seconds with full measurement and storage.
    pub full_secs: f64,
}

impl OverheadBreakdown {
    /// Total overhead in seconds.
    pub fn total_overhead(&self) -> f64 {
        (self.full_secs - self.base_secs).max(0.0)
    }

    /// Fraction of the overhead attributable to performance
    /// measurement/storage (the paper reports 81.22% for LU-HP and 99.35%
    /// for SP-MZ).
    pub fn measurement_fraction(&self) -> f64 {
        let total = self.total_overhead();
        if total <= 0.0 {
            return 0.0;
        }
        ((self.full_secs - self.callbacks_secs).max(0.0) / total).min(1.0)
    }

    /// Fraction attributable to runtime↔collector communication
    /// (callbacks and event dispatch).
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total_overhead();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - self.measurement_fraction()
    }
}

/// Measure the full §V-B breakdown of `workload` on `rt`.
pub fn measure_breakdown(
    rt: &OpenMp,
    reps: usize,
    mut workload: impl FnMut(&OpenMp),
) -> OraResult<OverheadBreakdown> {
    rt.parallel(|_| {});
    let base_secs = best_of(reps, || workload(rt));

    let handle =
        RuntimeHandle::discover_named(rt.symbol_name()).ok_or(ora_core::OraError::Error)?;
    let p = Profiler::attach(
        handle.clone(),
        ProfilerConfig {
            mode: Mode::CallbacksOnly,
            ..ProfilerConfig::default()
        },
    )?;
    let callbacks_secs = best_of(reps, || workload(rt));
    p.finish();

    let p = Profiler::attach(handle, ProfilerConfig::default())?;
    let full_secs = best_of(reps, || workload(rt));
    p.finish();

    Ok(OverheadBreakdown {
        base_secs,
        callbacks_secs,
        full_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pct_arithmetic() {
        let r = OverheadResult {
            base_secs: 2.0,
            collected_secs: 2.1,
        };
        assert!((r.overhead_pct() - 5.0).abs() < 1e-9);
        assert_eq!(
            OverheadResult {
                base_secs: 0.0,
                collected_secs: 1.0
            }
            .overhead_pct(),
            0.0
        );
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        let b = OverheadBreakdown {
            base_secs: 1.0,
            callbacks_secs: 1.02,
            full_secs: 1.10,
        };
        let m = b.measurement_fraction();
        let c = b.communication_fraction();
        assert!((m + c - 1.0).abs() < 1e-9);
        assert!(m > c, "measurement should dominate in this example");
        assert!((b.total_overhead() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn breakdown_handles_zero_overhead() {
        let b = OverheadBreakdown {
            base_secs: 1.0,
            callbacks_secs: 1.0,
            full_secs: 1.0,
        };
        assert_eq!(b.measurement_fraction(), 0.0);
        assert_eq!(b.communication_fraction(), 0.0);
    }

    #[test]
    fn measure_overhead_runs_end_to_end() {
        let rt = OpenMp::with_threads(2);
        let r = measure_overhead(&rt, 2, Mode::Full, |rt| {
            for _ in 0..20 {
                rt.parallel(|ctx| {
                    let mut x = 0.0;
                    ctx.for_each(0, 499, |i| x += i as f64);
                    std::hint::black_box(x);
                });
            }
        })
        .unwrap();
        assert!(r.base_secs > 0.0);
        assert!(r.collected_secs > 0.0);
    }

    #[test]
    fn measure_breakdown_runs_end_to_end() {
        let rt = OpenMp::with_threads(2);
        let b = measure_breakdown(&rt, 2, |rt| {
            for _ in 0..20 {
                rt.parallel(|_| {});
            }
        })
        .unwrap();
        assert!(b.base_secs > 0.0);
        let m = b.measurement_fraction();
        assert!((0.0..=1.0).contains(&m));
    }
}
