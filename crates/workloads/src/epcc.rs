//! The EPCC synchronization microbenchmarks (syncbench).
//!
//! Reimplementation of the overhead-measurement methodology used in the
//! paper's §V-A: for each OpenMP directive, measure a *reference* time
//! (the delay workload alone) and a *test* time (the same workload wrapped
//! in the directive, repeated `inner_reps` times), over `outer_reps`
//! repetitions; the per-instance directive overhead is the difference of
//! the per-iteration times. The paper runs "several instances of parallel
//! region, parallel for, and reduction directives (about 20000 each)" —
//! the default paper-scale config reproduces that count.

use std::sync::atomic::{AtomicU64, Ordering};

use collector::clock;
use omprt::{OpenMp, RegionHandle, SourceFunction, WordLock};

/// The directives syncbench measures (the x-axis of the paper's Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Directive {
    /// `#pragma omp parallel`
    Parallel,
    /// `#pragma omp for` inside an open parallel region
    For,
    /// `#pragma omp parallel for`
    ParallelFor,
    /// `#pragma omp barrier`
    Barrier,
    /// `#pragma omp single`
    Single,
    /// `#pragma omp critical`
    Critical,
    /// `omp_set_lock` / `omp_unset_lock`
    Lock,
    /// `#pragma omp ordered`
    Ordered,
    /// `#pragma omp atomic`
    Atomic,
    /// `reduction(+:x)` on a parallel region
    Reduction,
}

/// All directives in report order.
pub const ALL_DIRECTIVES: [Directive; 10] = [
    Directive::Parallel,
    Directive::For,
    Directive::ParallelFor,
    Directive::Barrier,
    Directive::Single,
    Directive::Critical,
    Directive::Lock,
    Directive::Ordered,
    Directive::Atomic,
    Directive::Reduction,
];

impl Directive {
    /// Display name matching EPCC's.
    pub const fn name(self) -> &'static str {
        match self {
            Directive::Parallel => "PARALLEL",
            Directive::For => "FOR",
            Directive::ParallelFor => "PARALLEL FOR",
            Directive::Barrier => "BARRIER",
            Directive::Single => "SINGLE",
            Directive::Critical => "CRITICAL",
            Directive::Lock => "LOCK/UNLOCK",
            Directive::Ordered => "ORDERED",
            Directive::Atomic => "ATOMIC",
            Directive::Reduction => "REDUCTION",
        }
    }
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct EpccConfig {
    /// Outer repetitions (per-directive statistics sample size).
    pub outer_reps: usize,
    /// Directive instances per outer repetition.
    pub inner_reps: usize,
    /// Delay-loop length (flops) of the synthetic workload.
    pub delay_len: usize,
}

impl Default for EpccConfig {
    fn default() -> Self {
        // Fast defaults for tests; `paper_scale` reproduces §V-A.
        EpccConfig {
            outer_reps: 4,
            inner_reps: 64,
            delay_len: 128,
        }
    }
}

impl EpccConfig {
    /// The paper's scale: outer × inner = 20 000 directive instances.
    pub fn paper_scale() -> Self {
        EpccConfig {
            outer_reps: 20,
            inner_reps: 1_000,
            delay_len: 500,
        }
    }
}

/// Statistics of one directive's overhead, in seconds per instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Mean overhead per directive instance.
    pub mean: f64,
    /// Standard deviation over outer repetitions.
    pub sd: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// Mean raw test time per instance (directive + delay), before the
    /// reference is subtracted — the base for overhead-percentage plots.
    pub raw_mean: f64,
}

fn stats(samples: &[f64], raw_mean: f64) -> Stat {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    Stat {
        mean,
        sd: var.sqrt(),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        raw_mean,
    }
}

/// The EPCC delay workload: a dependent floating-point loop the compiler
/// cannot elide.
#[inline(never)]
pub fn delay(len: usize) -> f64 {
    let mut a = 0.0f64;
    for i in 0..len {
        a += (i as f64) * 1e-9;
        a = std::hint::black_box(a);
    }
    a
}

struct Regions {
    parallel: RegionHandle,
    parallel_for: RegionHandle,
    work: RegionHandle,
    reduction: RegionHandle,
}

fn regions() -> &'static Regions {
    use std::sync::OnceLock;
    static REGIONS: OnceLock<Regions> = OnceLock::new();
    REGIONS.get_or_init(|| {
        let f = SourceFunction::new("epcc_syncbench", "epcc.rs", 1);
        Regions {
            parallel: f.region("parallel", 10),
            parallel_for: f.loop_region("parfor", 20),
            work: f.region("work", 30),
            reduction: f.loop_region("reduction", 40),
        }
    })
}

/// Measure one directive's per-instance overhead on `rt`.
pub fn measure(rt: &OpenMp, directive: Directive, cfg: &EpccConfig) -> Stat {
    let inner = cfg.inner_reps;
    let dlen = cfg.delay_len;
    let nthreads = rt.num_threads();

    let mut samples = Vec::with_capacity(cfg.outer_reps);
    let mut raw_total = 0.0f64;

    for _ in 0..cfg.outer_reps {
        // Reference: the delay alone, once per inner rep.
        let (_, ref_ticks) = clock::time(|| {
            for _ in 0..inner {
                std::hint::black_box(delay(dlen));
            }
        });
        let reference = clock::to_secs(ref_ticks) / inner as f64;

        let (_, test_ticks) = clock::time(|| run_directive(rt, directive, inner, dlen, nthreads));
        let test = clock::to_secs(test_ticks) / inner as f64;

        raw_total += test;
        samples.push(test - reference);
    }

    stats(&samples, raw_total / cfg.outer_reps as f64)
}

fn run_directive(rt: &OpenMp, directive: Directive, inner: usize, dlen: usize, nthreads: usize) {
    let r = regions();
    match directive {
        Directive::Parallel => {
            for _ in 0..inner {
                rt.parallel_region(&r.parallel, |_| {
                    std::hint::black_box(delay(dlen));
                });
            }
        }
        Directive::For => {
            rt.parallel_region(&r.work, |ctx| {
                for _ in 0..inner {
                    ctx.for_each_barrier(0, nthreads as i64 - 1, |_| {
                        std::hint::black_box(delay(dlen));
                    });
                }
            });
        }
        Directive::ParallelFor => {
            for _ in 0..inner {
                rt.parallel_region(&r.parallel_for, |ctx| {
                    ctx.for_each(0, nthreads as i64 - 1, |_| {
                        std::hint::black_box(delay(dlen));
                    });
                });
            }
        }
        Directive::Barrier => {
            rt.parallel_region(&r.work, |ctx| {
                for _ in 0..inner {
                    std::hint::black_box(delay(dlen));
                    ctx.barrier();
                }
            });
        }
        Directive::Single => {
            rt.parallel_region(&r.work, |ctx| {
                for _ in 0..inner {
                    ctx.single(|| {
                        std::hint::black_box(delay(dlen));
                    });
                }
            });
        }
        Directive::Critical => {
            static EPCC: WordLock = WordLock::new();
            rt.parallel_region(&r.work, |ctx| {
                for _ in 0..inner / nthreads.max(1) {
                    ctx.critical(&EPCC, || {
                        std::hint::black_box(delay(dlen));
                    });
                }
            });
        }
        Directive::Lock => {
            let lock = rt.new_lock();
            rt.parallel_region(&r.work, |_| {
                for _ in 0..inner / nthreads.max(1) {
                    lock.set();
                    std::hint::black_box(delay(dlen));
                    lock.unset();
                }
            });
        }
        Directive::Ordered => {
            rt.parallel_region(&r.work, |ctx| {
                ctx.for_ordered(0, inner as i64 - 1, 1, |_| {
                    std::hint::black_box(delay(dlen));
                });
            });
        }
        Directive::Atomic => {
            let cell = AtomicU64::new(0);
            rt.parallel_region(&r.work, |ctx| {
                for _ in 0..inner / nthreads.max(1) {
                    ctx.atomic_add_f64(&cell, 1.0);
                }
            });
            std::hint::black_box(cell.load(Ordering::Relaxed));
        }
        Directive::Reduction => {
            for _ in 0..inner {
                std::hint::black_box(rt.parallel_for_sum(
                    &r.reduction,
                    0,
                    nthreads as i64 - 1,
                    |_| delay(dlen),
                ));
            }
        }
    }
}

/// Run the full suite, returning `(directive, overhead stat)` pairs.
pub fn run_all(rt: &OpenMp, cfg: &EpccConfig) -> Vec<(Directive, Stat)> {
    ALL_DIRECTIVES
        .iter()
        .map(|&d| (d, measure(rt, d, cfg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EpccConfig {
        EpccConfig {
            outer_reps: 2,
            inner_reps: 8,
            delay_len: 32,
        }
    }

    #[test]
    fn delay_scales_with_length() {
        let (_, short) = clock::time(|| std::hint::black_box(delay(1_000)));
        let (_, long) = clock::time(|| std::hint::black_box(delay(100_000)));
        assert!(long > short);
    }

    #[test]
    fn every_directive_produces_finite_stats() {
        let rt = OpenMp::with_threads(2);
        for d in ALL_DIRECTIVES {
            let s = measure(&rt, d, &tiny());
            assert!(s.mean.is_finite(), "{d:?}");
            assert!(s.sd.is_finite() && s.sd >= 0.0, "{d:?}");
            assert!(s.min <= s.max, "{d:?}");
            assert!(s.raw_mean > 0.0, "{d:?}");
        }
    }

    #[test]
    fn parallel_overhead_exceeds_barrier_free_work() {
        // A full fork/join per instance must cost more than the raw delay
        // (i.e. the measured overhead is positive).
        let rt = OpenMp::with_threads(2);
        let s = measure(&rt, Directive::Parallel, &tiny());
        assert!(
            s.mean > 0.0,
            "fork/join should add measurable overhead, got {}",
            s.mean
        );
    }

    #[test]
    fn run_all_covers_all_directives() {
        let rt = OpenMp::with_threads(2);
        let results = run_all(&rt, &tiny());
        assert_eq!(results.len(), ALL_DIRECTIVES.len());
    }

    #[test]
    fn paper_scale_matches_published_instance_count() {
        let c = EpccConfig::paper_scale();
        assert_eq!(c.outer_reps * c.inner_reps, 20_000);
    }
}

#[cfg(test)]
mod stat_tests {
    use super::*;

    #[test]
    fn stats_arithmetic_is_correct() {
        let s = stats(&[1.0, 2.0, 3.0], 2.5);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        // Population sd of [1,2,3] = sqrt(2/3).
        assert!((s.sd - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.raw_mean, 2.5);
    }

    #[test]
    fn directive_names_are_epcc_style() {
        for d in ALL_DIRECTIVES {
            assert!(!d.name().is_empty());
            assert_eq!(d.name(), d.name().to_uppercase());
        }
    }
}
