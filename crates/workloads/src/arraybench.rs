//! EPCC arraybench: data-clause overheads as a function of array size.
//!
//! The third EPCC microbenchmark family measures what `private`,
//! `firstprivate`, and `copyprivate` clauses cost as the privatized array
//! grows (EPCC uses powers of 3 up to 59049 elements). In `omprt`'s
//! closure model the clauses map directly:
//!
//! * **private** — each thread allocates its own uninitialized array
//!   inside the region;
//! * **firstprivate** — each thread clones the master's array on entry;
//! * **copyprivate** — one thread computes the array inside a `single`
//!   and the construct broadcasts a copy to every thread.

use collector::clock;
use omprt::{OpenMp, RegionHandle, SourceFunction};

/// The data clauses arraybench measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClause {
    /// Thread-local uninitialized allocation.
    Private,
    /// Copy-in from the enclosing scope.
    FirstPrivate,
    /// Broadcast from a `single` executor.
    CopyPrivate,
}

impl DataClause {
    /// EPCC's display name.
    pub const fn name(self) -> &'static str {
        match self {
            DataClause::Private => "PRIVATE",
            DataClause::FirstPrivate => "FIRSTPRIVATE",
            DataClause::CopyPrivate => "COPYPRIVATE",
        }
    }
}

/// One measurement: clause × array size → per-region overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayPoint {
    /// The clause.
    pub clause: DataClause,
    /// Array length in `f64`s.
    pub size: usize,
    /// Seconds per region, reference (empty region) subtracted.
    pub overhead_per_region: f64,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Regions per measurement.
    pub inner_reps: usize,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig { inner_reps: 64 }
    }
}

fn region() -> &'static RegionHandle {
    use std::sync::OnceLock;
    static REGION: OnceLock<(SourceFunction, RegionHandle)> = OnceLock::new();
    let (_, r) = REGION.get_or_init(|| {
        let f = SourceFunction::new("epcc_arraybench", "arraybench.rs", 1);
        let r = f.region("data", 10);
        (f, r)
    });
    r
}

fn consume(arr: &[f64]) {
    // Touch the array so the clause's copy cannot be elided.
    std::hint::black_box(arr.first().copied().unwrap_or(0.0) + arr.last().copied().unwrap_or(0.0));
}

/// Measure one clause at one array size.
pub fn measure(rt: &OpenMp, clause: DataClause, size: usize, cfg: &ArrayConfig) -> ArrayPoint {
    let reps = cfg.inner_reps;
    let master_copy: Vec<f64> = (0..size).map(|i| i as f64).collect();

    // Reference: the same number of empty regions.
    let (_, ref_ticks) = clock::time(|| {
        for _ in 0..reps {
            rt.parallel_region(region(), |_| {});
        }
    });

    let (_, test_ticks) = clock::time(|| {
        for _ in 0..reps {
            match clause {
                DataClause::Private => rt.parallel_region(region(), |_| {
                    let private: Vec<f64> = Vec::with_capacity(size);
                    std::hint::black_box(private.capacity());
                }),
                DataClause::FirstPrivate => rt.parallel_region(region(), |_| {
                    let firstprivate = master_copy.clone();
                    consume(&firstprivate);
                }),
                DataClause::CopyPrivate => rt.parallel_region(region(), |ctx| {
                    let broadcast: Vec<f64> =
                        ctx.single_copy(|| (0..size).map(|i| i as f64 + 1.0).collect());
                    consume(&broadcast);
                }),
            }
        }
    });

    let per_region = (clock::to_secs(test_ticks) - clock::to_secs(ref_ticks)) / reps as f64;
    ArrayPoint {
        clause,
        size,
        overhead_per_region: per_region,
    }
}

/// The EPCC sweep: every clause at powers of 3 up to `max_size`.
pub fn sweep(rt: &OpenMp, max_size: usize, cfg: &ArrayConfig) -> Vec<ArrayPoint> {
    let mut points = Vec::new();
    let mut size = 1usize;
    while size <= max_size {
        for clause in [
            DataClause::Private,
            DataClause::FirstPrivate,
            DataClause::CopyPrivate,
        ] {
            points.push(measure(rt, clause, size, cfg));
        }
        size *= 3;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ArrayConfig {
        ArrayConfig { inner_reps: 8 }
    }

    #[test]
    fn all_clauses_measure_finite_overheads() {
        let rt = OpenMp::with_threads(2);
        for clause in [
            DataClause::Private,
            DataClause::FirstPrivate,
            DataClause::CopyPrivate,
        ] {
            let p = measure(&rt, clause, 81, &tiny());
            assert!(p.overhead_per_region.is_finite(), "{clause:?}");
            assert_eq!(p.size, 81);
        }
    }

    #[test]
    fn sweep_produces_powers_of_three() {
        let rt = OpenMp::with_threads(2);
        let points = sweep(&rt, 27, &tiny());
        let sizes: Vec<usize> = points
            .iter()
            .filter(|p| p.clause == DataClause::Private)
            .map(|p| p.size)
            .collect();
        assert_eq!(sizes, vec![1, 3, 9, 27]);
        assert_eq!(points.len(), 12);
    }

    #[test]
    fn firstprivate_cost_grows_with_size() {
        // Copying 100k doubles per thread per region must cost measurably
        // more than copying 1. One wall-clock sample of each can lose to a
        // preemption on a loaded host, so the sizes are measured
        // interleaved, five times each, and their minima compared.
        let rt = OpenMp::with_threads(2);
        let cfg = ArrayConfig { inner_reps: 16 };
        let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let cost = |size| measure(&rt, DataClause::FirstPrivate, size, &cfg);
            small = small.min(cost(1).overhead_per_region);
            large = large.min(cost(100_000).overhead_per_region);
        }
        assert!(large > small, "large {large} <= small {small}");
    }
}
