//! A dependency-free micro-benchmark harness with a criterion-shaped API.
//!
//! The workspace builds hermetically — no registry crates — so the
//! `[[bench]]` targets cannot link the real `criterion`. This module
//! keeps their source unchanged in shape: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId::new`], and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros all exist with the
//! same call signatures the benches already use.
//!
//! Measurement only happens when the off-by-default `bench` feature is
//! enabled:
//!
//! ```text
//! cargo bench -p ora-bench --features bench
//! ```
//!
//! Without the feature, every bench binary prints a one-line hint and
//! exits successfully, so `cargo bench` / `cargo test --all-targets`
//! stay fast and hermetic.
//!
//! Methodology: each benchmark calibrates an iteration batch that runs
//! for at least ~1 ms, then times `sample_size` such batches and reports
//! the min / mean / max nanoseconds per iteration. That is cruder than
//! criterion's resampled confidence intervals but needs nothing
//! beyond `std::time::Instant`, and the paper's arguments rest on
//! order-of-magnitude comparisons (one load vs a lock), which this
//! resolves comfortably.

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// Default number of timed batches per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 30;

/// Calibration target per batch, in nanoseconds (~1 ms).
const TARGET_BATCH_NANOS: u128 = 1_000_000;

/// Top-level harness state, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    benches_run: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: DEFAULT_SAMPLE_SIZE,
            benches_run: 0,
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        let sample_size = self.sample_size;
        BenchmarkGroup {
            c: self,
            name,
            sample_size,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.to_string();
        let sample_size = self.sample_size;
        self.run_one(&label, sample_size, &mut f);
        self
    }

    /// How many benchmarks this harness has executed.
    pub fn benches_run(&self) -> usize {
        self.benches_run
    }

    fn run_one<F>(&mut self, label: &str, sample_size: usize, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        self.benches_run += 1;
        report(label, &b.samples);
    }
}

/// A group of benchmarks sharing a name prefix and sample size,
/// mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed batches per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.c.run_one(&label, sample_size, &mut f);
        self
    }

    /// Run one parameterized benchmark in this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        let sample_size = self.sample_size;
        self.c
            .run_one(&label, sample_size, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// End the group (kept for criterion API parity; no-op).
    pub fn finish(self) {}
}

/// A function + parameter benchmark label, mirroring
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Label `function_name` applied to `parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Label made of the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Times closures handed to it, mirroring `criterion::Bencher`.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, called in calibrated batches. Nanoseconds per call
    /// are recorded across [`sample_size`](BenchmarkGroup::sample_size)
    /// batches.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Calibrate: grow the batch until one batch takes ~1 ms (or the
        // batch is already huge, for sub-nanosecond bodies).
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= TARGET_BATCH_NANOS || iters >= 1 << 24 {
                break;
            }
            // Aim straight for the target from the observed rate.
            let scale = (TARGET_BATCH_NANOS / elapsed.max(1)).clamp(2, 1 << 10);
            iters = (iters * scale as u64).min(1 << 24);
        }

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let nanos = start.elapsed().as_nanos() as f64;
            self.samples.push(nanos / iters as f64);
        }
    }
}

/// Print one result line: `label  time: [min mean max]` per iteration.
fn report(label: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{label:<50} (no samples — Bencher::iter never called)");
        return;
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{label:<50} time: [{} {} {}]",
        fmt_ns(min),
        fmt_ns(mean),
        fmt_ns(max)
    );
}

/// Render nanoseconds with criterion-style unit scaling.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Define a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::microbench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define `main` running the given groups, mirroring
/// `criterion::criterion_main!`. Without the `bench` feature the binary
/// prints a hint and exits 0, keeping default builds hermetic and fast.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            if !cfg!(feature = "bench") {
                println!(
                    "{}: measurement is gated off by default; run \
                     `cargo bench -p ora-bench --features bench` to measure",
                    env!("CARGO_CRATE_NAME")
                );
                return;
            }
            let mut c = $crate::microbench::Criterion::default();
            $( $group(&mut c); )+
            println!("ran {} benchmark(s)", c.benches_run());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_sample_count() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        let mut runs = 0u64;
        g.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        g.finish();
        assert_eq!(c.benches_run(), 1);
        assert!(runs > 0);
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(2);
        g.bench_with_input(BenchmarkId::new("sq", 7), &7u64, |b, &x| {
            b.iter(|| x * x);
        });
        g.finish();
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 32).id, "f/32");
        assert_eq!(BenchmarkId::from_parameter("p").id, "p");
    }

    #[test]
    fn nanosecond_formatting_scales_units() {
        assert_eq!(fmt_ns(15.0), "15.00 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
