//! # ora-bench — experiment harnesses for every table and figure
//!
//! Binaries (run with `cargo run -p ora-bench --release --bin <name>`):
//!
//! | binary           | reproduces | notes |
//! |------------------|------------|-------|
//! | `fig4_epcc`      | Fig. 4     | EPCC directive overhead %, per thread count |
//! | `fig5_npb`       | Fig. 5     | NPB3.2-OMP overhead %, 1/2/4/8 threads |
//! | `fig6_npb_mz`    | Fig. 6     | NPB3.2-MZ overhead %, 1×8/2×4/4×2/8×1 |
//! | `table1_regions` | Table I    | parallel-region counts, measured via fork events |
//! | `table2_mz`      | Table II   | per-process region calls, computed + measured |
//! | `breakdown`      | §V-B       | measurement vs communication overhead split |
//!
//! All binaries accept `--scale smoke|quick|paper` (default `quick`).
//! Overhead is *judged* by the repository's one benchmark
//! (`BENCHMARK.json`, `benchmark/`); these harnesses print the paper's
//! tables and figures.
//! Micro-benches (`cargo bench -p ora-bench --features bench`) cover the
//! micro costs the paper argues about: event-dispatch fast path,
//! always-on state stores, callstack capture, wire protocol, and the
//! barrier/schedule ablations. They run on the dependency-free
//! [`microbench`] harness and are gated behind the off-by-default
//! `bench` feature so default builds stay hermetic.

#![warn(missing_docs)]

pub mod fleet_driver;
pub mod microbench;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long, paper-shaped run (class B-sim structure).
    Paper,
    /// Seconds-long run preserving the structure (class W / reduced reps).
    Quick,
    /// Sub-second smoke run (class S).
    Smoke,
}

impl Scale {
    /// Parse from the common `--scale` argument (default `quick`).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for pair in args.windows(2) {
            if pair[0] == "--scale" {
                return match pair[1].as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    _ => Scale::Quick,
                };
            }
        }
        if args.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else if args.iter().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Quick
        }
    }

    /// The NPB class for this scale.
    pub fn npb_class(self) -> workloads::NpbClass {
        match self {
            Scale::Paper => workloads::NpbClass::Bsim,
            Scale::Quick => workloads::NpbClass::W,
            Scale::Smoke => workloads::NpbClass::S,
        }
    }

    /// Repetitions for best-of timing.
    pub fn reps(self) -> usize {
        match self {
            Scale::Paper | Scale::Quick => 3,
            Scale::Smoke => 1,
        }
    }
}

/// A caveat line when thread counts exceed hardware threads.
pub fn oversubscription_note(max_threads: usize) -> Option<String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (max_threads > cores).then(|| {
        format!(
            "note: up to {max_threads} threads on {cores} hardware thread(s); \
             absolute times are oversubscribed, overhead ratios remain meaningful"
        )
    })
}

/// Format an overhead percentage the way the paper's figures do (values
/// below 1% are listed as zero).
pub fn fmt_pct(pct: f64) -> String {
    if pct < 1.0 {
        "0".to_string()
    } else {
        format!("{pct:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_to_classes() {
        assert_eq!(Scale::Paper.npb_class(), workloads::NpbClass::Bsim);
        assert_eq!(Scale::Quick.npb_class(), workloads::NpbClass::W);
        assert_eq!(Scale::Smoke.npb_class(), workloads::NpbClass::S);
    }

    #[test]
    fn pct_formatting_zeroes_sub_one() {
        assert_eq!(fmt_pct(0.4), "0");
        assert_eq!(fmt_pct(5.23), "5.2");
        assert_eq!(fmt_pct(16.0), "16.0");
    }

    #[test]
    fn oversubscription_note_triggers_above_core_count() {
        assert!(oversubscription_note(100_000).is_some());
    }
}
