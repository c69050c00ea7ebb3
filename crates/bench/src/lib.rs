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
//! | `epcc_sync`      | Fig. 4 data | EPCC µs per directive + schedbench sweep |
//!
//! These binaries accept `--scale smoke|quick|paper` (default `quick`).
//! Overhead is *measured* by the repository's one benchmark
//! (`BENCHMARK.json`, `benchmark/`): its per-layer cells
//! (`core.dispatch.*`, `core.message.*`, `psx.*`, `omprt.barrier.*`,
//! `omprt.schedule.*`, `trace.*`) carry the micro costs the paper argues
//! about. These harnesses print the paper's tables and figures, and
//! `omp_prof` is the psrun-style CLI over every workload and tool.

#![warn(missing_docs)]

pub mod fleet_driver;

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
    /// Parse the common `--scale` argument from the process arguments
    /// (default `quick`); print the choices and exit 2 on a bad value.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        Scale::parse(&args).unwrap_or_else(|e| {
            eprintln!("{e}; expected --scale smoke|quick|paper");
            std::process::exit(2)
        })
    }

    /// Parse `--scale smoke|quick|paper` (or the `--paper` / `--smoke`
    /// shorthands) from `args`; no scale flag means `quick`.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        if let Some(i) = args.iter().position(|a| a == "--scale") {
            return match args.get(i + 1).map(String::as_str) {
                Some("paper") => Ok(Scale::Paper),
                Some("quick") => Ok(Scale::Quick),
                Some("smoke") => Ok(Scale::Smoke),
                Some(other) => Err(format!("unknown scale `{other}`")),
                None => Err("--scale needs a value".to_string()),
            };
        }
        if args.iter().any(|a| a == "--paper") {
            Ok(Scale::Paper)
        } else if args.iter().any(|a| a == "--smoke") {
            Ok(Scale::Smoke)
        } else {
            Ok(Scale::Quick)
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
    fn scale_parses_every_spelling_and_rejects_the_rest() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Scale::parse(&args)
        };
        assert_eq!(parse(&["bin"]), Ok(Scale::Quick));
        assert_eq!(parse(&["bin", "--scale", "paper"]), Ok(Scale::Paper));
        assert_eq!(parse(&["bin", "--scale", "quick"]), Ok(Scale::Quick));
        assert_eq!(parse(&["bin", "--scale", "smoke"]), Ok(Scale::Smoke));
        assert_eq!(parse(&["bin", "--paper"]), Ok(Scale::Paper));
        assert_eq!(parse(&["bin", "--smoke"]), Ok(Scale::Smoke));
        assert!(parse(&["bin", "--scale", "papr"]).is_err());
        assert!(parse(&["bin", "--scale"]).is_err());
    }

    #[test]
    fn pct_formatting_zeroes_sub_one() {
        assert_eq!(fmt_pct(-3.0), "0");
        assert_eq!(fmt_pct(0.4), "0");
        assert_eq!(fmt_pct(5.23), "5.2");
        assert_eq!(fmt_pct(16.0), "16.0");
    }

    #[test]
    fn oversubscription_note_triggers_above_core_count() {
        assert!(oversubscription_note(100_000).is_some());
    }
}
