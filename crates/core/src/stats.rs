//! Defensible statistics over timing samples.
//!
//! The in-process overhead governor ([`crate::governor`]) runs its online
//! calibration windows through this pipeline. Never report a bare mean:
//! timings on a busy machine are right-skewed with occasional scheduler
//! spikes, and a mean over them lies. Instead each sample set goes
//! through a fixed pipeline:
//!
//! 1. **MAD-based outlier rejection** — samples further than `mad_k`
//!    scaled median-absolute-deviations from the median are dropped
//!    (Hampel's rule; the default `mad_k = 3.5` with the 1.4826 normal
//!    consistency factor). MAD, unlike the standard deviation, is itself
//!    robust, so one huge spike cannot widen the fence enough to keep
//!    itself in.
//! 2. **Minimum-repetition rule** — if rejection would leave fewer than
//!    `min_keep` samples, the *unfiltered* set is used instead. Noisy
//!    runs therefore widen the confidence interval rather than silently
//!    shrinking the evidence behind a tight one.
//! 3. **Median + 95% bootstrap CI** — the reported location is the
//!    sample median; its uncertainty is a seeded percentile-bootstrap
//!    confidence interval (resample-with-replacement medians, 2.5th and
//!    97.5th percentiles). The bootstrap uses the deterministic
//!    [`XorShift64`], so the same samples always produce the same CI,
//!    std-only, no `rand`.

use crate::testutil::XorShift64;

/// Normal-consistency factor making MAD comparable to a standard
/// deviation for Gaussian data.
pub const MAD_SCALE: f64 = 1.4826;

/// Tuning knobs for [`analyze`]. The defaults are what the governor
/// calibrates with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatPolicy {
    /// Hampel fence width in scaled MADs.
    pub mad_k: f64,
    /// Minimum samples that must survive rejection; otherwise the
    /// unfiltered set is analyzed.
    pub min_keep: usize,
    /// Bootstrap resamples for the CI.
    pub bootstrap_iters: usize,
    /// Seed for the bootstrap resampler.
    pub seed: u64,
}

impl Default for StatPolicy {
    fn default() -> Self {
        StatPolicy {
            mad_k: 3.5,
            min_keep: 5,
            bootstrap_iters: 1_000,
            seed: 0x6f72_612d_6d65_7465, // "ora-mete"
        }
    }
}

/// The analyzed summary of one sample set (one workload × one collector
/// configuration, or one governor calibration window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Samples the statistics are computed over (after any rejection).
    pub reps: usize,
    /// Samples dropped as outliers (0 when the minimum-repetition rule
    /// forced the unfiltered set).
    pub rejected: usize,
    /// Sample median.
    pub median: f64,
    /// 95% bootstrap CI, lower bound.
    pub ci_lo: f64,
    /// 95% bootstrap CI, upper bound.
    pub ci_hi: f64,
    /// Scaled median absolute deviation (spread).
    pub mad: f64,
    /// Smallest analyzed sample.
    pub min: f64,
    /// Largest analyzed sample.
    pub max: f64,
}

/// Median of `samples` (not required to be sorted; empty → 0.0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_median(&sorted)
}

fn sorted_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n.is_multiple_of(2) {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    } else {
        sorted[n / 2]
    }
}

/// Scaled median absolute deviation of `samples` around `center`.
pub fn mad(samples: &[f64], center: f64) -> f64 {
    let deviations: Vec<f64> = samples.iter().map(|s| (s - center).abs()).collect();
    MAD_SCALE * median(&deviations)
}

/// Hampel rejection: keep samples within `mad_k` scaled MADs of the
/// median. A zero MAD (identical samples) keeps everything.
pub fn reject_outliers(samples: &[f64], mad_k: f64) -> Vec<f64> {
    let med = median(samples);
    let spread = mad(samples, med);
    if spread == 0.0 {
        return samples.to_vec();
    }
    samples
        .iter()
        .copied()
        .filter(|s| (s - med).abs() <= mad_k * spread)
        .collect()
}

/// Seeded percentile-bootstrap 95% CI of the median of `samples`.
/// Returns `(lo, hi)`; degenerate inputs (0 or 1 sample) collapse to the
/// sample value.
pub fn bootstrap_ci_median(samples: &[f64], iters: usize, seed: u64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    if samples.len() == 1 {
        return (samples[0], samples[0]);
    }
    let mut rng = XorShift64::new(seed);
    let n = samples.len();
    let mut medians = Vec::with_capacity(iters.max(1));
    let mut resample = vec![0.0f64; n];
    for _ in 0..iters.max(1) {
        for slot in resample.iter_mut() {
            *slot = samples[rng.below(n as u64) as usize];
        }
        resample.sort_by(f64::total_cmp);
        medians.push(sorted_median(&resample));
    }
    medians.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let idx = (q * (medians.len() - 1) as f64).round() as usize;
        medians[idx.min(medians.len() - 1)]
    };
    (pick(0.025), pick(0.975))
}

/// Run the full pipeline (module docs) over raw repetition timings.
pub fn analyze(samples: &[f64], policy: &StatPolicy) -> SampleStats {
    let filtered = reject_outliers(samples, policy.mad_k);
    // Minimum-repetition rule: too-aggressive rejection falls back to the
    // full set, widening the CI instead of narrowing the evidence.
    let (used, rejected) = if filtered.len() >= policy.min_keep {
        let rejected = samples.len() - filtered.len();
        (filtered, rejected)
    } else {
        (samples.to_vec(), 0)
    };
    let med = median(&used);
    let (ci_lo, ci_hi) = bootstrap_ci_median(&used, policy.bootstrap_iters, policy.seed);
    SampleStats {
        reps: used.len(),
        rejected,
        median: med,
        ci_lo,
        ci_hi,
        mad: mad(&used, med),
        min: used.iter().copied().fold(f64::INFINITY, f64::min),
        max: used.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_of_constant_data_is_zero() {
        assert_eq!(mad(&[5.0, 5.0, 5.0], 5.0), 0.0);
    }

    #[test]
    fn hampel_drops_the_spike_not_the_bulk() {
        let samples = [10.0, 10.1, 9.9, 10.05, 9.95, 100.0];
        let kept = reject_outliers(&samples, 3.5);
        assert_eq!(kept.len(), 5);
        assert!(!kept.contains(&100.0));
    }

    #[test]
    fn identical_samples_survive_rejection() {
        let samples = [2.0; 8];
        assert_eq!(reject_outliers(&samples, 3.5).len(), 8);
    }

    #[test]
    fn bootstrap_is_deterministic_for_a_seed() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let a = bootstrap_ci_median(&samples, 500, 42);
        let b = bootstrap_ci_median(&samples, 500, 42);
        assert_eq!(a, b);
        let c = bootstrap_ci_median(&samples, 500, 43);
        // Different seed is allowed to (and here does) give a different
        // interval; both must bracket the sample median.
        assert!(a.0 <= 4.0 && 4.0 <= a.1);
        assert!(c.0 <= 4.0 && 4.0 <= c.1);
    }

    #[test]
    fn min_rep_rule_widens_instead_of_narrowing() {
        // 4 tight samples + 1 spike with min_keep=5: rejection would keep
        // 4 < 5, so the unfiltered set must be analyzed.
        let samples = [10.0, 10.0, 10.0, 10.0, 50.0];
        let policy = StatPolicy {
            min_keep: 5,
            ..StatPolicy::default()
        };
        let s = analyze(&samples, &policy);
        assert_eq!(s.reps, 5);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.max, 50.0, "spike retained under the min-rep rule");
    }

    #[test]
    fn analyze_reports_rejections_when_enough_survive() {
        let samples = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 100.0];
        let s = analyze(&samples, &StatPolicy::default());
        assert_eq!(s.rejected, 1);
        assert_eq!(s.reps, 6);
        assert!(s.max < 11.0);
        assert!(s.ci_lo <= s.median && s.median <= s.ci_hi);
    }
}
