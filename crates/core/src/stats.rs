//! Defensible statistics over timing samples.
//!
//! The in-process overhead governor ([`crate::governor`]) reduces its
//! online calibration windows with this pipeline. Never report a bare
//! mean: timings on a busy machine are right-skewed with occasional
//! scheduler spikes, and a mean over them lies. Instead each sample set
//! goes through a fixed pipeline ([`robust_median`]):
//!
//! 1. **MAD-based outlier rejection** — samples further than `mad_k`
//!    scaled median-absolute-deviations from the median are dropped
//!    (Hampel's rule; the default [`MAD_K`] = 3.5 with the 1.4826 normal
//!    consistency factor). MAD, unlike the standard deviation, is itself
//!    robust, so one huge spike cannot widen the fence enough to keep
//!    itself in.
//! 2. **Minimum-repetition rule** — if rejection would leave fewer than
//!    `min_keep` samples, the *unfiltered* set is used instead, so a
//!    noisy window never rests its answer on a handful of survivors.
//!
//! The reported location is the median of whichever set step 2 chose.

/// Normal-consistency factor making MAD comparable to a standard
/// deviation for Gaussian data.
pub const MAD_SCALE: f64 = 1.4826;

/// Hampel fence width in scaled MADs the governor calibrates with.
pub const MAD_K: f64 = 3.5;

/// Minimum samples that must survive rejection for the governor to use
/// the filtered set (and to trust a calibration window at all).
pub const MIN_KEEP: usize = 5;

/// Median of `samples` (not required to be sorted; empty → 0.0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
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

/// The pipeline of the module docs: the median of the samples that
/// survive [`reject_outliers`] at `mad_k`, or of all `samples` when fewer
/// than `min_keep` survive. Empty input → 0.0.
pub fn robust_median(samples: &[f64], mad_k: f64, min_keep: usize) -> f64 {
    let kept = reject_outliers(samples, mad_k);
    if kept.len() >= min_keep {
        median(&kept)
    } else {
        median(samples)
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
        assert_eq!(robust_median(&samples, MAD_K, MIN_KEEP), 2.0);
    }

    #[test]
    fn min_rep_rule_falls_back_to_the_unfiltered_median() {
        // Rejection keeps only the three tight samples: their median is
        // 10.0, but 3 < min_keep = 5, so the unfiltered median stands.
        let samples = [10.0, 60.0, 9.9, 50.0, 10.1];
        assert_eq!(reject_outliers(&samples, MAD_K).len(), 3);
        assert_eq!(robust_median(&samples, MAD_K, 5), 10.1);
        assert_eq!(robust_median(&samples, MAD_K, 3), 10.0);
    }

    #[test]
    fn robust_median_ignores_a_spike_when_enough_survive() {
        let samples = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 100.0];
        assert_eq!(median(&samples), 10.02, "the spike shifts the plain median");
        assert_eq!(
            robust_median(&samples, MAD_K, MIN_KEEP),
            0.5 * (10.0 + 10.02)
        );
        assert_eq!(robust_median(&[], MAD_K, MIN_KEEP), 0.0);
    }
}
