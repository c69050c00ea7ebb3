//! Small-sample statistics the benchmark reports with.
//!
//! Every timing is reported as a median with quartiles and a sample
//! count; ratios are medians of *per-round paired* ratios, so slow drift
//! of the host between rounds cancels instead of widening the spread.

/// Median, quartiles and sample count of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty series: every caller times at least one round.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty series");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// match the ones the acceptance driver computes. A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty series");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| -> f64 {
        let m = v.len() + 1;
        // Position k*m/4 on a 1-based scale, clamped into the data.
        let j = (k * m / 4).clamp(1, v.len() - 1);
        let delta = (k * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median, quartiles and count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        q1,
        median: median(values),
        q3,
    }
}

/// Per-round paired ratios `numerator[i] / denominator[i]`, summarized.
/// Both series come from the same rounds, in the same order.
pub fn paired_ratio(numerator: &[f64], denominator: &[f64]) -> Summary {
    assert_eq!(numerator.len(), denominator.len(), "unpaired series");
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(n, d)| n / d)
        .collect();
    summarize(&ratios)
}

/// The highest percentile that still has at least ten samples beyond
/// it, with its value: `(percentile, value)`. With fewer than eleven
/// samples no percentile qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if values.len() <= BEYOND {
        return None;
    }
    let v = sorted(values);
    let index = v.len() - BEYOND - 1;
    let percentile = 100.0 * (index + 1) as f64 / v.len() as f64;
    Some((percentile, v[index]))
}

/// The order in which round `round` visits `len` rungs: the identity
/// order rotated by `round`, so over `len` consecutive rounds every rung
/// occupies every position exactly once.
pub fn rotation(round: usize, len: usize) -> Vec<usize> {
    (0..len).map(|i| (i + round) % len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12, "{q1}");
        assert!((q3 - 12.0).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn paired_ratio_takes_the_median_of_per_round_ratios() {
        // Round 2 is an outlier on both sides; pairing cancels it.
        let num = [2.0, 4.0, 20.0];
        let den = [1.0, 2.0, 10.0];
        let s = paired_ratio(&num, &den);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.n, 3);
        // A ratio of medians would differ from a median of ratios here.
        let s = paired_ratio(&[1.0, 9.0, 4.0], &[1.0, 3.0, 8.0]);
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        // 1000 samples: the 99th percentile has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 990.0);
        assert!((p - 99.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|s| **s > x).count(), 10);
    }

    #[test]
    fn rotation_covers_every_position_for_every_rung() {
        for len in 1..=7 {
            let mut seen = vec![vec![false; len]; len];
            for round in 0..len {
                let order = rotation(round, len);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..len).collect::<Vec<_>>(), "a permutation");
                for (position, rung) in order.into_iter().enumerate() {
                    seen[rung][position] = true;
                }
            }
            assert!(seen.iter().flatten().all(|s| *s), "len {len}");
        }
    }
}
