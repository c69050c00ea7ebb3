//! Seeded property tests for the statistics pipeline the overhead
//! governor calibrates with (drawn from `ora_core::testutil::XorShift64`
//! — deterministic, offline, no proptest).

use ora_core::stats::{analyze, bootstrap_ci_median, median, reject_outliers, StatPolicy};
use ora_core::testutil::XorShift64;

/// Uniform f64 in [0, 1) from the shared deterministic generator.
fn unit_f64(rng: &mut XorShift64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A right-skewed synthetic "timing" sample: base + uniform jitter, with
/// an occasional multiplicative spike — the shape real repetition
/// timings have on a shared machine.
fn synthetic_timing(rng: &mut XorShift64, base: f64, jitter: f64) -> f64 {
    base + jitter * unit_f64(rng)
}

// ---------------------------------------------------------------------
// Bootstrap CI properties
// ---------------------------------------------------------------------

/// On symmetric-ish synthetic distributions, the 95% bootstrap CI of the
/// median should contain the *true* distribution median in well over 95%
/// of trials at these sample sizes (percentile bootstrap is conservative
/// here). We assert a loose 80% floor so the test is immune to seed luck
/// while still catching a broken interval (which drops to ~0-20%).
#[test]
fn bootstrap_ci_contains_true_median_on_synthetic_distributions() {
    let mut rng = XorShift64::new(0xC1_C1_C1);
    let trials = 200;
    for (base, jitter, n) in [(10.0, 2.0, 9), (1.0, 0.1, 15), (5.0, 5.0, 25)] {
        let true_median = base + jitter * 0.5;
        let mut contained = 0;
        for trial in 0..trials {
            let samples: Vec<f64> = (0..n)
                .map(|_| synthetic_timing(&mut rng, base, jitter))
                .collect();
            let (lo, hi) = bootstrap_ci_median(&samples, 400, 1000 + trial);
            assert!(lo <= hi);
            if lo <= true_median && true_median <= hi {
                contained += 1;
            }
        }
        let rate = contained as f64 / trials as f64;
        assert!(
            rate >= 0.80,
            "CI contained the true median in only {:.0}% of trials (base {base}, n {n})",
            rate * 100.0
        );
    }
}

#[test]
fn bootstrap_ci_brackets_the_sample_median_and_is_seed_stable() {
    let mut rng = XorShift64::new(7);
    for _ in 0..50 {
        let n = 3 + (rng.next_u64() % 20) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|_| synthetic_timing(&mut rng, 2.0, 1.0))
            .collect();
        let med = median(&samples);
        let (lo, hi) = bootstrap_ci_median(&samples, 300, 99);
        assert!(
            lo <= med && med <= hi,
            "CI [{lo}, {hi}] excludes median {med}"
        );
        assert_eq!(
            (lo, hi),
            bootstrap_ci_median(&samples, 300, 99),
            "not deterministic"
        );
    }
}

// ---------------------------------------------------------------------
// MAD rejection properties
// ---------------------------------------------------------------------

/// Plant `k` large outliers in an otherwise tight sample: rejection must
/// drop every planted spike. A tightly clustered draw may legitimately
/// clip an edge inlier or two (the MAD fence shrinks with the cluster),
/// so we allow a small inlier casualty count but zero surviving spikes.
#[test]
fn mad_rejection_drops_every_planted_outlier() {
    let mut rng = XorShift64::new(0xBAD_CAFE);
    for _ in 0..100 {
        let n_inliers = 8 + (rng.next_u64() % 12) as usize;
        let n_outliers = 1 + (rng.next_u64() % 3) as usize;
        let base = 1.0 + unit_f64(&mut rng) * 10.0;
        let mut samples: Vec<f64> = (0..n_inliers)
            .map(|_| base * (1.0 + 0.01 * unit_f64(&mut rng)))
            .collect();
        for _ in 0..n_outliers {
            // Spikes 8-20× the base: far outside any 3.5-MAD fence.
            samples.push(base * (8.0 + 12.0 * unit_f64(&mut rng)));
        }
        let kept = reject_outliers(&samples, 3.5);
        assert!(
            kept.iter().all(|&s| s < base * 2.0),
            "a planted spike survived rejection"
        );
        assert!(
            kept.len() + 2 >= n_inliers,
            "rejection clipped {} of {n_inliers} inliers",
            n_inliers - kept.len()
        );
    }
}

#[test]
fn analyze_never_reports_more_rejections_than_min_keep_allows() {
    let mut rng = XorShift64::new(33);
    let policy = StatPolicy::default();
    for _ in 0..100 {
        let n = 2 + (rng.next_u64() % 12) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                if rng.chance(1, 4) {
                    100.0 + unit_f64(&mut rng)
                } else {
                    1.0 + 0.01 * unit_f64(&mut rng)
                }
            })
            .collect();
        let s = analyze(&samples, &policy);
        // Either enough samples survived, or nothing was rejected at all.
        assert!(
            s.reps >= policy.min_keep || s.rejected == 0,
            "min-repetition rule violated: reps {} rejected {}",
            s.reps,
            s.rejected
        );
        assert_eq!(s.reps + s.rejected, n);
        assert!(s.ci_lo <= s.median && s.median <= s.ci_hi);
    }
}
