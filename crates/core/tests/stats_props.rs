//! Seeded property tests for the statistics pipeline the overhead
//! governor calibrates with (drawn from `ora_core::testutil::XorShift64`
//! — deterministic, offline, no proptest).

use ora_core::stats::{median, reject_outliers, robust_median, MAD_K, MIN_KEEP};
use ora_core::testutil::XorShift64;

/// Uniform f64 in [0, 1) from the shared deterministic generator.
fn unit_f64(rng: &mut XorShift64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A window of `n` timings near 1.0, each a spike near 100.0 with
/// probability 1 in 4. Returns the samples and how many are spikes.
fn spiky_window(rng: &mut XorShift64, n: usize) -> (Vec<f64>, usize) {
    let mut spikes = 0;
    let samples = (0..n)
        .map(|_| {
            if rng.chance(1, 4) {
                spikes += 1;
                100.0 + unit_f64(rng)
            } else {
                1.0 + 0.01 * unit_f64(rng)
            }
        })
        .collect();
    (samples, spikes)
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
fn robust_median_departs_from_the_plain_median_only_when_min_keep_survive() {
    let mut rng = XorShift64::new(33);
    for _ in 0..100 {
        let n = 2 + (rng.next_u64() % 12) as usize;
        let (samples, spikes) = spiky_window(&mut rng, n);
        let robust = robust_median(&samples, MAD_K, MIN_KEEP);
        let survivors = reject_outliers(&samples, MAD_K).len();
        // Either enough samples survived, or nothing was rejected at all.
        assert!(
            robust == median(&samples) || survivors >= MIN_KEEP,
            "min-repetition rule violated: {survivors} of {n} survived"
        );
        // A strict bulk majority pins the answer inside the bulk, whether
        // the spikes were rejected or merely outvoted.
        if 2 * (n - spikes) > n {
            assert!(
                (1.0..=1.01).contains(&robust),
                "median {robust} left the bulk"
            );
        }
    }
}

/// The location `analyze(..).median` reported before the resampled
/// confidence interval and its summary struct were deleted, kept
/// verbatim as the reference: rejection, the minimum-repetition
/// fallback, then a median.
fn analyze_median_reference(samples: &[f64]) -> f64 {
    let filtered = reject_outliers(samples, 3.5);
    let used = if filtered.len() >= 5 {
        filtered
    } else {
        samples.to_vec()
    };
    median(&used)
}

/// The governor's planning input must not move: over seeded windows of
/// every size the governor sees (empty, below `MIN_KEEP`, up to its
/// 512-sample cap), with spikes, ties and integer tick counts,
/// `robust_median` is bit-identical to the old rule.
#[test]
fn robust_median_is_bit_identical_to_the_old_analyze_median() {
    let mut rng = XorShift64::new(0x5eed_0026);
    for window in 0..200 {
        let n = match window % 4 {
            0 => rng.range_usize(0, MIN_KEEP),
            1 => rng.range_usize(MIN_KEEP, MIN_KEEP + 16),
            _ => rng.range_usize(1, 513),
        };
        let samples: Vec<f64> = if window % 3 == 0 {
            // Integer tick counts, as the governor clock records them.
            (0..n)
                .map(|_| (20 + rng.below(8) + 400 * u64::from(rng.chance(1, 10))) as f64)
                .collect()
        } else {
            spiky_window(&mut rng, n).0
        };
        let expected = analyze_median_reference(&samples);
        let got = robust_median(&samples, MAD_K, MIN_KEEP);
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "window {window} ({n} samples): {got} vs {expected}"
        );
    }
}
