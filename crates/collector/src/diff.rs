//! Profile comparison — the before/after view a performance engineer
//! actually wants from a profiler: which regions got faster or slower
//! between two runs.

use std::collections::BTreeMap;

use crate::profiler::Profile;
use crate::report;

/// One region's before/after comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionDelta {
    /// Region ID (matched across the two profiles).
    pub region_id: u64,
    /// Total seconds in the baseline run (None = region absent).
    pub before_secs: Option<f64>,
    /// Total seconds in the comparison run (None = region absent).
    pub after_secs: Option<f64>,
}

impl RegionDelta {
    /// Relative change (+ = slower), when the region exists in both runs.
    pub fn ratio(&self) -> Option<f64> {
        match (self.before_secs, self.after_secs) {
            (Some(b), Some(a)) if b > 0.0 => Some(a / b - 1.0),
            _ => None,
        }
    }
}

/// A full profile comparison.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    /// Per-region deltas, sorted by region ID.
    pub regions: Vec<RegionDelta>,
    /// Total region seconds before.
    pub total_before: f64,
    /// Total region seconds after.
    pub total_after: f64,
}

/// Compare two profiles region by region.
pub fn diff(before: &Profile, after: &Profile) -> ProfileDiff {
    let mut map: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for r in &before.regions {
        map.entry(r.region_id).or_default().0 = Some(r.total_secs);
    }
    for r in &after.regions {
        map.entry(r.region_id).or_default().1 = Some(r.total_secs);
    }
    ProfileDiff {
        regions: map
            .into_iter()
            .map(|(region_id, (b, a))| RegionDelta {
                region_id,
                before_secs: b,
                after_secs: a,
            })
            .collect(),
        total_before: before.total_region_secs(),
        total_after: after.total_region_secs(),
    }
}

impl ProfileDiff {
    /// Overall relative change (+ = slower).
    pub fn total_ratio(&self) -> f64 {
        if self.total_before <= 0.0 {
            return 0.0;
        }
        self.total_after / self.total_before - 1.0
    }

    /// Regions present only in the second profile.
    pub fn added(&self) -> Vec<u64> {
        self.regions
            .iter()
            .filter(|d| d.before_secs.is_none())
            .map(|d| d.region_id)
            .collect()
    }

    /// Regions present only in the first profile.
    pub fn removed(&self) -> Vec<u64> {
        self.regions
            .iter()
            .filter(|d| d.after_secs.is_none())
            .map(|d| d.region_id)
            .collect()
    }

    /// Render as a text table (worst regressions first).
    pub fn render(&self) -> String {
        let mut rows: Vec<&RegionDelta> = self.regions.iter().collect();
        rows.sort_by(|a, b| {
            b.ratio()
                .unwrap_or(f64::NEG_INFINITY)
                .partial_cmp(&a.ratio().unwrap_or(f64::NEG_INFINITY))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = format!(
            "total: {:.6}s -> {:.6}s ({:+.1}%)\n",
            self.total_before,
            self.total_after,
            self.total_ratio() * 100.0
        );
        out.push_str(&report::table(
            &["region", "before (s)", "after (s)", "change"],
            rows.into_iter().map(|d| {
                vec![
                    d.region_id.to_string(),
                    d.before_secs
                        .map(|s| format!("{s:.6}"))
                        .unwrap_or_else(|| "-".into()),
                    d.after_secs
                        .map(|s| format!("{s:.6}"))
                        .unwrap_or_else(|| "-".into()),
                    d.ratio()
                        .map(|r| format!("{:+.1}%", r * 100.0))
                        .unwrap_or_else(|| "new/gone".into()),
                ]
            }),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::RegionProfile;

    fn profile_with(regions: &[(u64, f64)]) -> Profile {
        Profile {
            regions: regions
                .iter()
                .map(|&(region_id, total_secs)| RegionProfile {
                    region_id,
                    calls: 1,
                    total_secs,
                    mean_secs: total_secs,
                    min_secs: total_secs,
                    max_secs: total_secs,
                })
                .collect(),
            threads: vec![],
            call_tree: psx::CallTree::new(),
            events_observed: 0,
            joins: regions.len() as u64,
            join_samples: 0,
            skipped_small: 0,
            skipped_dedup: 0,
            distinct_sites: 0,
            api_health: Default::default(),
        }
    }

    #[test]
    fn diff_matches_regions_and_computes_ratios() {
        let before = profile_with(&[(1, 1.0), (2, 2.0)]);
        let after = profile_with(&[(1, 1.5), (2, 1.0)]);
        let d = diff(&before, &after);
        assert_eq!(d.regions.len(), 2);
        let r1 = &d.regions[0];
        assert_eq!(r1.region_id, 1);
        assert!((r1.ratio().unwrap() - 0.5).abs() < 1e-9, "50% slower");
        let r2 = &d.regions[1];
        assert!((r2.ratio().unwrap() + 0.5).abs() < 1e-9, "50% faster");
        assert!((d.total_ratio() - (2.5 / 3.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn added_and_removed_regions_are_reported() {
        let before = profile_with(&[(1, 1.0)]);
        let after = profile_with(&[(2, 1.0)]);
        let d = diff(&before, &after);
        assert_eq!(d.added(), vec![2]);
        assert_eq!(d.removed(), vec![1]);
        assert!(d.regions.iter().all(|r| r.ratio().is_none()));
    }

    #[test]
    fn render_sorts_regressions_first() {
        let before = profile_with(&[(1, 1.0), (2, 1.0)]);
        let after = profile_with(&[(1, 0.5), (2, 3.0)]);
        let text = diff(&before, &after).render();
        let lines: Vec<&str> = text.lines().collect();
        // Header, table header, separator, then region 2 (the regression).
        assert!(lines[3].trim_start().starts_with('2'), "{text}");
        assert!(text.contains("+200.0%"));
        assert!(text.contains("-50.0%"));
    }

    #[test]
    fn empty_profiles_diff_cleanly() {
        let d = diff(&profile_with(&[]), &profile_with(&[]));
        assert!(d.regions.is_empty());
        assert_eq!(d.total_ratio(), 0.0);
    }
}
