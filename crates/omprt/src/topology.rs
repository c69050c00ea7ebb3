//! Machine-topology model for hierarchical scheduling.
//!
//! The team barrier's shape and pooled nested-team assignment both want
//! to know how hardware threads group into cores and packages: SMT
//! siblings share an L1/L2 and combine cheaply, threads on one package
//! share a last-level cache, and crossing packages is the expensive hop.
//! This module gives them a single regular model — `packages ×
//! cores-per-package × SMT-per-core` — detected from
//! `/sys/devices/system/cpu` on Linux, or injected deterministically via
//! the `OMP_ORA_TOPOLOGY` environment variable (`"2x4x2"` means 2
//! packages, 4 cores each, 2 SMT slots per core). Benches and CI use the
//! injection form so topology-dependent results are reproducible on any
//! host.
//!
//! Global thread IDs map onto hardware slots *compactly*: the SMT index
//! varies fastest, then the core, then the package, so consecutive gtids
//! are SMT siblings and a team of `k ≤ package_size` threads lands on one
//! package. Oversubscribed teams wrap around the slot space.

use std::sync::OnceLock;

/// Environment variable that injects a synthetic topology (`"PxCxS"`).
pub const TOPOLOGY_ENV: &str = "OMP_ORA_TOPOLOGY";

/// Where a global thread ID lands in the machine hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Location {
    /// Package (socket) index.
    pub package: usize,
    /// Core index within the package.
    pub core: usize,
    /// SMT slot index within the core.
    pub smt: usize,
}

/// A regular machine model: packages → cores → SMT slots.
///
/// Irregular machines (offline CPUs, asymmetric packages) are collapsed
/// to the smallest regular box that covers every observed slot; the model
/// is a scheduling hint, not an affinity mask, so over-approximating is
/// harmless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    packages: usize,
    cores_per_package: usize,
    smt_per_core: usize,
}

impl Topology {
    /// Builds an explicit topology. All three extents are clamped to ≥ 1.
    pub fn new(packages: usize, cores_per_package: usize, smt_per_core: usize) -> Self {
        Topology {
            packages: packages.max(1),
            cores_per_package: cores_per_package.max(1),
            smt_per_core: smt_per_core.max(1),
        }
    }

    /// A flat single-package, SMT-less machine with `n` cores.
    pub fn flat(n: usize) -> Self {
        Topology::new(1, n, 1)
    }

    /// Parses the `OMP_ORA_TOPOLOGY` syntax: `"P"`, `"PxC"`, or `"PxCxS"`
    /// (e.g. `"2x4x2"`). Returns `None` on malformed input or any zero
    /// extent.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut dims = [1usize; 3];
        let parts: Vec<&str> = spec.trim().split('x').collect();
        if parts.is_empty() || parts.len() > 3 {
            return None;
        }
        for (slot, part) in dims.iter_mut().zip(&parts) {
            let v: usize = part.trim().parse().ok()?;
            if v == 0 {
                return None;
            }
            *slot = v;
        }
        // "8" reads most naturally as "8 cores", not "8 packages".
        match parts.len() {
            1 => Some(Topology::new(1, dims[0], 1)),
            2 => Some(Topology::new(dims[0], dims[1], 1)),
            _ => Some(Topology::new(dims[0], dims[1], dims[2])),
        }
    }

    /// The process-wide topology: `OMP_ORA_TOPOLOGY` if set and valid,
    /// else the machine detected from `/sys`, else a flat fallback sized
    /// by [`std::thread::available_parallelism`].
    ///
    /// Resolved once per process: every fork shapes its team barrier from
    /// this, so the fork path must not pay for an environment read.
    pub fn current() -> Self {
        static CURRENT: OnceLock<Topology> = OnceLock::new();
        *CURRENT.get_or_init(|| {
            std::env::var(TOPOLOGY_ENV)
                .ok()
                .and_then(|spec| Topology::parse(&spec))
                .unwrap_or_else(Topology::detect)
        })
    }

    /// Probes `/sys/devices/system/cpu` (Linux) for the machine shape.
    /// Falls back to a flat `available_parallelism`-sized model when the
    /// probe finds nothing usable.
    pub fn detect() -> Self {
        Topology::detect_sysfs("/sys/devices/system/cpu").unwrap_or_else(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Topology::flat(n)
        })
    }

    fn detect_sysfs(root: &str) -> Option<Self> {
        use std::collections::{BTreeMap, BTreeSet};
        let read_id = |path: String| -> Option<i64> {
            std::fs::read_to_string(path).ok()?.trim().parse().ok()
        };
        // (package_id, core_id) → number of SMT slots observed on it.
        let mut cores: BTreeMap<(i64, i64), usize> = BTreeMap::new();
        let mut cpu = 0usize;
        loop {
            let base = format!("{root}/cpu{cpu}/topology");
            let Some(pkg) = read_id(format!("{base}/physical_package_id")) else {
                break;
            };
            let core = read_id(format!("{base}/core_id")).unwrap_or(cpu as i64);
            *cores.entry((pkg, core)).or_insert(0) += 1;
            cpu += 1;
        }
        if cores.is_empty() {
            return None;
        }
        let packages: BTreeSet<i64> = cores.keys().map(|&(p, _)| p).collect();
        let mut per_package: BTreeMap<i64, usize> = BTreeMap::new();
        for &(p, _) in cores.keys() {
            *per_package.entry(p).or_insert(0) += 1;
        }
        let cores_per_package = per_package.values().copied().max().unwrap_or(1);
        let smt = cores.values().copied().max().unwrap_or(1);
        Some(Topology::new(packages.len(), cores_per_package, smt))
    }

    /// Number of packages.
    pub fn packages(&self) -> usize {
        self.packages
    }

    /// Cores per package.
    pub fn cores_per_package(&self) -> usize {
        self.cores_per_package
    }

    /// SMT slots per core.
    pub fn smt_per_core(&self) -> usize {
        self.smt_per_core
    }

    /// Hardware slots on one package.
    pub fn package_size(&self) -> usize {
        self.cores_per_package * self.smt_per_core
    }

    /// Total hardware slots on the machine.
    pub fn slots(&self) -> usize {
        self.packages * self.package_size()
    }

    /// Compact gtid → hardware-slot assignment: SMT varies fastest, then
    /// core, then package; oversubscribed gtids wrap around.
    pub fn location_of(&self, gtid: usize) -> Location {
        let slot = gtid % self.slots();
        let package = slot / self.package_size();
        let within = slot % self.package_size();
        Location {
            package,
            core: within / self.smt_per_core,
            smt: within % self.smt_per_core,
        }
    }

    /// Package index for a gtid under the compact assignment.
    pub fn package_of(&self, gtid: usize) -> usize {
        self.location_of(gtid).package
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_one_two_and_three_extents() {
        assert_eq!(Topology::parse("8"), Some(Topology::new(1, 8, 1)));
        assert_eq!(Topology::parse("2x4"), Some(Topology::new(2, 4, 1)));
        assert_eq!(Topology::parse("2x4x2"), Some(Topology::new(2, 4, 2)));
        assert_eq!(Topology::parse(" 2x4x2 "), Some(Topology::new(2, 4, 2)));
    }

    #[test]
    fn parse_rejects_garbage_and_zero_extents() {
        for bad in ["", "x", "2x", "0x4x2", "2x0", "2x4x2x2", "axbxc", "-1x2"] {
            assert_eq!(Topology::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn compact_assignment_packs_smt_then_core_then_package() {
        let t = Topology::new(2, 2, 2);
        let locs: Vec<Location> = (0..8).map(|g| t.location_of(g)).collect();
        // gtids 0,1 are SMT siblings on core 0 of package 0.
        assert_eq!(
            locs[0],
            Location {
                package: 0,
                core: 0,
                smt: 0
            }
        );
        assert_eq!(
            locs[1],
            Location {
                package: 0,
                core: 0,
                smt: 1
            }
        );
        assert_eq!(
            locs[2],
            Location {
                package: 0,
                core: 1,
                smt: 0
            }
        );
        // Package boundary at gtid 4.
        assert_eq!(
            locs[4],
            Location {
                package: 1,
                core: 0,
                smt: 0
            }
        );
        // Oversubscription wraps.
        assert_eq!(t.location_of(8), locs[0]);
        assert_eq!(t.location_of(13), locs[5]);
    }

    #[test]
    fn detect_never_panics_and_is_nonempty() {
        let t = Topology::detect();
        assert!(t.slots() >= 1);
    }

    #[test]
    fn sysfs_probe_on_missing_root_falls_back() {
        assert_eq!(Topology::detect_sysfs("/nonexistent/xyzzy"), None);
    }
}
