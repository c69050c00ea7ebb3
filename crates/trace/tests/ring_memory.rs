//! A ring set costs only the slots recorded into, every time it is built.
//!
//! Slots store their sequence relative to their index, so a ring's slot
//! array is an anonymous mapping never written at construction: the
//! default 64 lanes × 16 Ki slots × 48 B reserve 48 MiB of address space
//! but fault in none of it until a producer records. That must hold for
//! the fourth set a process builds as for the first. Memory from the
//! allocator does not: once a freed lane raises glibc's mmap threshold,
//! later lanes come from the heap and are zeroed by writing. This reads
//! the process's resident set around each construction and around one
//! lane's first lap, with the allocator's thresholds left at their
//! defaults. It is the only test in its binary so nothing else
//! allocates or faults pages while it measures.
#![cfg(target_os = "linux")]

use ora_trace::{DropPolicy, RawRecord, RingSet};

/// Resident set size of this process, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn a_ring_set_faults_in_only_the_lanes_recorded_into() {
    const LANES: usize = 64;
    const SLOTS: usize = 1 << 14;
    const MIB: u64 = 1024;

    for round in 1..=4 {
        let before = rss_kib();
        let set = RingSet::new(LANES, SLOTS, DropPolicy::Block);
        let built = rss_kib();
        let construct = built.saturating_sub(before);
        assert!(
            construct < 4 * MIB,
            "building ring set {round} of {LANES} × {SLOTS}-slot lanes grew RSS by \
             {construct} KiB; an untouched ring set costs address space only"
        );
        if round < 4 {
            continue;
        }

        // One lane's first lap: exactly its capacity, so Block never waits.
        for tick in 0..SLOTS as u64 {
            set.record(RawRecord {
                tick,
                event: 1,
                ..RawRecord::default()
            });
        }
        assert_eq!(set.lane(0).stats().written, SLOTS as u64);
        let lap = rss_kib().saturating_sub(built);
        // One lane is 16 Ki × 48 B = 768 KiB. The floor proves the writes
        // were seen; the ceiling (room for a transparent huge page) proves
        // the other 63 lanes stayed untouched.
        assert!(
            (MIB / 2..4 * MIB).contains(&lap),
            "one lane's first lap grew RSS by {lap} KiB; expected about 768 KiB"
        );
    }
}
