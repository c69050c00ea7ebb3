//! `omp_prof trace record`'s summary line reports the ring-full waits.
//!
//! A `--policy block` producer that finds its lane full waits for the
//! drainer; the recording counts those waits and their time
//! (`RecordingStats::blocked_waits` / `blocked_wait_ticks`), and the
//! summary line prints them as `blocked waits N (X ms)`. Newest
//! producers never wait, so under the default policy the field reads
//! exactly zero.

use std::process::Command;

/// Run `omp_prof trace record` under `policy` and return the summary
/// line's `(waits, ms)`.
fn blocked_waits(policy: &str) -> (u64, f64) {
    let path = std::env::temp_dir().join(format!(
        "ora_record_summary_{}_{policy}.oratrace",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_omp_prof"))
        .args(["trace", "record", "--workload", "cg", "--threads", "2"])
        .args(["--policy", policy, "--out"])
        .arg(&path)
        .output()
        .expect("run omp_prof");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "omp_prof exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("region calls "))
        .unwrap_or_else(|| panic!("no summary line in:\n{stdout}"));
    let field = line
        .split(" | ")
        .find_map(|f| f.strip_prefix("blocked waits "))
        .unwrap_or_else(|| panic!("no `blocked waits` field in {line:?}"));
    let (waits, ms) = field
        .strip_suffix(" ms)")
        .and_then(|f| f.split_once(" ("))
        .unwrap_or_else(|| panic!("`blocked waits {field}` is not `N (X ms)`"));
    (
        waits.parse().expect("a wait count"),
        ms.parse().expect("a wait time in ms"),
    )
}

#[test]
fn the_record_summary_prints_blocked_waits() {
    assert_eq!(blocked_waits("newest"), (0, 0.0));
    let (waits, ms) = blocked_waits("block");
    assert!(ms >= 0.0);
    if waits == 0 {
        assert_eq!(ms, 0.0, "no wait took {ms} ms");
    }
}
