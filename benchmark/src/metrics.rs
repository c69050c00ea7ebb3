//! The benchmark's contract, as data: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer ledger. `BENCHMARK.json` at
//! the repository root is generated from these tables (`ora-benchmark
//! manifest`), so the names the program prints and the names the
//! manifest declares cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write;

/// The command the manifest declares (run from the repository root).
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Seconds one run measures for when nobody says otherwise.
pub const RUN_SECONDS: u64 = 14;
/// Seed used when nobody says otherwise.
pub const DEFAULT_SEED: u64 = 20090922;

/// Workload names (final) and why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sync-storm",
        "empty fork-flood and barrier-storm blocks: the densest event stream the runtime emits, so dispatch, callbacks and the ring/drain path do most of the work",
    ),
    (
        "task-flood",
        "tied spawn-flood and untied producer-steal episodes: task deques and paired task events dominate; where the state and governed rungs cost most",
    ),
    (
        "compute-npb",
        "checksum-verified CG and EP passes with sparse events: the bypass workload, on which a ring, dispatch or fleet optimisation must predict no change",
    ),
    (
        "fleet-live",
        "the sync-storm generator streamed through SocketSink, a Unix socket, a daemon lane and the watermark merge into the store: the whole path in one number",
    ),
    (
        "fleet-replay",
        "two connections replay seeded pre-encoded chunk streams into the daemon: the fleet layers do most of the work and the runtime none",
    ),
    (
        "offline-merge",
        "seeded rank traces read back through open, decode, merge_ranks, analyze and store queries: the formats used the other way, reads beside writes",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. A bound is three times the widest run-to-run spread a
/// workload that measures the metric showed on the 2-core reference host,
/// rounded up to the next 5 %, no lower than the issue's bound and no
/// higher than the 25 % the driver's contract allows (README, "Bounds
/// and steadiness").
pub const END_TO_END: [EndToEnd; 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("bare_ops_per_s", "ops/s", "higher", 0.25),
    ("overhead_ratio", "x", "lower", 0.25),
    ("state_overhead_ratio", "x", "lower", 0.25),
    ("governed_overhead_ratio", "x", "lower", 0.25),
    ("offline_records_per_s", "records/s", "higher", 0.15),
    ("trace_bytes_per_event", "B", "lower", 0.03),
    ("peak_rss_mib", "MiB", "lower", 0.1),
];

const RUNTIME_METRICS: [&str; 8] = [
    "setup_s",
    "events_per_s",
    "bare_ops_per_s",
    "overhead_ratio",
    "state_overhead_ratio",
    "governed_overhead_ratio",
    "trace_bytes_per_event",
    "peak_rss_mib",
];

/// The end-to-end metrics each workload measures, in `WORKLOADS` order:
/// the subset the issue defines for it, plus what its own measurement
/// yields under the same definition at no cost (README, "Which workload
/// measures what").
pub const MEASURED: [&[&str]; 6] = [
    &RUNTIME_METRICS,
    &RUNTIME_METRICS,
    &[
        "setup_s",
        "events_per_s",
        "bare_ops_per_s",
        "overhead_ratio",
        "trace_bytes_per_event",
        "peak_rss_mib",
    ],
    &[
        "setup_s",
        "events_per_s",
        "bare_ops_per_s",
        "overhead_ratio",
        "trace_bytes_per_event",
        "peak_rss_mib",
    ],
    &[
        "setup_s",
        "events_per_s",
        "trace_bytes_per_event",
        "peak_rss_mib",
    ],
    &[
        "setup_s",
        "offline_records_per_s",
        "trace_bytes_per_event",
        "peak_rss_mib",
    ],
];

/// Whether `workload` measures end-to-end metric `metric`.
pub fn measures(workload: &str, metric: &str) -> bool {
    WORKLOADS
        .iter()
        .zip(MEASURED)
        .any(|(w, metrics)| w.0 == workload && metrics.contains(&metric))
}

/// What the result line carries for an end-to-end metric the workload
/// does not measure. The acceptance driver wants every end-to-end metric
/// from every workload and none of them 0, so the line cannot leave the
/// cell out; a constant can neither move nor fail. It is never printed
/// as a `workload metric value unit` line and `aa.sh` does not judge it.
pub const NOT_MEASURED: f64 = 1.0;

/// One per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer ledger (layer = crate or module name). A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [PerLayer; 62] = [
    ("omprt.forkjoin.ns_per_region", "ns", "lower"),
    ("omprt.forkjoin.p99_us", "us", "lower"),
    ("omprt.barrier.ns_per_episode", "ns", "lower"),
    ("omprt.task.ns_per_task", "ns", "lower"),
    ("omprt.task.steal_frac", "frac", "higher"),
    ("omprt.task.overflows", "count", "lower"),
    ("omprt.task.taskwait_parks", "count", "lower"),
    ("omprt.schedule.ns_per_claim", "ns", "lower"),
    ("omprt.pool.spawn_s", "s", "lower"),
    ("core.dispatch.ns_unregistered", "ns", "lower"),
    ("core.dispatch.ns_paused", "ns", "lower"),
    ("core.dispatch.ns_null_callback", "ns", "lower"),
    ("core.dispatch.paused_ratio", "x", "lower"),
    ("core.dispatch.null_ratio", "x", "lower"),
    ("core.message.ns_per_state_query", "ns", "lower"),
    ("core.message.ns_per_batch8", "ns", "lower"),
    ("core.governor.ns_per_admit", "ns", "lower"),
    ("core.governor.sampled_frac", "frac", "higher"),
    ("core.governor.retunes", "count", "lower"),
    ("core.governor.overhead_ppm", "ppm", "lower"),
    ("collector.attach_s", "s", "lower"),
    ("collector.finish_s", "s", "lower"),
    ("collector.callbacks_left_interned", "count", "lower"),
    ("collector.clock.ns_per_tick", "ns", "lower"),
    ("collector.tracer.ns_per_event", "ns", "lower"),
    ("collector.state_timer.ns_per_event", "ns", "lower"),
    ("collector.profiler.overhead_ratio", "x", "lower"),
    ("psx.capture.ns_per_stack", "ns", "lower"),
    ("psx.usermodel.ns_per_stack", "ns", "lower"),
    ("trace.ring.ns_per_record", "ns", "lower"),
    ("trace.ring.ns_per_record_shared", "ns", "lower"),
    ("trace.ring.blocked_drops", "count", "lower"),
    ("trace.ring.written", "count", "higher"),
    ("trace.drain.ns_per_record", "ns", "lower"),
    ("trace.drain.chunks", "count", "lower"),
    ("trace.drain.records_per_chunk", "count", "higher"),
    ("trace.format.encode_ns_per_record", "ns", "lower"),
    ("trace.format.decode_ns_per_record", "ns", "lower"),
    ("trace.format.bytes_per_record", "B", "lower"),
    ("trace.format.crc_mib_per_s", "MiB/s", "higher"),
    ("trace.sink.write_mib_per_s", "MiB/s", "higher"),
    ("trace.reader.open_ns_per_record", "ns", "lower"),
    ("trace.reader.merge_ns_per_record", "ns", "lower"),
    ("trace.analyze.ns_per_record", "ns", "lower"),
    ("fleet.protocol.encode_ns_per_frame", "ns", "lower"),
    ("fleet.protocol.decode_ns_per_frame", "ns", "lower"),
    ("fleet.transport.roundtrip_us", "us", "lower"),
    ("fleet.transport.loopback_roundtrip_us", "us", "lower"),
    ("fleet.sink.write_ns_per_chunk", "ns", "lower"),
    ("fleet.sink.ack_wait_frac", "frac", "lower"),
    ("fleet.daemon.records_per_s", "records/s", "higher"),
    ("fleet.daemon.late_events", "count", "lower"),
    ("fleet.daemon.quarantined", "count", "lower"),
    ("fleet.daemon.finish_s", "s", "lower"),
    ("fleet.store.export_ns_per_record", "ns", "lower"),
    ("fleet.store.query_ns_per_hit", "ns", "lower"),
    ("ablation.null_callback.ns_per_event", "ns", "lower"),
    ("ablation.ring_no_drain.ns_per_event", "ns", "lower"),
    ("ablation.memory_sink.ns_per_event", "ns", "lower"),
    ("ablation.socket_loopback.ns_per_event", "ns", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.unattributed_frac", "frac", "lower"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [");
    for (i, part) in COMMAND.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{part}\"");
    }
    out.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{sep}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// What one run reports: metric values by name, plus the failure share.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations whose outcome was checked (events observed, records
    /// compared, output checks made).
    pub attempted: u64,
    /// Of those, how many were lost, unreconciled or wrong.
    pub failed: u64,
    /// Human-readable reasons for `failed`, for stderr.
    pub failures: Vec<String>,
}

impl Report {
    /// Record `value` for metric `name` (which must be in the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the tables"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count `n` checked operations, `failed` of them bad.
    pub fn check(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }

    /// Count one yes/no output check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(1, u64::from(!ok), what);
    }

    /// The `workload metric value unit` lines for every metric set.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        let units = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in units {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{workload} {name} {v} {unit}");
            }
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{workload} failed_frac {share} frac");
        out
    }

    /// The result line the driver reads: every end-to-end metric for an
    /// untraced run ([`NOT_MEASURED`] where `workload` does not measure
    /// it), every per-layer metric for a traced one. An end-to-end metric
    /// the workload measures but never set, or any value that is not a
    /// finite number, is an error: the run must not pass as measured.
    pub fn result_json(&self, workload: &str, traced: bool) -> Result<String, String> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(_) if !traced && !measures(workload, name) => {
                    return Err(format!("{name} was set but is not in MEASURED"))
                }
                Some(v) => *v,
                // A layer this workload does not exercise did no work.
                None if traced => 0.0,
                None if !measures(workload, name) => NOT_MEASURED,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || (!traced && value <= 0.0) {
                return Err(format!("metric {name} has unusable value {value}"));
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "every name is used once");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for (name, unit, better, bound) in END_TO_END {
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(better == "lower" || better == "higher");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(better == "lower" || better == "higher");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!(manifest_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        for (cells, (workload, _)) in MEASURED.iter().zip(WORKLOADS) {
            assert!(measures(workload, "setup_s"), "{workload}: setup_s");
            for cell in *cells {
                assert!(END_TO_END.iter().any(|m| m.0 == *cell), "{cell}");
            }
        }
        for m in END_TO_END {
            assert!(WORKLOADS.iter().any(|w| measures(w.0, m.0)), "{}", m.0);
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with: ora-benchmark manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_lists_exactly_the_selected_metrics() {
        let mut r = Report::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.0, 1.5 + i as f64);
        }
        r.check(10, 0, String::new);
        // No workload measures all nine.
        assert!(r.result_json("sync-storm", false).is_err());
        let mut r = Report::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            if measures("sync-storm", m.0) {
                r.set(m.0, 1.5 + i as f64);
            }
        }
        r.check(10, 0, String::new);
        let line = r.result_json("sync-storm", false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.0)));
        }
        assert!(line.contains("\"offline_records_per_s\": {\"value\": 1, \"unit\""));
        assert!(!line.contains("omprt."));
        assert!(!r.lines("sync-storm").contains("offline_records_per_s"));
        // A traced line carries every per-layer metric, unset ones as 0.
        r.set("trace.ring.written", 42.0);
        let line = r.result_json("sync-storm", true).unwrap();
        assert!(line.contains("\"trace.ring.written\": {\"value\": 42, \"unit\": \"count\"}"));
        assert!(line.contains("\"omprt.task.overflows\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(!line.contains("setup_s"));
    }

    #[test]
    fn missing_or_unusable_end_to_end_values_are_errors() {
        let mut r = Report::default();
        assert!(r.result_json("task-flood", false).is_err());
        for m in END_TO_END {
            if measures("task-flood", m.0) {
                r.set(m.0, 1.0);
            }
        }
        r.set("overhead_ratio", f64::NAN);
        assert!(r.result_json("task-flood", false).is_err());
        r.set("overhead_ratio", 0.0);
        assert!(r.result_json("task-flood", false).is_err());
        r.set("overhead_ratio", 1.0);
        r.expect(false, || "planted".into());
        let line = r.result_json("task-flood", false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }
}
