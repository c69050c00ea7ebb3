//! `omp_prof` — a psrun-style command-line front end: run a built-in
//! workload under a chosen ORA collector tool and print its report.
//!
//! ```text
//! omp_prof --workload cg --tool profile   --threads 4 --class s
//! omp_prof --workload lu-hp --tool trace  --threads 2
//! omp_prof --workload bt --tool states
//! omp_prof --workload sp --tool selective
//! omp_prof --workload epcc --tool profile
//! ```
//!
//! The `trace` subcommand exposes the `ora-trace` streaming pipeline:
//! record a workload's full event stream to a binary trace file, then
//! query it offline — no re-run needed:
//!
//! ```text
//! omp_prof trace record --workload epcc --threads 2 --out run.oratrace
//! omp_prof trace report --in run.oratrace
//! omp_prof trace report --in run.oratrace --thread 1 --head 20
//! omp_prof trace report --in run.oratrace --region 3 --from-us 100 --to-us 900
//! ```
//!
//! `--thread`, `--region` and the `--from-us`/`--to-us` window combine:
//! a record is reported only if it passes every filter given.
//!
//! The `health` and `suite` subcommands are the fault-isolation harness:
//! `health` runs a short diagnostic workload — optionally with injected
//! collector faults — and reports the runtime's `OMP_REQ_HEALTH`
//! counters plus the trace drainer's supervision state; `suite` runs
//! every built-in workload under a streaming tracer and verifies that
//! results stay correct even while the collector is failing:
//!
//! ```text
//! omp_prof health
//! omp_prof health --inject-panic-cb --kill-drainer --policy block
//! omp_prof suite --threads 4 --inject-panic-cb --kill-drainer --policy block
//! ```
//!
//! `health` exits 0 when no faults were recorded and 3 when faults were
//! caught and isolated (the application still completed — that is the
//! point). `suite` exits 0 as long as every workload completes with
//! correct results, faults or not.
//!
//! The `fuzz` subcommand is the oracle-differential scenario fuzzer
//! (`ora-fuzz`): generate seeded region programs, execute each under
//! every collector rung, and diff results, thread states, health
//! counters and trace accounting against a sequential oracle. Failing
//! seeds are minimized and written out as replayable case files:
//!
//! ```text
//! omp_prof fuzz --seeds 200                   # sweep seeds 0..200
//! omp_prof fuzz --seeds 50 --start 1000       # sweep seeds 1000..1050
//! omp_prof fuzz --case tests/fuzz_cases/claimer_tail_small_trip.case
//! omp_prof fuzz --cases tests/fuzz_cases      # replay the curated suite
//! omp_prof fuzz --seeds 500 --out fuzz-out    # persist failing cases
//! omp_prof fuzz --seeds 50 --rungs governed   # sweep one rung only
//! ```
//!
//! `fuzz` exits 0 when every scenario matched the oracle on every rung,
//! 1 when any mismatch was found, and 2 on unusable input.
//!
//! The `serve` and `fleet` subcommands are the multi-process (hybrid
//! MPI+OpenMP) profiling front end (`ora-fleet`): `serve` runs the
//! trace-aggregation daemon standalone; `fleet` spawns N child rank
//! processes each streaming an NPB-MZ rank's trace into an in-process
//! daemon, then reports the merged fleet profile and proves the online
//! merge byte-identical to the offline `merge_ranks` of the ranks' teed
//! trace files:
//!
//! ```text
//! omp_prof serve --endpoint unix:/tmp/fleet.sock --ranks 4
//! omp_prof fleet --ranks 8 --threads 2 --workload lu-mz
//! omp_prof fleet --ranks 4 --kill-rank 2          # crash injection
//! omp_prof fleet --ranks 4 --slow-us 200          # slow-consumer injection
//! ```
//!
//! `fleet` exits 0 when the export matched the offline merge and every
//! surviving lane's drop/ACK accounting reconciled, 1 otherwise.
//! (`fleet-rank` is the hidden per-child entry point `fleet` spawns.)
//!
//! `trace report` also accepts multiple per-rank traces — `--rank FILE`
//! repeated, or `--ranks-dir DIR` for every `*.oratrace` in a directory
//! — and prints the merged `(tick, gtid, seq, rank)` timeline.
//! A trace killed before its footer is read from its complete chunks:
//! `trace report` and `trace analyze` print `salvaged: N chunks, M bytes
//! discarded; drop counts unknown` for it, and `trace report` exits 5.

use std::sync::Arc;

use collector::{
    report, Profiler, ProfilerConfig, RuntimeHandle, StateTimer, StreamError, StreamingTracer,
};
use omprt::OpenMp;
use ora_core::event::Event;
use ora_trace::{
    DropPolicy, FaultMode, FaultSink, FileSink, MemorySink, TraceConfig, TraceError, TraceEvent,
    TraceReader, TraceSink,
};
use workloads::epcc::{self, EpccConfig};
use workloads::{NpbClass, NpbKernel};

fn arg(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].clone())
        .unwrap_or_else(|| default.to_string())
}

/// The EPCC pass every subcommand runs: short, but touching every
/// directive.
const EPCC: EpccConfig = EpccConfig {
    outer_reps: 2,
    inner_reps: 64,
    delay_len: 64,
};

/// A `--threads`-wide runtime and its collector handle.
fn runtime_from_args() -> (OpenMp, RuntimeHandle) {
    let rt = OpenMp::with_threads(arg("--threads", "2").parse().unwrap_or(2));
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    (rt, handle)
}

/// Run `--workload` (or `default`) at `--class`, then let the workers'
/// trailing end-of-barrier events land.
fn run_workload(rt: &OpenMp, default: &str) {
    let class = npb_class(&arg("--class", "s"));
    match arg("--workload", default).as_str() {
        "epcc" => {
            for (d, stat) in epcc::run_all(rt, &EPCC) {
                println!(
                    "  epcc {:<12} overhead/instance {:>9.3} us",
                    d.name(),
                    stat.mean * 1e6
                );
            }
        }
        name => {
            let kernel = NpbKernel::all()
                .into_iter()
                .find(|k| k.name.eq_ignore_ascii_case(name))
                .unwrap_or_else(|| {
                    eprintln!("unknown workload '{name}' — use bt|ep|sp|mg|ft|cg|lu-hp|lu|epcc");
                    std::process::exit(2);
                });
            println!(
                "running {} (class {:?}: {} regions, {} region calls)",
                kernel.name,
                class,
                kernel.region_count(),
                kernel.region_calls(class)
            );
            let checksum = kernel.run(rt, class);
            println!("checksum: {checksum:.6}");
            if std::env::args().any(|a| a == "--verify") {
                match kernel.verify(rt.num_threads(), class) {
                    workloads::npb::Verification::Successful { rel_error } => {
                        println!("verification: SUCCESSFUL (rel err {rel_error:.2e})")
                    }
                    workloads::npb::Verification::Failed { expected, got } => {
                        println!("verification: FAILED (expected {expected}, got {got})")
                    }
                    workloads::npb::Verification::NotApplicable => {
                        println!("verification: N/A (partition-dependent kernel)")
                    }
                }
            }
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
}

/// `trace record`: run a workload with a streaming tracer writing the
/// full event stream to a binary trace file.
fn trace_record() {
    let out = arg("--out", "run.oratrace");
    let policy = drop_policy(&arg("--policy", "newest"));
    let config = TraceConfig {
        policy,
        ..TraceConfig::default()
    };

    let (rt, handle) = runtime_from_args();
    let sink = or_exit(FileSink::create(&out), &format!("cannot create {out}"));
    let tracer = StreamingTracer::attach(handle, config, sink).expect("attach tracer");
    run_workload(&rt, "epcc");
    let region_calls = tracer.region_calls();
    let (sink, stats) = tracer.finish().expect("finish trace");
    drop(sink.into_file().expect("flush trace file"));
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("trace written: {out}");
    println!(
        "  region calls {} | records {} | dropped {} | blocked waits {} ({:.3} ms) | chunks {} | {} bytes ({:.1} B/record)",
        region_calls,
        stats.drained(),
        stats.dropped(),
        stats.blocked_waits,
        collector::clock::to_micros(stats.blocked_wait_ticks) * 1e-3,
        stats.chunks,
        size,
        size as f64 / stats.drained().max(1) as f64,
    );
    // Under `--policy block` the contract is losslessness: the producer
    // stalls rather than drops. Drops still being reported means the
    // pipeline was misconfigured (e.g. drainer stopped before the rings
    // emptied) — the trace silently lies, so the exit code must not.
    if policy == DropPolicy::Block && stats.dropped() > 0 {
        eprintln!(
            "error: {} record(s) dropped under --policy block; the trace is incomplete",
            stats.dropped()
        );
        std::process::exit(1);
    }
}

/// The files under `dir` ending in `.ext`, sorted; exits with `code` if
/// the directory cannot be read.
fn files_with_extension(dir: &str, ext: &str, code: i32) -> Vec<std::path::PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {dir}: {e}");
            std::process::exit(code);
        })
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    paths.sort();
    paths
}

/// The per-rank trace files named on the command line: `--rank FILE`
/// repeated, plus every `*.oratrace` under `--ranks-dir DIR`, sorted.
fn rank_files() -> Vec<String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut files: Vec<String> = argv
        .windows(2)
        .filter(|w| w[0] == "--rank")
        .map(|w| w[1].clone())
        .collect();
    let ranks_dir = arg("--ranks-dir", "");
    if !ranks_dir.is_empty() {
        let paths = files_with_extension(&ranks_dir, "oratrace", 1);
        files.extend(paths.iter().map(|p| p.display().to_string()));
    }
    files
}

/// Open a trace file, saying so if it had to be salvaged.
fn open_trace(path: &String) -> TraceReader {
    let reader = or_exit(TraceReader::open(path), &format!("cannot read {path}"));
    if let Some(s) = reader.salvaged() {
        let (chunks, bytes) = (s.chunks, s.bytes_discarded);
        println!("{path}: salvaged: {chunks} chunks, {bytes} bytes discarded; drop counts unknown");
    }
    reader
}

/// `trace report`'s exit code when any trace it read was salvaged.
const EXIT_SALVAGED: i32 = 5;

/// `r`'s value, or exit 1 after printing `what: <error>`.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

/// The per-event occurrence table every timeline listing prints.
fn print_event_counts(events: impl Iterator<Item = Event>) {
    let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
    for event in events {
        *counts.entry(event.name()).or_insert(0) += 1;
    }
    println!(
        "{}",
        report::table(
            &["event", "count"],
            counts
                .iter()
                .map(|(name, n)| vec![name.to_string(), n.to_string()]),
        )
    );
}

/// The "first N records" listing; merged timelines name each record's
/// rank.
fn print_head<'a>(
    head: usize,
    records: impl ExactSizeIterator<Item = (Option<usize>, &'a TraceEvent)>,
) {
    println!("first {} records:", head.min(records.len()));
    for (rank, r) in records.take(head) {
        let rank = rank.map_or(String::new(), |k| format!("rank {k:<2} "));
        println!(
            "{:>12.3} us  {rank}t{:<3} {:<34} region={} wait={}",
            collector::clock::to_micros(r.tick),
            r.gtid,
            r.event.name(),
            r.region_id,
            r.wait_id
        );
    }
}

/// `trace analyze`: replay a recorded trace and report detrimental
/// task-parallel patterns (starvation windows, serialized spawn,
/// barrier convoys) with tick-ranged evidence. Accepts a single trace
/// (`--in`), per-rank traces (`--rank`/`--ranks-dir`, merged first),
/// or a fleet timeline export (`--timeline`).
fn trace_analyze() {
    use ora_trace::analyze::{self, AnalyzeConfig};

    let mut cfg = AnalyzeConfig::default();
    let frac = |name: &str, default: f64| arg(name, "").parse().unwrap_or(default);
    cfg.min_tasks = arg("--min-tasks", "").parse().unwrap_or(cfg.min_tasks);
    cfg.starvation_frac = frac("--starvation-frac", cfg.starvation_frac);
    cfg.dominance_frac = frac("--dominance-frac", cfg.dominance_frac);

    let timeline = arg("--timeline", "");
    let events = if !timeline.is_empty() {
        let bytes = or_exit(std::fs::read(&timeline), &format!("cannot read {timeline}"));
        let events = or_exit(
            analyze::decode_timeline(&bytes),
            &format!("{timeline} is not a fleet timeline export"),
        );
        println!(
            "analyzing fleet timeline {timeline} ({} records)",
            events.len()
        );
        events
    } else {
        // One file is a fleet of one: rank 0.
        let mut files = rank_files();
        if files.is_empty() {
            files.push(arg("--in", "run.oratrace"));
        }
        let readers: Vec<TraceReader> = files.iter().map(open_trace).collect();
        let merged = or_exit(ora_trace::merge_ranks(&readers), "merge failed");
        println!("analyzing {} ({} records)", files.join(", "), merged.len());
        merged
    };
    let report = analyze::analyze(&events, &cfg);
    print!("{}", report.render());
    // Findings are an analysis outcome, not an error — but scripts want
    // to gate on them, so surface "patterns found" as exit 4.
    if !report.findings.is_empty() {
        std::process::exit(4);
    }
}

/// `trace report --rank a.oratrace --rank b.oratrace` (or
/// `--ranks-dir DIR`): print the merged `(tick, gtid, seq, rank)`
/// timeline across per-rank trace files.
fn trace_report_ranks(files: &[String], head: usize) {
    let readers: Vec<TraceReader> = files.iter().map(open_trace).collect();
    println!("merged fleet timeline over {} rank trace(s):", files.len());
    for (rank, (file, reader)) in files.iter().zip(&readers).enumerate() {
        let dropped = reader.dropped().map_or("unknown".into(), |d| d.to_string());
        println!(
            "  rank {rank}: {file} — {} records, {dropped} dropped",
            reader.record_count(),
        );
    }
    let merged = or_exit(ora_trace::merge_ranks(&readers), "merge failed");
    println!("  merged: {} records\n", merged.len());
    print_event_counts(merged.iter().map(|e| e.record.event));
    print_head(head, merged.iter().map(|e| (Some(e.rank), &e.record)));
    if readers.iter().any(|r| r.salvaged().is_some()) {
        std::process::exit(EXIT_SALVAGED);
    }
}

/// `trace report`: query a recorded binary trace offline.
fn trace_report() {
    let head: usize = arg("--head", "30").parse().unwrap_or(30);
    // Multi-rank mode: `--rank FILE` repeated and/or `--ranks-dir DIR`.
    let rank_files = rank_files();
    if !rank_files.is_empty() {
        return trace_report_ranks(&rank_files, head);
    }

    let input = arg("--in", "run.oratrace");
    let reader = open_trace(&input);
    let has = |name: &str| std::env::args().any(|a| a == name);
    let gtid = has("--thread").then(|| arg("--thread", "0").parse().unwrap_or(0));
    let region = has("--region").then(|| arg("--region", "0").parse().unwrap_or(0));
    let window = (has("--from-us") || has("--to-us")).then(|| {
        let lo = (arg("--from-us", "0").parse().unwrap_or(0.0) * 1e3) as u64;
        let hi = (arg("--to-us", &f64::MAX.to_string())
            .parse()
            .unwrap_or(f64::MAX)
            .min(u64::MAX as f64 * 1e-3)
            * 1e3) as u64;
        lo..=hi
    });
    // The most selective filter picks the chunks to decode; every
    // filter given then applies to what they hold.
    let query = match (gtid, region, &window) {
        (Some(gtid), ..) => reader.for_thread(gtid),
        (None, Some(region), _) => reader.for_region(region),
        (None, None, Some(window)) => reader.time_range(*window.start(), *window.end()),
        (None, None, None) => reader.records(),
    };
    let mut records = or_exit(query, "trace is damaged");
    records.retain(|r| {
        gtid.is_none_or(|gtid| r.gtid == gtid)
            && region.is_none_or(|region| r.region_id == region)
            && window
                .as_ref()
                .is_none_or(|window| window.contains(&r.tick))
    });
    print_trace_report(&input, &reader, &records, head);
    if reader.salvaged().is_some() {
        std::process::exit(EXIT_SALVAGED);
    }
}

/// The single-trace report: footer accounting, event counts, governor
/// timeline, and the head of `records` (the query's matches).
fn print_trace_report(input: &str, reader: &TraceReader, records: &[TraceEvent], head: usize) {
    println!("trace: {input}");
    let persisted = reader.record_count();
    match reader.footer() {
        Some(f) => println!(
            "  persisted {persisted} records in {} chunks | dropped {} | lanes {}",
            f.chunks.len(),
            f.total_dropped(),
            f.lanes.len()
        ),
        None => println!("  persisted {persisted} records"),
    }
    if let Some(footer) = reader.footer().filter(|f| f.total_dropped() > 0) {
        let lossy = footer.lanes.iter().filter(|l| l.dropped() > 0).count();
        println!("  loss detail: {lossy} lane(s) dropped records (see footer counters)");
    }
    println!("  query matched {} records\n", records.len());
    print_event_counts(records.iter().map(|r| r.event));

    // Governor decision records (if the trace was captured under the
    // governed rung): the sampling-rate timeline, oldest first.
    let timeline = reader.governor_timeline().unwrap_or_default();
    if !timeline.is_empty() {
        println!(
            "governor sampling-rate timeline ({} decision(s)):",
            timeline.len()
        );
        for s in &timeline {
            println!(
                "{:>12.3} us  {:<34} period 2^{} -> 2^{} (overhead {:.2}% of budget window)",
                collector::clock::to_micros(s.tick),
                s.event.name(),
                s.old_shift,
                s.new_shift,
                s.overhead_ppm as f64 / 10_000.0
            );
        }
        println!();
    }
    print_head(head, records.iter().map(|r| (None, r)));
}

/// Silence the default panic hook for *injected* faults only, so fault
/// harness runs don't spew backtraces for panics that are the test.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        if msg.is_some_and(|m| m.contains("injected")) {
            return;
        }
        prev(info);
    }));
}

fn drop_policy(s: &str) -> DropPolicy {
    match s {
        "oldest" => DropPolicy::Oldest,
        "block" => DropPolicy::Block,
        _ => DropPolicy::Newest,
    }
}

/// Shared fault-harness setup: attach a streaming tracer (with a
/// drainer-killing sink when requested) and optionally register a
/// permanently-panicking callback over the tracer's barrier slot.
fn attach_fault_harness(
    rt: &OpenMp,
    policy: DropPolicy,
    inject_panic_cb: bool,
    kill_drainer: bool,
) -> (RuntimeHandle, StreamingTracer<Box<dyn TraceSink>>) {
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let sink: Box<dyn TraceSink> = if kill_drainer {
        // Budget covers exactly the 8-byte header `Recorder::start`
        // writes on the caller thread; the drainer's first chunk flush
        // then panics, killing it mid-recording.
        Box::new(FaultSink::new(8, FaultMode::Panic))
    } else {
        Box::new(MemorySink::new())
    };
    let config = TraceConfig {
        policy,
        ..TraceConfig::default()
    };
    let tracer = StreamingTracer::attach(handle.clone(), config, sink).expect("attach tracer");
    if inject_panic_cb {
        // Replaces the tracer's callback in the single per-event slot —
        // every implicit-barrier begin now panics until quarantined.
        handle
            .register(
                Event::ThreadBeginImplicitBarrier,
                Arc::new(|_| panic!("injected callback panic")),
            )
            .expect("inject panicking callback");
    }
    (handle, tracer)
}

/// `health`: run a short diagnostic workload (with optional injected
/// collector faults) and report the runtime's fault-isolation counters.
fn health() {
    let has = |name: &str| std::env::args().any(|a| a == name);
    let threads: usize = arg("--threads", "2").parse().unwrap_or(2);
    let inject = has("--inject-panic-cb");
    let kill = has("--kill-drainer");
    let policy = drop_policy(&arg("--policy", "newest"));
    if inject || kill {
        quiet_injected_panics();
    }

    let rt = OpenMp::with_threads(threads);
    if let Ok(n) = arg("--quarantine", "3").parse() {
        rt.set_quarantine_threshold(n);
    }
    let (handle, tracer) = attach_fault_harness(&rt, policy, inject, kill);
    run_workload(&rt, "epcc");

    let drainer = tracer.health();
    let finish = tracer.finish();
    let api = handle.query_health().expect("OMP_REQ_HEALTH");

    println!("\n=== runtime health (OMP_REQ_HEALTH) ===");
    println!(
        "{}",
        report::table(
            &["counter", "value"],
            [
                ("callback panics caught", api.callback_panics),
                ("callbacks quarantined", api.callbacks_quarantined),
                ("out-of-sequence requests", api.sequence_errors),
                ("requests served", api.requests),
                ("events sampled (governor)", api.events_sampled),
                ("events skipped (governor)", api.events_skipped),
                ("tasks stolen (scheduler)", api.tasks_stolen),
                ("task deque overflows", api.task_overflows),
                ("taskwait parks", api.taskwait_parks),
            ]
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()]),
        )
    );

    println!("=== trace drainer ===");
    println!(
        "  alive {} | degraded {} | heartbeats {} | drained {}",
        drainer.alive, drainer.degraded, drainer.heartbeats, drainer.drained
    );
    if let Some(err) = &drainer.error {
        println!("  failure: {err}");
    }
    match finish {
        Ok((_sink, stats)) => println!(
            "  finish: clean ({} records drained, {} dropped)",
            stats.drained(),
            stats.dropped()
        ),
        Err(StreamError::Trace(TraceError::DrainerFailed {
            reason,
            drained,
            dropped,
        })) => {
            println!("  finish: DEGRADED — {reason} ({drained} records drained, {dropped} dropped)")
        }
        Err(e) => {
            eprintln!("  finish failed unexpectedly: {e}");
            std::process::exit(1);
        }
    }

    let faulted = api.faulted() || drainer.degraded;
    println!(
        "\nverdict: {}",
        if faulted {
            "FAULTED — collector faults were caught and isolated; the application completed"
        } else {
            "HEALTHY"
        }
    );
    std::process::exit(if faulted { 3 } else { 0 });
}

/// `suite`: every built-in workload under a streaming tracer, verifying
/// that application results stay correct even with injected collector
/// faults. Exit 0 iff every workload completes with correct results.
fn suite_run() {
    let has = |name: &str| std::env::args().any(|a| a == name);
    let threads: usize = arg("--threads", "2").parse().unwrap_or(2);
    let class = npb_class(&arg("--class", "s"));
    let inject = has("--inject-panic-cb");
    let kill = has("--kill-drainer");
    let policy = drop_policy(&arg("--policy", "newest"));
    if inject || kill {
        quiet_injected_panics();
    }
    println!(
        "fault-isolation suite: {} thread(s), policy {:?}, inject-panic-cb {}, kill-drainer {}",
        threads, policy, inject, kill
    );

    let mut rows = Vec::new();
    let mut all_ok = true;
    let workloads: Vec<String> = std::iter::once("epcc".to_string())
        .chain(NpbKernel::all().into_iter().map(|k| k.name.to_string()))
        .collect();
    for name in &workloads {
        let rt = OpenMp::with_threads(threads);
        if let Ok(n) = arg("--quarantine", "3").parse() {
            rt.set_quarantine_threshold(n);
        }
        let (handle, tracer) = attach_fault_harness(&rt, policy, inject, kill);

        let result = if name == "epcc" {
            let directives = epcc::run_all(&rt, &EPCC).len();
            format!("ok ({directives} directives)")
        } else {
            let kernel = NpbKernel::all()
                .into_iter()
                .find(|k| k.name == name)
                .expect("known kernel");
            kernel.run(&rt, class);
            match kernel.verify(rt.num_threads(), class) {
                workloads::npb::Verification::Successful { .. } => "ok (verified)".to_string(),
                workloads::npb::Verification::NotApplicable => "ok".to_string(),
                workloads::npb::Verification::Failed { expected, got } => {
                    all_ok = false;
                    format!("FAILED (expected {expected}, got {got})")
                }
            }
        };
        std::thread::sleep(std::time::Duration::from_millis(50));

        let degraded = tracer.is_degraded();
        let (drained, dropped) = match tracer.finish() {
            Ok((_sink, stats)) => (stats.drained(), stats.dropped()),
            Err(StreamError::Trace(TraceError::DrainerFailed {
                drained, dropped, ..
            })) => (drained, dropped),
            Err(e) => {
                eprintln!("{name}: trace finish failed unexpectedly: {e}");
                all_ok = false;
                (0, 0)
            }
        };
        let api = handle.query_health().expect("OMP_REQ_HEALTH");
        rows.push(vec![
            name.clone(),
            result,
            drained.to_string(),
            dropped.to_string(),
            degraded.to_string(),
            api.callback_panics.to_string(),
            api.callbacks_quarantined.to_string(),
        ]);
    }

    println!(
        "\n{}",
        report::table(
            &[
                "workload",
                "result",
                "drained",
                "dropped",
                "degraded",
                "cb panics",
                "quarantined",
            ],
            rows.into_iter(),
        )
    );
    if all_ok {
        println!(
            "all {} workloads completed with correct results",
            workloads.len()
        );
    } else {
        eprintln!("FAILURE: at least one workload produced wrong results");
        std::process::exit(1);
    }
}

/// `omp_prof fuzz` — drive the oracle-differential fuzzer. Three input
/// modes, combinable: `--seeds N` (generate seeds `start..start+N`),
/// `--case FILE` (replay one case file), `--cases DIR` (replay every
/// `*.case` in a directory). `--rungs KEYS` restricts the sweep to a
/// comma-separated rung subset (default `all`) — e.g.
/// `--rungs governed` for a nightly governor soak. With `--out DIR`,
/// each failing scenario is written as `<name>.case` alongside a
/// greedily minimized `<name>.min.case` for triage.
fn fuzz_run() {
    use collector::modes::CollectionConfig;
    use ora_fuzz::{check_scenario_rungs, fails_with_retries_on, minimize, Scenario};

    let seeds: u64 = arg("--seeds", "0").parse().unwrap_or_else(|_| {
        eprintln!("--seeds must be an integer");
        std::process::exit(2);
    });
    let start: u64 = arg("--start", "0").parse().unwrap_or_else(|_| {
        eprintln!("--start must be an integer");
        std::process::exit(2);
    });
    let case = arg("--case", "");
    let cases_dir = arg("--cases", "");
    let out_dir = arg("--out", "");
    let rungs_arg = arg("--rungs", "all");
    let rungs: Vec<CollectionConfig> = if rungs_arg == "all" {
        CollectionConfig::ALL.to_vec()
    } else {
        rungs_arg
            .split(',')
            .map(|k| {
                CollectionConfig::from_key(k.trim()).unwrap_or_else(|| {
                    eprintln!(
                        "unknown rung '{}' — use absent|paused|state|trace|governed (or all)",
                        k.trim()
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if seeds == 0 && case.is_empty() && cases_dir.is_empty() {
        eprintln!("nothing to do — pass --seeds N, --case FILE, or --cases DIR");
        std::process::exit(2);
    }

    // Assemble the work list: (name, scenario).
    let mut work: Vec<(String, Scenario)> = Vec::new();
    let mut load = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("case")
            .to_string();
        work.push((name, scenario));
    };
    if !case.is_empty() {
        load(std::path::Path::new(&case));
    }
    if !cases_dir.is_empty() {
        let paths = files_with_extension(&cases_dir, "case", 2);
        if paths.is_empty() {
            eprintln!("{cases_dir} contains no .case files");
            std::process::exit(2);
        }
        for p in &paths {
            load(p);
        }
    }
    for seed in start..start + seeds {
        work.push((format!("seed_{seed}"), ora_fuzz::generate(seed)));
    }

    let mut failures = 0usize;
    let total = work.len();
    for (i, (name, scenario)) in work.iter().enumerate() {
        let mismatches = check_scenario_rungs(scenario, &rungs);
        if mismatches.is_empty() {
            println!("[{:>4}/{total}] {name}: ok", i + 1);
            continue;
        }
        failures += 1;
        println!(
            "[{:>4}/{total}] {name}: FAILED ({} mismatch(es))",
            i + 1,
            mismatches.len()
        );
        for m in &mismatches {
            println!("    {m}");
        }
        if !out_dir.is_empty() {
            std::fs::create_dir_all(&out_dir).expect("create --out dir");
            let path = std::path::Path::new(&out_dir).join(format!("{name}.case"));
            std::fs::write(&path, scenario.to_case_file()).expect("write case");
            println!("    wrote {}", path.display());
            let min = minimize(scenario, |s| fails_with_retries_on(s, &rungs, 3));
            let min_path = std::path::Path::new(&out_dir).join(format!("{name}.min.case"));
            std::fs::write(&min_path, min.to_case_file()).expect("write minimized case");
            println!("    wrote {} (minimized)", min_path.display());
        }
    }

    if failures == 0 {
        let swept: Vec<&str> = rungs.iter().map(|r| r.key()).collect();
        println!(
            "fuzz: all {total} scenario(s) matched the oracle on rung(s): {}",
            swept.join(", ")
        );
    } else {
        eprintln!("fuzz: {failures}/{total} scenario(s) FAILED");
        std::process::exit(1);
    }
}

/// Render a fleet daemon's per-lane accounting and merged store.
fn render_fleet_report(rep: &ora_fleet::FleetReport) {
    println!("\n=== fleet lanes ===");
    println!(
        "{}",
        report::table(
            &[
                "rank",
                "records",
                "epochs",
                "ring drops",
                "reconciled",
                "status"
            ],
            rep.lanes.iter().map(|l| {
                let status = if let Some(why) = &l.quarantined {
                    format!("DEGRADED — {why}")
                } else if l.finished {
                    "ok (FIN)".to_string()
                } else {
                    "no FIN".to_string()
                };
                vec![
                    l.rank.to_string(),
                    l.records.to_string(),
                    l.epochs.to_string(),
                    l.footer.map_or("-".to_string(), |(_, d)| d.to_string()),
                    l.reconciled().to_string(),
                    status,
                ]
            }),
        )
    );
    for why in &rep.rejected {
        println!("  rejected connection: {why}");
    }
    println!(
        "merged store: {} records | {} settled late (below watermark)",
        rep.store.len(),
        rep.store.late_events()
    );
    print_event_counts(rep.store.records().iter().map(|e| e.record.event));
}

/// `serve`: run the trace-aggregation daemon standalone until the given
/// number of ranks have come and gone, then report.
fn fleet_serve() {
    let endpoint = ora_fleet::Endpoint::parse(&arg("--endpoint", "fleet.sock"));
    let ranks: u64 = arg("--ranks", "1").parse().unwrap_or(1);
    let slow = std::time::Duration::from_micros(arg("--slow-us", "0").parse().unwrap_or(0));
    println!("ora-fleet daemon on {endpoint}, serving {ranks} rank(s)");
    match ora_bench::fleet_driver::serve(&endpoint, ranks, slow) {
        Ok(report) => {
            render_fleet_report(&report);
            std::process::exit(if report.reconciled() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `fleet`: spawn N child rank processes streaming an NPB-MZ workload
/// into an in-process daemon; report the merged fleet profile and
/// verify the online merge against the offline one.
fn fleet_run() {
    use ora_bench::fleet_driver::{run_fleet, FleetConfig};
    let ranks: usize = arg("--ranks", "2").parse().unwrap_or(2);
    let default_dir = std::env::temp_dir()
        .join(format!("ora_fleet_{}", std::process::id()))
        .display()
        .to_string();
    let endpoint = arg("--endpoint", "");
    let cfg = FleetConfig {
        ranks,
        threads: arg("--threads", "2").parse().unwrap_or(2),
        workload: arg("--workload", "lu-mz"),
        class: npb_class(&arg("--class", "s")),
        endpoint: (!endpoint.is_empty()).then_some(endpoint),
        out_dir: arg("--out-dir", &default_dir).into(),
        kill_rank: arg("--kill-rank", "").parse().ok(),
        slow: std::time::Duration::from_micros(arg("--slow-us", "0").parse().unwrap_or(0)),
        window: arg("--window", "8").parse().unwrap_or(8),
    };
    println!(
        "fleet: {} × {} ({} rank processes × {} threads), class {:?}, traces in {}",
        cfg.workload,
        cfg.ranks,
        cfg.ranks,
        cfg.threads,
        cfg.class,
        cfg.out_dir.display()
    );
    if let Some(k) = cfg.kill_rank {
        println!("  crash injection: rank {k} dies mid-stream");
    }
    if !cfg.slow.is_zero() {
        println!("  slow-consumer injection: {:?} per chunk ACK", cfg.slow);
    }
    match run_fleet(&cfg) {
        Ok((report, identical)) => {
            render_fleet_report(&report);
            println!(
                "export byte-identical to offline merge_ranks: {}",
                if identical { "yes" } else { "NO" }
            );
            // Every surviving lane must FIN cleanly with reconciled
            // accounting; a killed lane must be degraded, not finished.
            let survivors_ok = report
                .lanes
                .iter()
                .filter(|l| cfg.kill_rank != Some(l.rank as usize))
                .all(|l| l.finished && l.quarantined.is_none() && l.reconciled());
            let killed_ok = cfg
                .kill_rank
                .is_none_or(|k| report.lane(k as u64).is_none_or(|l| !l.finished));
            if survivors_ok && killed_ok && identical {
                println!("fleet: ok");
            } else {
                eprintln!(
                    "fleet: FAILED (survivors ok: {survivors_ok}, killed lane degraded: {killed_ok}, export identical: {identical})"
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    }
}

/// Hidden per-child entry point `fleet` spawns: stream one rank.
fn fleet_rank_child() {
    let rank: usize = arg("--rank", "0").parse().unwrap_or(0);
    let endpoint = ora_fleet::Endpoint::parse(&arg("--endpoint", "fleet.sock"));
    let trace_out = arg("--trace-out", "rank.oratrace");
    let die_early = std::env::args().any(|a| a == "--die-early");
    if let Err(e) = ora_bench::fleet_driver::run_rank_child(
        &endpoint,
        rank,
        arg("--ranks", "1").parse().unwrap_or(1),
        arg("--threads", "2").parse().unwrap_or(2),
        &arg("--workload", "lu-mz"),
        npb_class(&arg("--class", "s")),
        std::path::Path::new(&trace_out),
        arg("--window", "8").parse().unwrap_or(8),
        die_early,
    ) {
        eprintln!("fleet-rank {rank}: {e}");
        std::process::exit(1);
    }
}

fn npb_class(s: &str) -> NpbClass {
    match s {
        "w" | "W" => NpbClass::W,
        "b" | "B" => NpbClass::Bsim,
        _ => NpbClass::S,
    }
}

fn tool_profile() {
    let (rt, handle) = runtime_from_args();
    let p = Profiler::attach_default(handle).unwrap();
    run_workload(&rt, "cg");
    println!("\n{}", p.finish().render());
}

/// `--tool trace`: record into memory, then print what `trace report`
/// prints for a file; `--csv` appends the records as
/// `tick,gtid,event,region_id,wait_id` rows.
fn tool_trace() {
    let (rt, handle) = runtime_from_args();
    let t = StreamingTracer::attach(handle, TraceConfig::default(), MemorySink::new()).unwrap();
    run_workload(&rt, "cg");
    let (sink, _) = t.finish().expect("memory sink cannot fail");
    let reader = TraceReader::from_bytes(sink.into_bytes()).expect("self-encoded trace decodes");
    let records = reader.records().expect("self-encoded trace decodes");
    println!();
    print_trace_report("<memory>", &reader, &records, 30);
    if std::env::args().any(|a| a == "--csv") {
        println!("\ntick,gtid,event,region_id,wait_id");
        for r in &records {
            println!(
                "{},{},{},{},{}",
                r.tick, r.gtid, r.event as u32, r.region_id, r.wait_id
            );
        }
    }
}

fn tool_states() {
    let (rt, handle) = runtime_from_args();
    let t = StateTimer::attach(handle).unwrap();
    run_workload(&rt, "cg");
    println!("\n{}", t.finish().render());
}

fn tool_suite() {
    let (rt, handle) = runtime_from_args();
    let t = collector::ToolSuite::attach(handle, collector::SuiteConfig::default()).unwrap();
    run_workload(&rt, "cg");
    println!("\n{}", t.finish().render());
}

fn tool_selective() {
    let (rt, handle) = runtime_from_args();
    // The §VI plan: no callstack for regions under 20 us, at most 8
    // callstacks per calling context.
    let config = ProfilerConfig {
        min_region_secs: 20e-6,
        max_samples_per_site: 8,
        ..ProfilerConfig::default()
    };
    let p = Profiler::attach(handle, config).unwrap();
    run_workload(&rt, "cg");
    let r = p.finish();
    println!(
        "\njoins {} | sampled {} | skipped small {} | deduped {} | savings {:.1}%",
        r.joins,
        r.join_samples,
        r.skipped_small,
        r.skipped_dedup,
        r.savings() * 100.0
    );
    println!("\ncall tree:\n{}", r.call_tree.render());
}

/// Every entry point, keyed by how the command line names it: a
/// subcommand, a `trace` sub-subcommand, or (with no subcommand) a
/// `--tool` name. Dispatch and both "unknown …" messages read this
/// table, so neither can drift from it.
const COMMANDS: &[(&str, fn())] = &[
    ("trace record", trace_record),
    ("trace report", trace_report),
    ("trace analyze", trace_analyze),
    ("health", health),
    ("suite", suite_run),
    ("fuzz", fuzz_run),
    ("serve", fleet_serve),
    ("fleet", fleet_run),
    ("fleet-rank", fleet_rank_child),
    ("--tool profile", tool_profile),
    ("--tool trace", tool_trace),
    ("--tool states", tool_states),
    ("--tool selective", tool_selective),
    ("--tool suite", tool_suite),
];

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let word = |i: usize| argv.get(i).map_or("", String::as_str);
    let key = match word(1) {
        "trace" => format!("trace {}", word(2)),
        cmd if COMMANDS.iter().any(|(name, _)| *name == cmd) => cmd.to_string(),
        _ => format!("--tool {}", arg("--tool", "profile")),
    };
    let Some((_, run)) = COMMANDS.iter().find(|(name, _)| *name == key) else {
        let (family, _) = key
            .split_once(' ')
            .expect("one-word keys come from the table");
        let choices: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|(name, _)| name.strip_prefix(family)?.strip_prefix(' '))
            .collect();
        eprintln!("unknown {key} — use {}", choices.join("|"));
        std::process::exit(2);
    };
    run();
}
