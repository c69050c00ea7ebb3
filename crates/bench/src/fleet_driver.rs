//! Multi-process fleet profiling driver (`omp_prof serve` / `fleet`).
//!
//! The paper profiles hybrid MPI+OpenMP codes by running one collector
//! per MPI process and merging per-rank traces offline. This module is
//! the *online* version: `run_fleet` spawns N child rank processes
//! (re-invoking the current executable with the hidden `fleet-rank`
//! subcommand), each running its Table II share of an NPB-MZ workload
//! under a streaming tracer whose [`SocketSink`] streams straight into
//! an in-process aggregator daemon. Every rank also tees its stream to
//! a local `rank<i>.oratrace` file, which is what lets the driver prove
//! the online merge honest: the daemon's export must be byte-identical
//! to offline `merge_ranks` over the teed files.
//!
//! Fault injection for stress runs: `kill_rank` makes one child vanish
//! mid-stream without FIN or footer (a simulated rank crash — its lane
//! degrades, the others must be unaffected, and its teed file is read
//! salvaged), and `slow` delays every chunk ACK daemon-side so the
//! producers' bounded in-flight windows actually backpressure.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use collector::{clock, RuntimeHandle, StreamingTracer};
use omprt::OpenMp;
use ora_fleet::{
    timeline_bytes, Daemon, DaemonConfig, Endpoint, FleetListener, FleetReport, SocketSink,
};
use ora_trace::{merge_ranks, RankedEvent, TraceConfig, TraceReader};
use workloads::mz::MzBenchmark;
use workloads::NpbClass;

/// Everything `omp_prof fleet` parses from its command line.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Child rank processes to spawn.
    pub ranks: usize,
    /// OpenMP threads per rank.
    pub threads: usize,
    /// Multi-zone workload key (`bt-mz` | `lu-mz` | `sp-mz` | `tasks-mz`).
    pub workload: String,
    /// Problem class.
    pub class: NpbClass,
    /// Explicit daemon endpoint; `None` means a Unix socket in `out_dir`.
    pub endpoint: Option<String>,
    /// Where rank trace files (and the default socket) live.
    pub out_dir: PathBuf,
    /// Rank to kill mid-stream (crash injection), if any.
    pub kill_rank: Option<usize>,
    /// Injected per-chunk ACK delay (slow-consumer injection).
    pub slow: Duration,
    /// Producer in-flight chunk window.
    pub window: u64,
}

/// Resolve a multi-zone benchmark by CLI key.
pub fn mz_by_name(name: &str) -> Option<MzBenchmark> {
    match name.to_ascii_lowercase().replace('_', "-").as_str() {
        "bt-mz" | "bt" => Some(MzBenchmark::bt_mz()),
        "lu-mz" | "lu" => Some(MzBenchmark::lu_mz()),
        "sp-mz" | "sp" => Some(MzBenchmark::sp_mz()),
        "tasks-mz" | "tasks" => Some(MzBenchmark::tasks_mz()),
        _ => None,
    }
}

/// The `--class` key for re-invoking ourselves.
pub fn class_key(class: NpbClass) -> &'static str {
    match class {
        NpbClass::S => "s",
        NpbClass::W => "w",
        NpbClass::Bsim => "b",
    }
}

/// Child-process body for the hidden `fleet-rank` subcommand: connect
/// to the daemon, stream `rank`'s share of `workload` through a
/// [`SocketSink`] teed to `trace_out`, then close with the FIN
/// handshake. With `die_early` the process exits abruptly after the
/// solve — no footer, no FIN — simulating a rank crash.
#[allow(clippy::too_many_arguments)]
pub fn run_rank_child(
    endpoint: &Endpoint,
    rank: usize,
    ranks: usize,
    threads: usize,
    workload: &str,
    class: NpbClass,
    trace_out: &Path,
    window: u64,
    die_early: bool,
) -> Result<(), String> {
    let bench = mz_by_name(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let rt = OpenMp::with_threads(threads);
    let handle = RuntimeHandle::discover_named(rt.symbol_name())
        .ok_or_else(|| "runtime symbol not discoverable".to_string())?;
    let sink = SocketSink::connect(endpoint, rank as u64, clock::TICKS_PER_SEC, window)
        .map_err(|e| format!("connect {endpoint}: {e}"))?
        .tee(trace_out)
        .map_err(|e| format!("tee {}: {e}", trace_out.display()))?;
    let tracer = StreamingTracer::attach(handle, TraceConfig::default(), sink)
        .map_err(|e| format!("attach tracer: {e}"))?;

    let result = bench.run_rank(&rt, rank, ranks, class);
    // Workers fire trailing end-of-barrier events asynchronously.
    std::thread::sleep(Duration::from_millis(100));
    if die_early {
        // Crash injection: vanish mid-stream. The daemon sees the
        // connection drop with no FIN and degrades only this lane.
        std::process::exit(9);
    }
    let (sink, stats) = tracer.finish().map_err(|e| format!("finish trace: {e}"))?;
    let fin = sink
        .finish(
            stats.drained() + stats.dropped(),
            stats.drained(),
            stats.dropped(),
        )
        .map_err(|e| format!("FIN handshake: {e}"))?;
    println!(
        "rank {rank}: {} zone-step calls | streamed {} records ({} dropped) | daemon stored {}",
        result.calls,
        stats.drained(),
        stats.dropped(),
        fin.stored
    );
    Ok(())
}

/// Run a standalone aggregator (`omp_prof serve`): accept connections
/// on `endpoint` until `ranks` lanes reach a terminal state, then
/// report.
pub fn serve(endpoint: &Endpoint, ranks: u64, slow: Duration) -> Result<FleetReport, String> {
    let listener = FleetListener::bind(endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    let mut daemon = Daemon::new(DaemonConfig { slow_chunk: slow });
    let stop = AtomicBool::new(false);
    daemon
        .run_listener(&listener, &stop, Some(ranks))
        .map_err(|e| format!("listener: {e}"))?;
    Ok(daemon.finish())
}

/// Orchestrate a full fleet run: daemon + N spawned rank children.
/// Returns the daemon's report and whether its export came out
/// byte-identical to the offline merge of the teed rank traces.
pub fn run_fleet(cfg: &FleetConfig) -> Result<(FleetReport, bool), String> {
    if cfg.kill_rank.is_some_and(|k| k >= cfg.ranks) {
        return Err(format!(
            "--kill-rank {} out of range for {} ranks",
            cfg.kill_rank.unwrap(),
            cfg.ranks
        ));
    }
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let endpoint = match &cfg.endpoint {
        Some(spec) => Endpoint::parse(spec),
        None => Endpoint::Unix(cfg.out_dir.join("fleet.sock")),
    };
    let listener = FleetListener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    // Re-resolve so `tcp:127.0.0.1:0` becomes the real bound port.
    let endpoint = listener
        .local_endpoint()
        .map_err(|e| format!("local endpoint: {e}"))?;

    let stop = Arc::new(AtomicBool::new(false));
    let until = cfg.ranks as u64;
    let slow = cfg.slow;
    let daemon_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut daemon = Daemon::new(DaemonConfig { slow_chunk: slow });
            let served = daemon.run_listener(&listener, &stop, Some(until));
            (daemon.finish(), served)
        })
    };

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for rank in 0..cfg.ranks {
        let mut cmd = Command::new(&exe);
        cmd.arg("fleet-rank")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(cfg.ranks.to_string())
            .arg("--threads")
            .arg(cfg.threads.to_string())
            .arg("--workload")
            .arg(&cfg.workload)
            .arg("--class")
            .arg(class_key(cfg.class))
            .arg("--endpoint")
            .arg(endpoint.to_string())
            .arg("--window")
            .arg(cfg.window.to_string())
            .arg("--trace-out")
            .arg(rank_trace_path(&cfg.out_dir, rank));
        if cfg.kill_rank == Some(rank) {
            cmd.arg("--die-early");
        }
        children.push((
            rank,
            cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))?,
        ));
    }
    for (rank, mut child) in children {
        let status = child.wait().map_err(|e| format!("wait rank {rank}: {e}"))?;
        let killed = cfg.kill_rank == Some(rank);
        if !status.success() && !killed {
            stop.store(true, Ordering::Release);
            let _ = daemon_thread.join();
            return Err(format!("rank {rank} failed: {status}"));
        }
    }
    // All lanes are terminal by now (FIN is synchronous; a killed rank's
    // EOF lands when its process exits) — the stop flag is only a
    // fallback so the listener can never spin forever.
    stop.store(true, Ordering::Release);
    let (report, served) = daemon_thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    served.map_err(|e| format!("listener: {e}"))?;

    let identical = export_matches_offline(&report, &cfg.out_dir, cfg.ranks, cfg.kill_rank)?;
    Ok((report, identical))
}

/// Where rank `rank`'s teed trace file lives under `out_dir`.
pub fn rank_trace_path(out_dir: &Path, rank: usize) -> PathBuf {
    out_dir.join(format!("rank{rank}.oratrace"))
}

/// Compare the daemon's export against the offline `merge_ranks` of the
/// teed per-rank trace files. A killed rank's file has no footer and is
/// opened salvaged, so rank indices line up; but the rank may die
/// between streaming a chunk and flushing its tee, so its records are
/// removed from both sides by one predicate, and the comparison covers
/// exactly the surviving ranks.
pub fn export_matches_offline(
    report: &FleetReport,
    out_dir: &Path,
    ranks: usize,
    kill_rank: Option<usize>,
) -> Result<bool, String> {
    let readers = (0..ranks)
        .map(|rank| {
            let path = rank_trace_path(out_dir, rank);
            TraceReader::open(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let offline = merge_ranks(&readers).map_err(|e| format!("offline merge: {e}"))?;
    let surviving = |mut events: Vec<RankedEvent>| {
        events.retain(|e| Some(e.rank) != kill_rank);
        timeline_bytes(&events)
    };
    Ok(surviving(report.store.records().to_vec()) == surviving(offline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_keys_resolve() {
        assert_eq!(mz_by_name("bt-mz").unwrap().name, "BT-MZ");
        assert_eq!(mz_by_name("LU_MZ").unwrap().name, "LU-MZ");
        assert_eq!(mz_by_name("sp").unwrap().name, "SP-MZ");
        assert!(mz_by_name("cg").is_none());
    }
}
