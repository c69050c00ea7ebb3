//! `ora-benchmark` — the repository's one benchmark.
//!
//! ```text
//! ora-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ora-benchmark manifest                 # print BENCHMARK.json
//! ora-benchmark judge <a-sets...> -- <b-sets...>   # A/A: compare two sides
//! ```
//!
//! One invocation runs one workload in its own process (so peak RSS is
//! per workload), verifies its outputs, prints every metric as
//! `workload metric value unit`, and ends its standard output with the
//! one-line JSON result the driver reads. `benchmark/run.sh` is the
//! front end; see `benchmark/README.md`.

mod fleet;
mod gen;
mod judge;
mod ladder;
mod metrics;
mod offline;
mod probes;
mod rt;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;

/// Times a workload sets up in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Where sockets, tee files and span files go.
    pub out_dir: PathBuf,
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: metrics::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                // The watchdog allows a run 150 s; the manifest's limit
                // for `run_seconds` is 60.
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|w| w.0 == opts.workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of: {}", names.join(", ")));
    }
    Ok(opts)
}

/// Run the workload `opts` names and return its report.
fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    spans::set_enabled(opts.traced);
    let mut report = match opts.workload.as_str() {
        "sync-storm" => rt::run(rt::Spec::SYNC_STORM, opts)?,
        "task-flood" => rt::run(rt::Spec::TASK_FLOOD, opts)?,
        "compute-npb" => rt::run(rt::Spec::COMPUTE_NPB, opts)?,
        "fleet-live" => rt::run(rt::Spec::FLEET_LIVE, opts)?,
        "fleet-replay" => fleet::run_replay(opts)?,
        _ => offline::run(opts)?,
    };
    if opts.traced {
        probes::run(opts, &mut report)?;
        if let Some(frac) = probes::unattributed_frac(&report) {
            report.set("bench.unattributed_frac", frac);
        }
        let path = opts.out_dir.join(format!("trace_{}.json", opts.workload));
        std::fs::write(&path, spans::to_json(&opts.workload, &spans::take()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Longest a run may take before it is declared hung: inside the
/// driver's 180-second limit, far outside any healthy run.
const WATCHDOG_SECONDS: u64 = 150;

/// Abort the process if the run outlives [`WATCHDOG_SECONDS`]. A parked
/// runtime thread that is never woken would otherwise hang the run
/// silently; this way the failure names itself. The thread is detached
/// on purpose: it has nothing to hand back, and a healthy run exits
/// under it.
fn arm_watchdog(workload: String) {
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECONDS));
        eprintln!(
            "ora-benchmark: {workload}: no result after {WATCHDOG_SECONDS} s (hung?), aborting"
        );
        std::process::exit(3);
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("judge") => return judge::main(&args[1..]),
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ora-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    arm_watchdog(opts.workload.clone());
    eprintln!(
        "{}: seed {} for {} s, {} (threads {}, cores {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.traced { "traced" } else { "untraced" },
        ladder::THREADS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = run(&opts).and_then(|report| {
        let line = report.result_json(&opts.workload, opts.traced)?;
        Ok((report, line))
    });
    match outcome {
        Ok((report, line)) => {
            for why in &report.failures {
                eprintln!("FAILED: {why}");
            }
            print!("{}", report.lines(&opts.workload));
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ora-benchmark: {}: {e}", opts.workload);
            ExitCode::from(1)
        }
    }
}
