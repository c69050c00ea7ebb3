//! Figure 6: overhead of ORA-based data collection on the NPB3.2-MZ-MPI
//! hybrids across the 1×8, 2×4, 4×2, 8×1 process × thread decompositions.
//!
//! Each rank of the simulated MPI job owns its own OpenMP runtime with its
//! own attached collector. Expected shape: SP-MZ worst at 1×8 (436 672
//! region calls in one process — the paper's 16% case), halving with the
//! process count.

use collector::report;
use ora_bench::{fmt_pct, oversubscription_note, Scale};
use workloads::{CollectMode, MzBenchmark};

fn main() {
    let scale = Scale::from_args();
    let class = scale.npb_class();
    let decomps: Vec<(usize, usize)> = match scale {
        Scale::Smoke => vec![(1, 2), (2, 1)],
        _ => vec![(1, 8), (2, 4), (4, 2), (8, 1)],
    };

    println!("Figure 6 — NPB3.2-MZ-MPI: % overhead of ORA data collection");
    println!("class: {class:?}");
    let max_cpu = decomps.iter().map(|(p, t)| p * t).max().unwrap();
    if let Some(note) = oversubscription_note(max_cpu) {
        println!("{note}");
    }
    println!();

    let mut rows = Vec::new();
    for bench in MzBenchmark::all() {
        let mut row = vec![bench.name.to_string()];
        for &(procs, threads) in &decomps {
            let mut base = f64::INFINITY;
            let mut collected = f64::INFINITY;
            for _ in 0..scale.reps() {
                base = base.min(bench.run(procs, threads, class, CollectMode::Off).wall_secs);
                collected = collected.min(
                    bench
                        .run(procs, threads, class, CollectMode::Profile)
                        .wall_secs,
                );
            }
            row.push(fmt_pct((collected - base) / base * 100.0));
        }
        println!(
            "  measured {:<6} (max {} region calls/process at {class:?})",
            bench.name,
            bench
                .per_rank_calls(decomps[0].0, class)
                .iter()
                .max()
                .unwrap()
        );
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["benchmark".to_string()];
    headers.extend(decomps.iter().map(|(p, t)| format!("{p} x {t} (%)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\n{}", report::table(&header_refs, rows));
    println!(
        "paper shape: SP-MZ highest at 1 x 8 (~16%, >400k region calls), \
         ~8% at 2 x 4; BT-MZ/LU-MZ lower; overhead tracks per-process call count"
    );
}
