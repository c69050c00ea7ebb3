//! Figure 5: overhead of ORA-based data collection on the NPB3.2-OMP
//! benchmarks for 1, 2, 4, and 8 threads.
//!
//! Each cell runs the synthetic kernel with and without the prototype
//! collector attached and reports the percentage wall-time increase
//! (sub-1% listed as zero, as in the paper). The expected shape: overhead
//! grows with the benchmark's parallel-region call count, making LU-HP
//! (298 959 calls) the worst case, as in the paper's 6%-on-8-threads
//! result.

use collector::{report, Mode};
use ora_bench::{fmt_pct, oversubscription_note, Scale};
use workloads::{driver, NpbKernel};

fn main() {
    let scale = Scale::from_args();
    let class = scale.npb_class();
    let thread_counts: Vec<usize> = match scale {
        Scale::Smoke => vec![1, 2],
        _ => vec![1, 2, 4, 8],
    };

    println!("Figure 5 — NPB3.2-OMP: % overhead of ORA data collection");
    println!("class: {class:?}");
    if let Some(note) = oversubscription_note(*thread_counts.iter().max().unwrap()) {
        println!("{note}");
    }
    println!();

    let kernels = NpbKernel::all();
    let mut rows = Vec::new();
    for kernel in &kernels {
        let mut row = vec![kernel.name.to_string()];
        for &nt in &thread_counts {
            let rt = omprt::OpenMp::with_threads(nt);
            let result = driver::measure_overhead(&rt, scale.reps(), Mode::Full, |rt| {
                std::hint::black_box(kernel.run(rt, class));
            })
            .unwrap();
            row.push(fmt_pct(result.overhead_pct()));
        }
        println!(
            "  measured {:<6} ({} region calls at {class:?})",
            kernel.name,
            kernel.region_calls(class)
        );
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["benchmark".to_string()];
    headers.extend(thread_counts.iter().map(|t| format!("{t} thr (%)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\n{}", report::table(&header_refs, rows));
    println!(
        "paper shape: LU-HP highest (≈6% on 8 threads, ~300k region calls); \
         most others below 5%; EP ≈ 0 (3 region calls)"
    );
}
