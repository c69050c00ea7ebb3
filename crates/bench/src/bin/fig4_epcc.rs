//! Figure 4: percentage increase in EPCC syncbench directive overheads
//! when ORA collection is enabled, for 4/8/16/32 threads.
//!
//! For each directive and thread count we measure the raw per-instance
//! directive time with and without the prototype collector attached; the
//! reported value is the percentage increase, with sub-1% values listed as
//! zero, as in the paper's figure.

use collector::{report, Mode, Profiler, ProfilerConfig, RuntimeHandle};
use omprt::OpenMp;
use ora_bench::{fmt_pct, oversubscription_note, Scale};
use workloads::epcc::{self, EpccConfig, ALL_DIRECTIVES};

fn main() {
    let scale = Scale::from_args();
    let cfg = match scale {
        Scale::Paper => EpccConfig::paper_scale(),
        Scale::Quick => EpccConfig {
            outer_reps: 6,
            inner_reps: 200,
            delay_len: 256,
        },
        Scale::Smoke => EpccConfig {
            outer_reps: 2,
            inner_reps: 16,
            delay_len: 64,
        },
    };
    let thread_counts: Vec<usize> = match scale {
        Scale::Smoke => vec![2, 4],
        _ => vec![4, 8, 16, 32],
    };

    println!("Figure 4 — EPCC syncbench: % increase in directive overhead with ORA collection");
    println!(
        "config: outer={} inner={} delay={} ({} directive instances/measurement)",
        cfg.outer_reps,
        cfg.inner_reps,
        cfg.delay_len,
        cfg.outer_reps * cfg.inner_reps
    );
    if let Some(note) = oversubscription_note(*thread_counts.iter().max().unwrap()) {
        println!("{note}");
    }
    println!();

    let mut rows = Vec::new();
    for directive in ALL_DIRECTIVES {
        let mut row = vec![directive.name().to_string()];
        for &nt in &thread_counts {
            let rt = OpenMp::with_threads(nt);
            rt.parallel(|_| {}); // warm the pool
            let base = epcc::measure(&rt, directive, &cfg);

            let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
            let profiler = Profiler::attach(
                handle,
                ProfilerConfig {
                    mode: Mode::Full,
                    ..ProfilerConfig::default()
                },
            )
            .unwrap();
            let collected = epcc::measure(&rt, directive, &cfg);
            let _ = profiler.finish();

            let pct = if base.raw_mean > 0.0 {
                (collected.raw_mean - base.raw_mean) / base.raw_mean * 100.0
            } else {
                0.0
            };
            row.push(fmt_pct(pct));
        }
        println!(
            "  measured {:<12} ({} thread counts)",
            directive.name(),
            thread_counts.len()
        );
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["directive".to_string()];
    headers.extend(thread_counts.iter().map(|t| format!("{t} thr (%)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\n{}", report::table(&header_refs, rows));
    println!(
        "paper shape: heavily-used directives (parallel, parallel-for, reduction) \
         sit around ~5%; rarely-used directives under 5%; lock/atomic are \
         noisy outliers because their base times are tiny"
    );
}
