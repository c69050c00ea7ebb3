//! Cross-crate end-to-end tests: the paper's experiments at smoke scale.

use omp_profiling::collector::{Mode, RuntimeHandle, StreamingTracer};
use omp_profiling::omprt::OpenMp;
use omp_profiling::trace::{MemorySink, TraceConfig};
use omp_profiling::workloads::{
    driver, epcc, CollectMode, EpccConfig, MzBenchmark, NpbClass, NpbKernel,
};

#[test]
fn table_1_counts_measured_through_ora() {
    // Structure column is static; the calls column is *measured* by
    // counting fork events with a tracer — the experiment behind Table I.
    for kernel in NpbKernel::all() {
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
        let tracer =
            StreamingTracer::attach(handle, TraceConfig::default(), MemorySink::new()).unwrap();
        kernel.run(&rt, NpbClass::S);
        assert_eq!(
            tracer.region_calls(),
            kernel.region_calls(NpbClass::S),
            "{}",
            kernel.name
        );
        tracer.finish().unwrap();
    }
}

#[test]
fn table_2_per_process_calls() {
    let expected: [(&str, [u64; 4]); 3] = [
        ("BT-MZ", [167_616, 83_808, 41_904, 20_952]),
        ("LU-MZ", [40_353, 20_177, 10_089, 5_045]),
        ("SP-MZ", [436_672, 218_336, 109_168, 54_584]),
    ];
    for (bench, (name, cols)) in MzBenchmark::all().iter().zip(expected) {
        assert_eq!(bench.name, name);
        for (procs, want) in [1usize, 2, 4, 8].into_iter().zip(cols) {
            assert_eq!(bench.table2_calls(procs), want, "{name} P={procs}");
        }
    }
}

#[test]
fn figure_5_style_overhead_measurement_runs() {
    // EP (3 region calls) must show essentially no collectable surface;
    // its profile has 3 regions and the measurement completes.
    let kernel = NpbKernel::ep();
    let rt = OpenMp::with_threads(2);
    let result = driver::measure_overhead(&rt, 1, Mode::Full, |rt| {
        std::hint::black_box(kernel.run(rt, NpbClass::S));
    })
    .unwrap();
    assert!(result.base_secs > 0.0 && result.collected_secs > 0.0);
}

#[test]
fn figure_6_style_mz_overhead_measurement_runs() {
    let bench = MzBenchmark::lu_mz();
    let base = bench.run(2, 2, NpbClass::S, CollectMode::Off);
    let collected = bench.run(2, 2, NpbClass::S, CollectMode::Profile);
    assert!(base.wall_secs > 0.0);
    assert!(collected.wall_secs > 0.0);
    assert_eq!(
        collected.join_samples,
        collected.per_rank_calls.iter().sum::<u64>()
    );
}

#[test]
fn breakdown_experiment_produces_valid_split() {
    // §V-B at smoke scale: the three-way run completes and the fractions
    // form a valid partition of the overhead.
    let kernel = NpbKernel::lu_hp();
    let rt = OpenMp::with_threads(2);
    let b = driver::measure_breakdown(&rt, 1, |rt| {
        std::hint::black_box(kernel.run(rt, NpbClass::S));
    })
    .unwrap();
    let m = b.measurement_fraction();
    let c = b.communication_fraction();
    assert!((0.0..=1.0).contains(&m));
    assert!((m + c - 1.0).abs() < 1e-9 || (m == 0.0 && c == 0.0));
}

#[test]
fn epcc_suite_runs_with_collection_attached() {
    let rt = OpenMp::with_threads(2);
    let cfg = EpccConfig {
        outer_reps: 1,
        inner_reps: 8,
        delay_len: 16,
    };
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
    let profiler = omp_profiling::collector::Profiler::attach_default(handle).unwrap();
    let results = epcc::run_all(&rt, &cfg);
    assert_eq!(results.len(), 10);
    let profile = profiler.finish();
    // The parallel / parallel-for / reduction directives forked regions
    // the profiler saw.
    assert!(profile.region_count() > 0);
}

#[test]
fn overhead_grows_with_region_call_count() {
    // The paper's central observation: collection overhead tracks the
    // number of parallel-region calls. Compare total collector work
    // (events observed) for EP (3 calls) vs LU (518 calls → 27 at S):
    // the event volume must be ordered accordingly.
    let ep_events = {
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
        let p = omp_profiling::collector::Profiler::attach_default(handle).unwrap();
        NpbKernel::ep().run(&rt, NpbClass::S);
        let profile = p.finish();
        profile.events_observed
    };
    let lu_events = {
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
        let p = omp_profiling::collector::Profiler::attach_default(handle).unwrap();
        NpbKernel::lu().run(&rt, NpbClass::S);
        let profile = p.finish();
        profile.events_observed
    };
    assert!(
        lu_events > ep_events,
        "LU ({lu_events} events) must out-emit EP ({ep_events} events)"
    );
}
