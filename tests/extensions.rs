//! Cross-crate integration of the extension features: the tool suite on a
//! real workload, profile diffing across schedule changes, NPB
//! verification, the OMPT adapter over nested parallelism, and the
//! suite's trace through the offline summary.

use omp_profiling::collector::{self, RuntimeHandle, SuiteConfig, ToolSuite};
use omp_profiling::omprt::{Config, OpenMp, Schedule};
use omp_profiling::trace::analyze::summarize;
use omp_profiling::trace::RankedEvent;
use omp_profiling::workloads::{npb::Verification, NpbClass, NpbKernel};

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).unwrap()
}

#[test]
fn suite_on_npb_kernel_reports_consistently() {
    let rt = OpenMp::with_threads(2);
    let kernel = NpbKernel::cg();
    let tool = ToolSuite::attach(handle_for(&rt), SuiteConfig::default()).unwrap();
    kernel.run(&rt, NpbClass::S);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let report = tool.finish();

    let expected_regions = kernel.region_calls(NpbClass::S);
    let profile = report.profile.unwrap();
    assert_eq!(profile.region_count() as u64, expected_regions);

    let trace = report.trace.unwrap();
    let forks = trace.event_counts().unwrap()[ora_core::Event::Fork.index()];
    assert_eq!(forks, expected_regions);

    // The encoded trace decodes and the offline summary finds every
    // region interval.
    let records = trace.records().unwrap();
    let summary = summarize(
        records
            .into_iter()
            .map(|record| RankedEvent { rank: 0, record }),
    );
    assert_eq!(summary.regions.len() as u64, expected_regions);
    assert_eq!(summary.peak_region_concurrency(), 1);
}

#[test]
fn profile_diff_detects_schedule_change() {
    // Profile the same kernel twice under different schedules and diff.
    let profile_with = |schedule: Schedule| {
        let rt = OpenMp::with_config(Config {
            num_threads: 2,
            schedule,
            ..Config::default()
        });
        let p = collector::Profiler::attach_default(handle_for(&rt)).unwrap();
        NpbKernel::ft().run(&rt, NpbClass::S);
        p.finish()
    };
    let before = profile_with(Schedule::StaticEven);
    let after = profile_with(Schedule::Dynamic(4));

    let d = collector::diff(&before, &after);
    // Same region-call structure in both runs: every delta is matched.
    // (Region IDs are per-runtime, both counting from 1.)
    assert_eq!(d.regions.len(), before.regions.len());
    assert!(d.added().is_empty());
    assert!(d.removed().is_empty());
    assert!(d.total_before > 0.0 && d.total_after > 0.0);
    let text = d.render();
    assert!(text.contains("total:"), "{text}");
}

#[test]
fn npb_verification_across_thread_counts() {
    for kernel in [NpbKernel::sp(), NpbKernel::lu()] {
        match kernel.verify(4, NpbClass::S) {
            Verification::Successful { .. } => {}
            other => panic!("{}: {other:?}", kernel.name),
        }
    }
    assert_eq!(
        NpbKernel::lu_hp().verify(4, NpbClass::S),
        Verification::NotApplicable
    );
}

#[test]
fn ompt_adapter_observes_nested_parallelism() {
    use omp_profiling::collector::OmptRecord;
    use std::sync::{Arc, Mutex};

    let rt = OpenMp::with_config(Config {
        num_threads: 2,
        nested: true,
        ..Config::default()
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    let _attached = collector::OmptAdapter::attach(
        handle_for(&rt),
        Arc::new(move |r| {
            l.lock().unwrap().push(r);
        }),
    )
    .unwrap();

    rt.parallel(|ctx| {
        if ctx.is_master() {
            rt.parallel_n(2, |_| {});
        }
    });

    let log = log.lock().unwrap();
    let begins: Vec<(u64, u64)> = log
        .iter()
        .filter_map(|r| match r {
            OmptRecord::ParallelBegin {
                parallel_id,
                parent_parallel_id,
            } => Some((*parallel_id, *parent_parallel_id)),
            _ => None,
        })
        .collect();
    assert_eq!(begins.len(), 2);
    assert_eq!(begins[0].1, 0, "outer has no parent");
    assert_eq!(begins[1].1, begins[0].0, "nested parent is the outer id");
}

#[test]
fn selective_profiler_on_lu_hp_slashes_sample_volume() {
    // The §VI plan applied to the paper's worst case: LU-HP has 16 distinct
    // calling contexts but ~1500 region calls at class S.
    let kernel = NpbKernel::lu_hp();
    let rt = OpenMp::with_threads(2);
    let p = collector::SelectiveProfiler::attach(
        handle_for(&rt),
        collector::SelectivePolicy {
            min_region_secs: 0.0,
            max_samples_per_site: 4,
        },
    )
    .unwrap();
    kernel.run(&rt, NpbClass::S);
    let report = p.finish();
    assert_eq!(report.joins, kernel.region_calls(NpbClass::S));
    assert_eq!(report.distinct_sites as usize, kernel.region_count());
    assert!(report.sampled <= 4 * kernel.region_count() as u64);
    assert!(report.savings() > 0.9, "savings {}", report.savings());
}
