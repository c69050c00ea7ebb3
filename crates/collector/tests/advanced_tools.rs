//! Integration tests for the state-timer and selective-collection tools.

use collector::{Profiler, ProfilerConfig, RuntimeHandle, StateTimer};
use omprt::{OpenMp, SourceFunction};
use ora_core::state::ThreadState;

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).unwrap()
}

#[test]
fn state_timer_attributes_work_and_barrier_time() {
    let rt = OpenMp::with_threads(2);
    let timer = StateTimer::attach(handle_for(&rt)).unwrap();

    for _ in 0..5 {
        rt.parallel(|ctx| {
            // Measurable work in a worksharing loop (loop events give the
            // timer its sampling points)…
            let mut x = 0u64;
            ctx.for_each(0, 199_999, |i| x = x.wrapping_add(i as u64));
            std::hint::black_box(x);
            // …and an explicit barrier.
            ctx.barrier();
        });
    }
    std::thread::sleep(std::time::Duration::from_millis(50));

    let profile = timer.finish();
    assert!(!profile.threads.is_empty());
    // Work time was observed on some thread.
    assert!(
        profile.total_secs(ThreadState::Working) > 0.0,
        "\n{}",
        profile.render()
    );
    // Every per-thread efficiency is a valid fraction.
    for t in &profile.threads {
        let e = t.efficiency();
        assert!((0.0..=1.0).contains(&e), "gtid {} efficiency {e}", t.gtid);
        assert!(t.total() >= 0.0);
    }
    let text = profile.render();
    assert!(text.contains("THR_WORK_STATE"), "{text}");
    assert!(text.contains("efficiency"));
}

#[test]
fn selective_profiler_skips_small_regions() {
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach(
        handle_for(&rt),
        ProfilerConfig {
            min_region_secs: 3600.0, // everything is "small"
            max_samples_per_site: 8,
            ..ProfilerConfig::default()
        },
    )
    .unwrap();

    for _ in 0..20 {
        rt.parallel(|_| {});
    }

    let report = profiler.finish();
    assert_eq!(report.joins, 20);
    assert_eq!(report.join_samples, 0);
    assert_eq!(report.skipped_small, 20);
    assert_eq!(report.savings(), 1.0);
}

#[test]
fn selective_profiler_dedups_calling_contexts() {
    let func = SourceFunction::new("sel_driver", "sel.rs", 1);
    let region = func.region("hot", 5);
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach(
        handle_for(&rt),
        ProfilerConfig {
            min_region_secs: 0.0, // no duration gate
            max_samples_per_site: 3,
            ..ProfilerConfig::default()
        },
    )
    .unwrap();

    {
        let _f = func.frame();
        for _ in 0..50 {
            rt.parallel_region(&region, |_| {});
        }
    }

    let report = profiler.finish();
    assert_eq!(report.joins, 50);
    assert_eq!(report.distinct_sites, 1, "one calling context");
    assert_eq!(report.join_samples, 3, "capped per site");
    assert_eq!(report.skipped_dedup, 47);
    assert!(report.savings() > 0.9);
    // The kept samples still reconstruct to the right user model.
    let tree = report.call_tree.render();
    assert!(tree.contains("sel_driver"), "{tree}");
}

#[test]
fn selective_profiler_keeps_distinct_contexts_apart() {
    let func = SourceFunction::new("sel_multi", "sel.rs", 1);
    let region_a = func.region("a", 5);
    let region_b = func.region("b", 9);
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach(
        handle_for(&rt),
        ProfilerConfig {
            min_region_secs: 0.0,
            max_samples_per_site: 2,
            ..ProfilerConfig::default()
        },
    )
    .unwrap();

    {
        let _f = func.frame();
        for _ in 0..10 {
            rt.parallel_region(&region_a, |_| {});
            rt.parallel_region(&region_b, |_| {});
        }
    }

    let report = profiler.finish();
    assert_eq!(report.joins, 20);
    assert_eq!(report.distinct_sites, 2);
    assert_eq!(report.join_samples, 4, "2 per site");
}

#[test]
fn selective_beats_full_on_stored_volume() {
    // The point of the policy: same workload, far less stored data.
    let func = SourceFunction::new("sel_vol", "sel.rs", 1);
    let region = func.region("r", 3);
    let runs = 100;

    let full_samples = {
        let rt = OpenMp::with_threads(2);
        let p = collector::Profiler::attach_default(handle_for(&rt)).unwrap();
        let _f = func.frame();
        for _ in 0..runs {
            rt.parallel_region(&region, |_| {});
        }
        p.finish().join_samples
    };
    let selective_samples = {
        let rt = OpenMp::with_threads(2);
        let p = Profiler::attach(
            handle_for(&rt),
            ProfilerConfig {
                min_region_secs: 0.0,
                max_samples_per_site: 4,
                ..ProfilerConfig::default()
            },
        )
        .unwrap();
        let _f = func.frame();
        for _ in 0..runs {
            rt.parallel_region(&region, |_| {});
        }
        p.finish().join_samples
    };
    assert_eq!(full_samples, runs);
    assert!(selective_samples <= 4);
}
