//! The multiplexing tool suite: one attachment, all reports consistent.

use collector::{suite, RuntimeHandle, SuiteConfig, ToolSuite};
use omprt::OpenMp;
use ora_core::event::Event;
use ora_core::state::ThreadState;

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).unwrap()
}

#[test]
fn suite_produces_all_three_reports_consistently() {
    let rt = OpenMp::with_threads(2);
    let tool = ToolSuite::attach(handle_for(&rt), SuiteConfig::default()).unwrap();

    for _ in 0..5 {
        rt.parallel(|ctx| {
            let mut x = 0u64;
            ctx.for_each(0, 999, |i| x = x.wrapping_add(i as u64));
            std::hint::black_box(x);
            ctx.barrier();
        });
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(tool.events_observed() > 0);
    let report = tool.finish();

    // Profile lane.
    let profile = report.profile.as_ref().unwrap();
    assert_eq!(profile.region_count(), 5);
    assert_eq!(profile.join_samples, 5);

    // Trace lane agrees with the profile on region counts.
    let counts = report.trace.as_ref().unwrap().event_counts().unwrap();
    assert_eq!(counts[Event::Fork.index()], 5);
    assert_eq!(counts[Event::Join.index()], 5);
    assert_eq!(counts[Event::ThreadBeginExplicitBarrier.index()], 10);

    // State lane saw work and barriers.
    let states = report.state_times.as_ref().unwrap();
    assert!(!states.threads.is_empty());
    let total_ebar = states.total_secs(ThreadState::ExplicitBarrier);
    assert!(total_ebar >= 0.0);

    // Combined rendering mentions each section.
    let text = report.render();
    assert!(text.contains("=== profile ==="));
    assert!(text.contains("=== state times ==="));
    assert!(text.contains("=== trace ==="));
    assert!(text.contains("| 5 regions ("), "{text}");
    assert!(text.contains("peak concurrency 1"), "{text}");
}

#[test]
fn suite_lanes_are_individually_optional() {
    let rt = OpenMp::with_threads(2);
    let tool = ToolSuite::attach(
        handle_for(&rt),
        SuiteConfig {
            profile: true,
            trace: false,
            state_times: false,
        },
    )
    .unwrap();
    rt.parallel(|_| {});
    let report = tool.finish();
    assert!(report.profile.is_some());
    assert!(report.trace.is_none());
    assert!(report.state_times.is_none());
}

#[test]
fn second_tool_cannot_attach_to_a_started_runtime() {
    let rt = OpenMp::with_threads(2);
    let handle = handle_for(&rt);
    let tool = ToolSuite::attach(handle.clone(), SuiteConfig::default()).unwrap();
    // The single-callback-slot model: a second tool's Start is rejected.
    suite::second_attachment_would_clobber(&handle).unwrap();
    let _ = tool.finish();
}
