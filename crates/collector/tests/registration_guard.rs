//! A finished collector releases what it registered: the callbacks it
//! interned with the runtime are forgotten at `finish`, so nothing they
//! captured (a tracer's ring set, a state timer's runtime handle) stays
//! pinned in the runtime's token table.

use std::sync::Arc;

use collector::{
    OmptAdapter, Profiler, ProfilerConfig, RuntimeHandle, StateTimer, StreamingTracer, SuiteConfig,
    ToolSuite,
};
use omprt::OpenMp;
use ora_core::request::CallbackToken;
use ora_trace::{MemorySink, TraceConfig};

/// The next callback token the runtime will hand out (tokens are
/// sequential), found by interning and forgetting a throw-away callback.
fn next_token(handle: &RuntimeHandle) -> u64 {
    let token = handle.intern_callback(Arc::new(|_| {}));
    assert!(handle.forget_callback(token));
    token.0
}

#[test]
fn finished_collectors_leave_nothing_interned() {
    const ROUNDS: u64 = 50;
    let rt = OpenMp::with_threads(2);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let small_rings = || TraceConfig {
        lanes: 2,
        capacity_per_lane: 1 << 10,
        ..TraceConfig::default()
    };

    let first = next_token(&handle);
    for _ in 0..ROUNDS {
        let tracer =
            StreamingTracer::attach(handle.clone(), small_rings(), MemorySink::new()).unwrap();
        rt.parallel(|_| {});
        tracer.finish().unwrap();

        let timer = StateTimer::attach(handle.clone()).unwrap();
        rt.parallel(|_| {});
        timer.finish();

        let profiler = Profiler::attach_default(handle.clone()).unwrap();
        rt.parallel(|_| {});
        profiler.finish();

        let capped = ProfilerConfig {
            max_samples_per_site: 1,
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(handle.clone(), capped).unwrap();
        rt.parallel(|_| {});
        profiler.finish();

        let suite = ToolSuite::attach(handle.clone(), SuiteConfig::default()).unwrap();
        rt.parallel(|_| {});
        suite.finish();

        let ompt = OmptAdapter::attach(handle.clone(), Arc::new(|_| {})).unwrap();
        rt.parallel(|_| {});
        ompt.finish();
    }
    let end = next_token(&handle);

    // Four profiler callbacks per round at the very least: the range
    // below really covers the attachments.
    assert!(end - first > ROUNDS * 4, "tokens {first}..{end}");
    let left: Vec<u64> = (first..end)
        .filter(|id| handle.forget_callback(CallbackToken(*id)))
        .collect();
    assert!(
        left.is_empty(),
        "{} callback(s) left interned after finish: {left:?}",
        left.len()
    );
}
