//! Integration tests: collector tools driving a live runtime purely
//! through the discovered symbol, as in the paper's Fig. 3 sequence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use collector::{Mode, Profiler, ProfilerConfig, RuntimeHandle, StateSampler, StreamingTracer};
use omprt::{OpenMp, SourceFunction};
use ora_core::event::Event;
use ora_core::request::{OraError, Request, Response};
use ora_core::state::ThreadState;
use ora_trace::analyze::pair_intervals;
use ora_trace::{MemorySink, RankedEvent, TraceConfig, TraceReader};

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime exports its symbol")
}

fn tracer_for(rt: &OpenMp, config: TraceConfig) -> StreamingTracer<MemorySink> {
    StreamingTracer::attach(handle_for(rt), config, MemorySink::new()).unwrap()
}

#[test]
fn profiler_collects_per_region_timings() {
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach_default(handle_for(&rt)).unwrap();

    for _ in 0..10 {
        rt.parallel(|ctx| {
            let mut x = 0u64;
            ctx.for_each(0, 999, |i| x = x.wrapping_add(i as u64));
            std::hint::black_box(x);
        });
    }

    let profile = profiler.finish();
    assert_eq!(profile.region_count(), 10);
    assert_eq!(profile.join_samples, 10);
    for r in &profile.regions {
        assert_eq!(r.calls, 1);
        assert!(r.total_secs >= 0.0);
        assert!(r.max_secs >= r.min_secs);
    }
    // Both threads hit implicit barriers.
    assert_eq!(profile.threads.len(), 2);
    let text = profile.render();
    assert!(text.contains("region"));
    assert!(text.contains("ibar"));
}

#[test]
fn profiler_call_tree_reconstructs_user_model() {
    let func = SourceFunction::new("ct_driver", "app.rs", 1);
    let region = func.region("1", 7);
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach_default(handle_for(&rt)).unwrap();

    {
        let _frame = func.frame();
        for _ in 0..3 {
            rt.parallel_region(&region, |_| {});
        }
    }

    let profile = profiler.finish();
    let rendered = profile.call_tree.render();
    // Runtime frames must not survive reconstruction…
    assert!(!rendered.contains("__ompc"), "{rendered}");
    // …and the outlined region is re-attributed to the user function.
    assert!(rendered.contains("ct_driver"), "{rendered}");
    assert!(rendered.contains("parallel"), "{rendered}");
    assert_eq!(profile.call_tree.root_count(), 1);
}

#[test]
fn callbacks_only_mode_counts_but_stores_nothing() {
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach(
        handle_for(&rt),
        ProfilerConfig {
            mode: Mode::CallbacksOnly,
            ..ProfilerConfig::default()
        },
    )
    .unwrap();

    for _ in 0..5 {
        rt.parallel(|_| {});
    }

    assert!(profiler.events_observed() >= 10); // 5 forks + 5 joins at least
    let profile = profiler.finish();
    assert_eq!(profile.region_count(), 0, "callbacks-only stores nothing");
    assert_eq!(profile.join_samples, 0);
}

#[test]
fn pause_resume_windows_scope_collection() {
    let rt = OpenMp::with_threads(2);
    let profiler = Profiler::attach_default(handle_for(&rt)).unwrap();

    rt.parallel(|_| {});
    profiler.pause().unwrap();
    rt.parallel(|_| {});
    rt.parallel(|_| {});
    profiler.resume().unwrap();
    rt.parallel(|_| {});

    let profile = profiler.finish();
    // Two regions profiled: one before the pause, one after the resume.
    assert_eq!(profile.region_count(), 2);
}

#[test]
fn tracer_counts_match_runtime_counters() {
    let rt = OpenMp::with_threads(2);
    let tracer = tracer_for(&rt, TraceConfig::default());

    for _ in 0..7 {
        rt.parallel(|ctx| {
            ctx.barrier();
        });
    }

    assert_eq!(tracer.region_calls(), 7);
    assert_eq!(tracer.region_calls(), rt.region_calls());
    // Workers fire their end-of-barrier events asynchronously after the
    // master has already left the barrier; give them time to drain before
    // stopping, or the trace legitimately ends with unmatched begins.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (sink, stats) = tracer.finish().unwrap();
    let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
    let counts = reader.event_counts().unwrap();
    assert_eq!(counts[Event::Fork.index()], 7);
    assert_eq!(counts[Event::Join.index()], 7);
    // 2 threads × 7 regions × (1 explicit + 1 implicit barrier).
    assert_eq!(counts[Event::ThreadBeginExplicitBarrier.index()], 14);
    assert_eq!(counts[Event::ThreadBeginImplicitBarrier.index()], 14);
    assert_eq!((stats.dropped(), reader.dropped()), (0, Some(0)));
    // Every begin has its end.
    let records = reader.records().unwrap();
    let ranked = records
        .iter()
        .map(|&record| RankedEvent { rank: 0, record });
    let unpaired = pair_intervals(ranked, |_| {});
    assert_eq!(unpaired.of(Event::ThreadBeginExplicitBarrier), 0);
    assert_eq!(unpaired.of(Event::ThreadBeginImplicitBarrier), 0);
    assert_eq!(unpaired.of(Event::Fork), 0);
}

#[test]
fn tracer_capacity_drops_but_keeps_counting() {
    let rt = OpenMp::with_threads(2);
    // Two records per lane and no mid-run drain: 200 regions overflow.
    let config = TraceConfig {
        capacity_per_lane: 2,
        epoch: std::time::Duration::from_secs(3600),
        ..TraceConfig::default()
    };
    let tracer = tracer_for(&rt, config);
    for _ in 0..200 {
        rt.parallel(|_| {});
    }
    assert_eq!(tracer.count(Event::Fork), 200, "counters never drop");
    let (sink, stats) = tracer.finish().unwrap();
    assert!(stats.dropped() > 0, "rings should have overflowed");
    let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
    assert_eq!(
        reader.dropped(),
        Some(stats.dropped()),
        "the footer keeps the loss"
    );
}

#[test]
fn sampler_histograms_states_from_event_context() {
    let rt = OpenMp::with_threads(2);
    let handle = handle_for(&rt);
    handle.request_one(Request::Start).unwrap();
    let sampler = StateSampler::new(handle.clone());
    // Sample at implicit-barrier entry: the firing thread is in IBAR.
    sampler
        .sample_on(&[Event::ThreadBeginImplicitBarrier])
        .unwrap();

    rt.parallel(|_| {});
    rt.parallel(|_| {});

    // In-line sample from the (serial) test thread.
    assert_eq!(sampler.sample().unwrap(), ThreadState::Serial);

    assert_eq!(sampler.count(ThreadState::ImplicitBarrier), 4);
    assert_eq!(sampler.count(ThreadState::Serial), 1);
    assert_eq!(sampler.total(), 5);
    let text = sampler.render();
    assert!(text.contains("THR_IBAR_STATE"));
}

#[test]
fn wait_ids_flow_through_state_queries_in_wait_states() {
    // At a barrier-begin event, a state query on the firing thread must
    // return the barrier state together with the barrier wait ID.
    let rt = OpenMp::with_threads(2);
    let handle = handle_for(&rt);
    handle.request_one(Request::Start).unwrap();
    let seen = Arc::new(AtomicU64::new(0));
    let s = seen.clone();
    let h = handle.clone();
    handle
        .register(
            Event::ThreadBeginImplicitBarrier,
            Arc::new(move |d| {
                if let Ok(Response::State { state, wait_id }) = h.request_one(Request::QueryState) {
                    assert_eq!(state, ThreadState::ImplicitBarrier);
                    let (kind, id) = wait_id.expect("barrier state carries a wait id");
                    assert_eq!(kind, ora_core::state::WaitIdKind::Barrier);
                    assert_eq!(id, d.wait_id);
                    s.fetch_add(1, Ordering::SeqCst);
                }
            }),
        )
        .unwrap();

    rt.parallel(|_| {});
    assert_eq!(seen.load(Ordering::SeqCst), 2);
}

#[test]
fn stop_ends_collection_and_start_reinitializes() {
    let rt = OpenMp::with_threads(2);
    let handle = handle_for(&rt);
    let profiler = Profiler::attach_default(handle.clone()).unwrap();
    rt.parallel(|_| {});
    let profile = profiler.finish(); // sends Stop
    assert_eq!(profile.region_count(), 1);

    // After Stop, a fresh Start works (no out-of-sync).
    assert_eq!(handle.request_one(Request::Start), Ok(Response::Ack));
    assert_eq!(
        handle.request_one(Request::Start),
        Err(OraError::OutOfSequence)
    );
    handle.request_one(Request::Stop).unwrap();
}

#[test]
fn two_collectors_on_two_runtimes_do_not_interfere() {
    let rt_a = OpenMp::with_threads(2);
    let rt_b = OpenMp::with_threads(2);
    let trace_a = tracer_for(&rt_a, TraceConfig::default());
    let trace_b = tracer_for(&rt_b, TraceConfig::default());

    rt_a.parallel(|_| {});
    rt_b.parallel(|_| {});
    rt_b.parallel(|_| {});

    assert_eq!(trace_a.region_calls(), 1);
    assert_eq!(trace_b.region_calls(), 2);
}
