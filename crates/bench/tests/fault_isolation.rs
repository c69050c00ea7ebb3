//! End-to-end fault isolation: a buggy collector must never take down
//! the measured application.
//!
//! These tests run real workloads (EPCC syncbench, synthetic NPB
//! kernels) on a live runtime while the attached collector misbehaves
//! in the ways ISSUE'd from production incident reports:
//!
//! * a permanently-panicking callback fires with the team inside an
//!   implicit barrier — the dispatcher must catch every panic and
//!   quarantine the callback after the configured threshold;
//! * the trace drainer is killed mid-recording (panicking/erroring
//!   sink) while producers run under `--policy block` — producers must
//!   degrade to counted drops instead of livelocking;
//! * in both cases the workload must complete *with correct results*
//!   and the faults must be visible in `OMP_REQ_HEALTH`.
//!
//! Set `ORA_FAULT_SEED` to replay a specific seed.

use std::sync::Arc;

use collector::{RuntimeHandle, StreamError, StreamingTracer};
use omprt::OpenMp;
use ora_core::event::Event;
use ora_core::request::Request;
use ora_core::testutil::XorShift64;
use ora_trace::format::HEADER_LEN;
use ora_trace::{DropPolicy, FaultMode, FaultSink, TraceConfig, TraceError};
use workloads::epcc::{self, EpccConfig};
use workloads::npb::Verification;
use workloads::{NpbClass, NpbKernel};

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime exports its symbol")
}

fn base_seed() -> u64 {
    std::env::var("ORA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x6973_6f01)
}

/// Register a callback that panics on every invocation — the
/// "permanently buggy collector" from the issue. Fires on implicit
/// barrier begin, i.e. with the whole team inside the barrier.
fn inject_panicking_barrier_callback(handle: &RuntimeHandle) {
    handle
        .register(
            Event::ThreadBeginImplicitBarrier,
            Arc::new(|_| panic!("injected callback panic")),
        )
        .expect("register panicking callback");
}

#[test]
fn epcc_completes_under_a_permanently_panicking_barrier_callback() {
    let rt = OpenMp::with_threads(4);
    let handle = handle_for(&rt);
    handle.request_one(Request::Start).expect("start");
    inject_panicking_barrier_callback(&handle);

    let cfg = EpccConfig {
        outer_reps: 2,
        inner_reps: 32,
        delay_len: 64,
    };
    let results = epcc::run_all(&rt, &cfg);
    assert!(!results.is_empty(), "EPCC must run to completion");

    let health = handle.query_health().expect("OMP_REQ_HEALTH");
    assert!(
        health.callback_panics >= 1,
        "the panicking callback must have fired and been caught: {health:?}"
    );
    assert_eq!(
        health.callbacks_quarantined, 1,
        "the callback must be quarantined after the threshold: {health:?}"
    );
    // After quarantine the slot is empty again — the runtime healed.
    assert!(health.faulted());
}

#[test]
fn npb_results_stay_correct_with_panicking_callback_and_dead_drainer() {
    let kernel = NpbKernel::all()
        .into_iter()
        .find(|k| k.name.eq_ignore_ascii_case("cg"))
        .expect("CG kernel exists");

    let rt = OpenMp::with_threads(4);
    let handle = handle_for(&rt);
    // Streaming tracer under Block policy, sink dies right after the
    // A header-sized budget: the drainer is killed almost immediately.
    let config = TraceConfig {
        policy: DropPolicy::Block,
        block_yield_limit: 1024,
        ..TraceConfig::default()
    };
    let tracer = StreamingTracer::attach(
        handle.clone(),
        config,
        FaultSink::new(HEADER_LEN, FaultMode::Panic),
    )
    .expect("attach tracer");
    inject_panicking_barrier_callback(&handle);

    kernel.run(&rt, NpbClass::S);
    match kernel.verify(rt.num_threads(), NpbClass::S) {
        Verification::Successful { .. } | Verification::NotApplicable => {}
        Verification::Failed { expected, got } => {
            panic!("workload corrupted by collector faults: expected {expected}, got {got}")
        }
    }

    // The fatal flush happens on the drainer's next epoch tick; give it
    // a deadline rather than assuming it already fired.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !tracer.is_degraded() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(tracer.is_degraded(), "the dead drainer must be observable");
    match tracer.finish() {
        Err(StreamError::Trace(TraceError::DrainerFailed { reason, .. })) => {
            assert!(reason.contains("injected sink panic"), "{reason:?}");
        }
        other => panic!("expected DrainerFailed, got {other:?}"),
    }

    let health = handle.query_health().expect("OMP_REQ_HEALTH");
    assert!(health.callback_panics >= 1, "{health:?}");
    assert_eq!(health.callbacks_quarantined, 1, "{health:?}");
}

#[test]
fn erroring_sink_under_block_policy_degrades_not_deadlocks() {
    let rt = OpenMp::with_threads(4);
    let handle = handle_for(&rt);
    let config = TraceConfig {
        policy: DropPolicy::Block,
        block_yield_limit: 1024,
        ..TraceConfig::default()
    };
    let tracer =
        StreamingTracer::attach(handle.clone(), config, FaultSink::new(64, FaultMode::Error))
            .expect("attach tracer");

    // Enough regions that the encoded stream must blow the 64-byte
    // budget and the drainer dies mid-run.
    let cfg = EpccConfig {
        outer_reps: 2,
        inner_reps: 32,
        delay_len: 64,
    };
    let results = epcc::run_all(&rt, &cfg);
    assert!(!results.is_empty());

    match tracer.finish() {
        Err(StreamError::Trace(TraceError::DrainerFailed { reason, .. })) => {
            assert!(reason.contains("injected sink fault"), "{reason:?}");
        }
        other => panic!("expected DrainerFailed, got {other:?}"),
    }
}

/// Seeded property: for random quarantine thresholds, a permanently
/// panicking callback is invoked *exactly threshold* times before the
/// dispatcher evicts it, and the workload keeps running throughout.
#[test]
fn quarantine_threshold_property_on_a_live_runtime() {
    let mut rng = XorShift64::new(base_seed());
    for round in 0..4 {
        let threshold = 1 + rng.below(5);
        let rt = OpenMp::with_threads(2);
        rt.set_quarantine_threshold(threshold);
        let handle = handle_for(&rt);
        handle.request_one(Request::Start).expect("start");
        // Fork fires exactly once per parallel region, on one thread —
        // a deterministic invocation count.
        handle
            .register(Event::Fork, Arc::new(|_| panic!("injected callback panic")))
            .expect("register");

        let regions = threshold + 2 + rng.below(3);
        for _ in 0..regions {
            rt.parallel(|_| {});
        }

        let health = handle.query_health().expect("OMP_REQ_HEALTH");
        assert_eq!(
            health.callback_panics, threshold,
            "round {round}: quarantine must fire exactly at the threshold ({threshold}): {health:?}"
        );
        assert_eq!(health.callbacks_quarantined, 1, "round {round}: {health:?}");
    }
}
