//! Analyzer-oracle checks: traces with a *planted* detrimental task
//! pattern must be flagged by `ora_trace::analyze`, and traces from
//! healthy task shapes must come back clean. This pins the analyzer's
//! thresholds against the real runtime's event stream rather than the
//! synthetic-tick fixtures in its unit tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use collector::discovery::RuntimeHandle;
use collector::modes::CollectionConfig;
use omprt::OpenMp;
use ora_core::state::ThreadState;
use ora_fuzz::{run_under, Op, Scenario, SchedSpec};
use ora_trace::analyze::{analyze, AnalyzeConfig, PatternKind};
use ora_trace::{merge_ranks, TraceReader};

/// Run the planted-pattern region program under the streaming tracer
/// and return the merged single-rank timeline.
fn traced_events(body: impl Fn(&omprt::ParCtx<'_>) + Sync) -> Vec<ora_trace::RankedEvent> {
    let rt = OpenMp::with_threads(4);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let active = CollectionConfig::StreamingTrace
        .attach(&handle)
        .expect("attach tracer");
    rt.parallel(&body);
    drop(rt);
    let (_, trace) = active.finish_with_trace().expect("finish trace");
    let reader = TraceReader::from_bytes(trace.expect("trace bytes")).expect("decode");
    merge_ranks(&[reader]).expect("merge")
}

/// Like [`traced_events`] but with real nesting enabled and the runtime
/// handle passed to the body, so region programs can fork sub-teams.
fn traced_events_nested(
    threads: usize,
    body: impl Fn(&OpenMp, &omprt::ParCtx<'_>) + Sync,
) -> Vec<ora_trace::RankedEvent> {
    let rt = OpenMp::with_config(omprt::Config {
        num_threads: threads,
        nested: true,
        ..omprt::Config::default()
    });
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let active = CollectionConfig::StreamingTrace
        .attach(&handle)
        .expect("attach tracer");
    rt.parallel(|ctx| body(&rt, ctx));
    drop(rt);
    let (_, trace) = active.finish_with_trace().expect("finish trace");
    let reader = TraceReader::from_bytes(trace.expect("trace bytes")).expect("decode");
    merge_ranks(&[reader]).expect("merge")
}

/// Whether outer-team gtids 1 and 2 are both waiting in an explicit
/// barrier.
fn teammates_in_explicit_barrier(rt: &OpenMp) -> bool {
    let states = rt.registered_thread_states();
    states.get(1..3) == Some(&[ThreadState::ExplicitBarrier; 2][..])
}

#[test]
fn nested_inner_barriers_do_not_pollute_outer_convoy_attribution() {
    // The master forks an inner sub-team (with its own barriers) before
    // every outer explicit barrier. The inner barriers advance the
    // master's per-descriptor wait-id counter, so its outer arrivals
    // carry wait IDs out of lockstep with its teammates — the shape
    // that used to scatter real episodes into phantom ones and blame
    // an innocent teammate. Nesting-aware clustering must pin the
    // convoy on the master (the genuine laggard: everyone else waits
    // out its inner excursion) and must not flag the short-lived inner
    // regions at all.
    //
    // The master is the laggard by construction, not by timing luck:
    // before each excursion it waits until both teammates have counted
    // themselves in and the runtime shows them in the outer barrier, so
    // a preempted teammate can never arrive after it. It polls asleep
    // rather than spinning on `yield_now`: a spinning master holds the
    // core a just-released teammate needs, which pushes that teammate's
    // barrier end a whole scheduler slice past the release and dilutes
    // the waste share the convoy detector measures.
    let arrived = AtomicU64::new(0);
    let events = traced_events_nested(3, |rt, ctx| {
        for episode in 1..=12u64 {
            if ctx.is_master() {
                while arrived.load(Ordering::Acquire) < 2 * episode
                    || !teammates_in_explicit_barrier(rt)
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
                rt.parallel_n(2, |inner| {
                    inner.barrier();
                    std::thread::sleep(Duration::from_micros(400));
                    inner.barrier();
                });
            } else {
                arrived.fetch_add(1, Ordering::Release);
            }
            ctx.barrier();
        }
    });

    let report = analyze(&events, &AnalyzeConfig::default());
    let convoys: Vec<_> = report.of_kind(PatternKind::BarrierConvoy).collect();
    assert!(
        !convoys.is_empty(),
        "the master-led outer convoy must still be detected:\n{}",
        report.render()
    );
    assert!(
        convoys.iter().all(|f| f.gtid == 0),
        "inner-team barriers were misattributed to a teammate:\n{}",
        report.render()
    );
}

#[test]
fn planted_serialized_flood_is_flagged_as_serialized_and_starved() {
    // The deliberately detrimental shape: the master floods tied tasks
    // (nobody else may run them) while its three teammates sit in
    // taskwait. Tasks carry real duration so the teammates' wait
    // windows reliably overlap the flood.
    let sum = AtomicU64::new(0);
    let events = traced_events(|ctx| {
        if ctx.thread_num() == 0 {
            for i in 0..24u64 {
                ctx.task(move || std::thread::sleep(Duration::from_micros(300 + i)));
            }
        }
        ctx.barrier();
        ctx.taskwait();
        sum.fetch_add(1, Ordering::Relaxed);
    });

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.of_kind(PatternKind::SerializedSpawn).count() >= 1,
        "serialized spawn not flagged:\n{}",
        report.render()
    );
    assert!(
        report.of_kind(PatternKind::Starvation).count() >= 1,
        "starvation not flagged:\n{}",
        report.render()
    );
    // The evidence must point at the master as the serializer and at a
    // non-master thread as starved.
    assert!(report
        .of_kind(PatternKind::SerializedSpawn)
        .all(|f| f.gtid == 0));
    assert!(report.of_kind(PatternKind::Starvation).all(|f| f.gtid != 0));
}

#[test]
fn balanced_task_flood_trace_stays_clean() {
    // Every thread spawns and drains its own share: no starvation, no
    // dominant spawner. Run through the fuzz harness so this is the
    // same trace shape the differential sweep produces.
    let scenario = Scenario {
        threads: 4,
        nested: false,
        schedule: SchedSpec::StaticEven,
        ops: vec![
            Op::TaskFlood {
                count: 32,
                untied: false,
            },
            Op::Barrier,
            Op::TaskFlood {
                count: 24,
                untied: false,
            },
        ],
    };
    let outcome = run_under(&scenario, CollectionConfig::StreamingTrace).expect("run");
    let reader = TraceReader::from_bytes(outcome.trace.expect("trace bytes")).expect("decode");
    let events = merge_ranks(&[reader]).expect("merge");

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.findings.is_empty(),
        "balanced flood misflagged:\n{}",
        report.render()
    );
}

#[test]
fn taskless_worksharing_trace_stays_clean() {
    // No task events at all: the analyzer must not invent findings
    // from plain worksharing and barriers.
    let scenario = Scenario {
        threads: 4,
        nested: false,
        schedule: SchedSpec::Dynamic(2),
        ops: vec![
            Op::For {
                sched: SchedSpec::Dynamic(2),
                count: 200,
            },
            Op::Barrier,
            Op::ReduceSum { count: 100 },
        ],
    };
    let outcome = run_under(&scenario, CollectionConfig::StreamingTrace).expect("run");
    let reader = TraceReader::from_bytes(outcome.trace.expect("trace bytes")).expect("decode");
    let events = merge_ranks(&[reader]).expect("merge");

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.findings.is_empty(),
        "worksharing misflagged:\n{}",
        report.render()
    );
}
