//! Live end-to-end governor properties: planted overhead budgets driven
//! through the real runtime, the real byte protocol, and the real
//! streaming trace on an EPCC-style barrier storm.
//!
//! No assertion reads wall time: timing-based thresholds flake on a
//! shared CI machine. Deterministic convergence to the budget is
//! covered by `ora-core`'s virtual-clock governor tests; what only a
//! live run can check is the plumbing: the planted budget reaches the
//! governor intact, every observed event is accounted as sampled or
//! skipped, the sampling-rate decisions land in the trace, and rate
//! changes never split a begin from its end. One test asserts on a
//! *fraction* of the ledger: the densest stream the runtime emits costs
//! many times the default budget on any host, so the governor must
//! sample it down, not merely count it.

use std::sync::Arc;

use collector::clock;
use collector::discovery::RuntimeHandle;
use collector::modes::{CollectionConfig, CollectionSummary};
use omprt::{Config, OpenMp, WordLock};
use ora_core::event::Event;
use ora_core::governor::{parse_budget, GovernorConfig, GovernorStatus, DEFAULT_BUDGET_PPM};
use ora_trace::analyze::pair_intervals;
use ora_trace::{RankedEvent, TraceReader};

/// The planted budgets from the env syntax a user would write.
const BUDGETS: [&str; 3] = ["0.5%", "2%", "10%"];

struct GovernedRun {
    /// The governor right after arming, and at rest after the storm.
    armed: GovernorStatus,
    status: GovernorStatus,
    summary: CollectionSummary,
    trace: Vec<u8>,
}

/// Run an EPCC-style barrier storm (with critical/lock seasoning so the
/// wait-pair events flow) under the governed rung with `budget_ppm`
/// planted directly — no env vars, so parallel tests cannot race.
fn barrier_storm_governed(budget_ppm: u64, episodes: usize) -> GovernedRun {
    let rt = OpenMp::with_config(Config {
        num_threads: 4,
        ..Config::default()
    });
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime resolves");
    let active = CollectionConfig::Governed
        .attach(&handle)
        .expect("governed attach");
    // Replace the attach-time (env-derived) governor with the planted
    // budget before any monitored event fires.
    handle.install_governor(GovernorConfig {
        budget_ppm,
        clock: Some(Arc::new(clock::ticks)),
        ..GovernorConfig::default()
    });
    let armed = handle.query_governor().expect("governor status");

    static GOVERNOR_LIVE: WordLock = WordLock::new();
    rt.parallel(|ctx| {
        for round in 0..episodes {
            ctx.barrier();
            if round % 8 == 0 {
                ctx.critical(&GOVERNOR_LIVE, || {});
            }
        }
    });

    // Full quiescence (workers joined, callbacks flushed) before the
    // snapshot, so the reconciliation invariant must hold exactly.
    drop(rt);
    let status = handle.query_governor().expect("governor status");
    let (summary, trace) = active.finish_with_trace().expect("finish");
    GovernedRun {
        armed,
        status,
        summary,
        trace: trace.expect("governed rung returns trace bytes"),
    }
}

#[test]
fn planted_budgets_reach_the_governor_and_accounting_reconciles() {
    for raw in BUDGETS {
        let budget_ppm = parse_budget(raw).expect("budget parses");
        let run = barrier_storm_governed(budget_ppm, 200);
        let g = &run.status;

        assert_eq!(g.enabled, 1, "{raw}: governor armed");
        assert_eq!(g.budget_ppm, budget_ppm, "{raw}: budget plumbed intact");
        assert!(
            g.events_observed > run.armed.events_observed,
            "{raw}: storm generated events"
        );
        assert!(
            g.reconciles_since(&run.armed),
            "{raw}: observed, sampled and skipped moved apart: {:?} → {g:?}",
            run.armed
        );
        // The summary is the same ledger seen through the collection.
        assert_eq!(run.summary.events_sampled, g.events_sampled, "{raw}");
        assert_eq!(run.summary.events_skipped, g.events_skipped, "{raw}");
    }
}

/// Tighter budgets must never sample *more* of the stream than looser
/// ones by a wide margin. On a fast machine all budgets may keep full
/// sampling (overhead genuinely under budget — that *is* honoring it);
/// the generous slack only trips if the governor inverts its response.
#[test]
fn tighter_budgets_never_sample_more() {
    let frac = |raw: &str| {
        let run = barrier_storm_governed(parse_budget(raw).unwrap(), 200);
        run.status.events_sampled as f64 / run.status.events_observed.max(1) as f64
    };
    let tight = frac("0.5%");
    let loose = frac("10%");
    assert!(
        tight <= loose + 0.25,
        "0.5% budget sampled {tight:.3} of the stream vs {loose:.3} under 10%"
    );
}

/// A 2-thread barrier storm under the default budget, armed as the
/// benchmark's governed rung arms it (collector clock, 0.1 ms windows).
/// Unthrottled, monitored dispatch is a large multiple of the 2 % budget
/// on this stream, so most of it must be sampled out once a cost is
/// known — including when windows are too short to hold `MIN_KEEP`
/// timings each.
#[test]
fn dense_storm_is_sampled_down_under_the_default_budget() {
    let rt = OpenMp::with_config(Config {
        num_threads: 2,
        ..Config::default()
    });
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime resolves");
    let active = CollectionConfig::Governed
        .attach(&handle)
        .expect("governed attach");
    handle.install_governor(GovernorConfig {
        budget_ppm: DEFAULT_BUDGET_PPM,
        clock: Some(Arc::new(clock::ticks)),
        min_window_ticks: 100_000,
    });
    let armed = handle.query_governor().expect("governor status");
    rt.parallel(|ctx| {
        for _ in 0..50_000 {
            ctx.barrier();
        }
    });
    drop(rt);
    let g = handle.query_governor().expect("governor status");
    active.finish().expect("finish");
    assert!(g.reconciles_since(&armed), "{armed:?} → {g:?}");
    let sampled = g.events_sampled as f64 / g.events_observed.max(1) as f64;
    assert!(
        sampled < 0.5,
        "sampled {sampled:.3} of {} events after {} retunes (overhead {} ppm, cost {} milliticks)",
        g.events_observed,
        g.retunes,
        g.overhead_ppm,
        g.monitored_milliticks
    );
}

/// A short re-attached collection must inherit the previous
/// attachment's converged sampling plan instead of re-learning it.
/// The second attachment plants a window that can never close
/// (`min_window_ticks` ~half of `u64::MAX`), so any skipping observed
/// there can only come from shifts re-seeded at install time.
#[test]
fn learned_shifts_survive_detach_and_reattach() {
    let rt = OpenMp::with_config(Config {
        num_threads: 4,
        ..Config::default()
    });
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime resolves");

    // First collection: an impossible budget (0 ppm) forces every
    // measured pair to max throttle as soon as one window closes.
    let active = CollectionConfig::Governed
        .attach(&handle)
        .expect("governed attach");
    handle.install_governor(GovernorConfig {
        budget_ppm: 0,
        clock: Some(Arc::new(clock::ticks)),
        min_window_ticks: 100_000,
    });
    static GOVERNOR_RESEED: WordLock = WordLock::new();
    rt.parallel(|ctx| {
        for round in 0..800 {
            ctx.barrier();
            if round % 8 == 0 {
                ctx.critical(&GOVERNOR_RESEED, || {});
            }
        }
    });
    let first = handle.query_governor().expect("governor status");
    active.finish().expect("first finish");
    assert!(first.retunes > 0, "zero budget must retune");
    assert!(first.events_skipped > 0, "zero budget must shed events");

    // Second, short collection: the window never closes, so the
    // retune count cannot move — skipping must start from the plan
    // stashed at detach.
    let active = CollectionConfig::Governed
        .attach(&handle)
        .expect("governed re-attach");
    handle.install_governor(GovernorConfig {
        budget_ppm: 0,
        clock: Some(Arc::new(clock::ticks)),
        min_window_ticks: u64::MAX / 2,
    });
    let armed = handle.query_governor().expect("governor status");
    rt.parallel(|ctx| {
        for _ in 0..100 {
            ctx.barrier();
        }
    });
    drop(rt);
    let second = handle.query_governor().expect("governor status");
    active.finish().expect("second finish");
    assert_eq!(
        second.retunes, first.retunes,
        "the second window can never close, so no new retunes"
    );
    assert!(
        second.events_skipped > first.events_skipped,
        "re-seeded shifts must skip from the first event (skipped stuck at {})",
        first.events_skipped
    );
    assert!(second.reconciles_since(&armed), "{armed:?} → {second:?}");
}

#[test]
fn rate_changes_never_drop_begin_end_pairing() {
    let run = barrier_storm_governed(parse_budget("0.5%").unwrap(), 400);
    let reader = TraceReader::from_bytes(run.trace).expect("trace decodes");

    // Every retune decision the governor logged is visible as a
    // sampling-rate timeline entry, and the collection counted them.
    let timeline = reader.governor_timeline().expect("timeline decodes");
    assert_eq!(timeline.len() as u64, run.summary.governor_records);

    // Event-stream accounting: decoded events + governor metadata
    // records account for everything drained.
    let records = reader.records().expect("records decode");
    assert_eq!(
        records.len() as u64 + run.summary.governor_records,
        run.summary.records_drained
    );

    if run.summary.records_dropped > 0 {
        // Backpressure loss makes pairing counts unprovable; the
        // reconciliation test above still covered the governor ledger.
        return;
    }

    // Every interval opened is closed, and nothing closes unopened —
    // whatever sampling rate was in force. (Idle intervals are excluded:
    // a worker parks idle at shutdown and legitimately never closes it.)
    let ranked = records
        .iter()
        .map(|&record| RankedEvent { rank: 0, record });
    let unpaired = pair_intervals(ranked, |_| {});
    for begin in [
        Event::Fork,
        Event::LoopBegin,
        Event::ThreadBeginImplicitBarrier,
        Event::ThreadBeginExplicitBarrier,
        Event::ThreadBeginLockWait,
        Event::ThreadBeginCriticalWait,
        Event::ThreadBeginOrderedWait,
        Event::ThreadBeginMaster,
        Event::ThreadBeginSingle,
    ] {
        assert_eq!(
            (unpaired.begins[begin.index()], unpaired.ends[begin.index()]),
            (0, 0),
            "(unclosed, unopened) {} intervals",
            begin.name()
        );
    }
}
