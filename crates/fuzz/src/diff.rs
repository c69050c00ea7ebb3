//! The diff surface: everything the collector rungs must agree on.
//!
//! For one scenario the harness computes the sequential oracle, runs
//! the program under every [`CollectionConfig`] rung, and checks:
//!
//! 1. **Computed results** — per-op values equal the oracle on every
//!    rung (collectors must never perturb the application);
//! 2. **Final thread states** — the post-run probe region fields a
//!    full team and the runtime's fault counters are clean;
//! 3. **Rung invariants** — `Absent`/`RegisteredPaused` observe zero
//!    events, the started rungs observe work;
//! 4. **Trace accounting** (streaming rung) — callback counts, drain
//!    and drop counters, footer, per-thread and per-region partitions,
//!    event pairing, and multi-rank merge determinism all reconcile.
//!    The `governed` rung adds the sampling reconciliation: from
//!    arming to rest the per-event observed words grew by exactly
//!    sampled + skipped, callbacks ran exactly for the sampled events,
//!    decision records round-trip through the trace, and sampling never
//!    breaks begin/end pairing.
//! 5. **Socket replay** (`socket` rung) — the streaming rung's trace
//!    bytes are re-framed into the producer's sink-write units and
//!    streamed through a loopback `ora-fleet` aggregator daemon; the
//!    daemon's merged store must match the offline merge byte for byte
//!    and its lane accounting must reconcile with the in-process chain.

use collector::modes::CollectionConfig;
use ora_core::event::Event;
use ora_trace::analyze::pair_intervals;
use ora_trace::{merge_ranks, RankedEvent, TraceEvent, TraceReader};

use crate::exec::{run_under, RunOutcome};
use crate::oracle;
use crate::scenario::Scenario;

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The rung key (`absent`/`paused`/`state`/`trace`/`governed`/
    /// `socket`) or `harness`.
    pub rung: &'static str,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rung, self.detail)
    }
}

/// Run `scenario` under every rung and collect every disagreement with
/// the oracle. Empty means the scenario passed.
pub fn check_scenario(scenario: &Scenario) -> Vec<Mismatch> {
    check_scenario_rungs(scenario, &CollectionConfig::ALL)
}

/// [`check_scenario`] restricted to a subset of rungs (the CLI's
/// `fuzz --rungs` flag — e.g. the nightly governed-only sweep).
pub fn check_scenario_rungs(scenario: &Scenario, rungs: &[CollectionConfig]) -> Vec<Mismatch> {
    let expected = oracle::expected(scenario);
    let mut mismatches = Vec::new();
    for &rung in rungs {
        let key = rung.key();
        match run_under(scenario, rung) {
            Ok(outcome) => {
                diff_outcome(scenario, &expected, rung, &outcome, &mut mismatches);
            }
            Err(e) => mismatches.push(Mismatch {
                rung: key,
                detail: format!("execution failed: {e}"),
            }),
        }
    }
    mismatches
}

fn diff_outcome(
    scenario: &Scenario,
    expected: &[i64],
    rung: CollectionConfig,
    outcome: &RunOutcome,
    out: &mut Vec<Mismatch>,
) {
    let key = rung.key();
    let mut push = |detail: String| out.push(Mismatch { rung: key, detail });

    // 1. Computed results, op by op.
    for (k, (got, want)) in outcome.results.iter().zip(expected).enumerate() {
        if got != want {
            push(format!(
                "op {k} ({:?}): computed {got}, oracle {want}",
                scenario.ops[k]
            ));
        }
    }

    // 2. Final thread states: full team in the probe region, clean
    //    fault counters.
    if outcome.post_threads != scenario.threads {
        push(format!(
            "post-run probe saw {} thread(s), expected {}",
            outcome.post_threads, scenario.threads
        ));
    }
    if outcome.health.faulted() {
        push(format!(
            "ApiHealth faulted: {} panic(s), {} quarantined, {} sequence error(s)",
            outcome.health.callback_panics,
            outcome.health.callbacks_quarantined,
            outcome.health.sequence_errors
        ));
    }

    // 3. Rung invariants.
    let s = &outcome.summary;
    match rung {
        CollectionConfig::Absent | CollectionConfig::RegisteredPaused => {
            if s.events_observed != 0 {
                push(format!(
                    "{} rung observed {} event(s); must be 0",
                    key, s.events_observed
                ));
            }
        }
        CollectionConfig::StateQueries => {
            if s.events_observed == 0 {
                push("state rung observed no events".into());
            }
        }
        CollectionConfig::StreamingTrace => {
            if s.degraded {
                push("trace pipeline degraded".into());
            }
            if s.events_observed == 0 {
                push("trace rung observed no events".into());
            }
            if s.events_observed != s.records_drained + s.records_dropped {
                push(format!(
                    "event accounting: observed {} != drained {} + dropped {}",
                    s.events_observed, s.records_drained, s.records_dropped
                ));
            }
            match &outcome.trace {
                Some(bytes) => diff_trace(scenario, outcome, bytes, &mut push),
                None => push("trace rung returned no trace bytes".into()),
            }
        }
        CollectionConfig::Governed => {
            if s.degraded {
                push("governed trace pipeline degraded".into());
            }
            if s.events_observed == 0 {
                push("governed rung observed no events".into());
            }
            // Sampling reconciliation, from the status snapshots taken
            // right after arming and at rest: every event the per-event
            // words observed was either sampled or skipped, and callbacks
            // ran exactly for the sampled ones.
            match &outcome.governor {
                None => push("governed rung captured no governor status".into()),
                Some((armed, g)) => {
                    if armed.enabled != 1 || g.enabled != 1 {
                        push("governor was not armed on the governed rung".into());
                    }
                    if !g.reconciles_since(armed) {
                        push(format!(
                            "governor accounting: observed {} != sampled {} + skipped {} \
                             since arming ({armed:?})",
                            g.events_observed - armed.events_observed,
                            g.events_sampled - armed.events_sampled,
                            g.events_skipped - armed.events_skipped
                        ));
                    }
                    if g.events_sampled != s.events_observed {
                        push(format!(
                            "governor sampled {} event(s) but callbacks observed {}",
                            g.events_sampled, s.events_observed
                        ));
                    }
                    if s.events_sampled != g.events_sampled || s.events_skipped != g.events_skipped
                    {
                        push(format!(
                            "summary sampling ({}/{}) disagrees with status ({}/{})",
                            s.events_sampled, s.events_skipped, g.events_sampled, g.events_skipped
                        ));
                    }
                }
            }
            // Record accounting: one record per sampled event plus the
            // decision log, nothing more.
            if s.events_observed + s.governor_records != s.records_drained + s.records_dropped {
                push(format!(
                    "governed accounting: observed {} + decisions {} != drained {} + dropped {}",
                    s.events_observed, s.governor_records, s.records_drained, s.records_dropped
                ));
            }
            match &outcome.trace {
                Some(bytes) => diff_trace(scenario, outcome, bytes, &mut push),
                None => push("governed rung returned no trace bytes".into()),
            }
        }
    }

    // 5. Socket replay: stream the recorded bytes through a loopback
    //    aggregator daemon and diff its merged store (reported under
    //    its own `socket` rung key).
    if rung == CollectionConfig::StreamingTrace {
        if let Some(bytes) = &outcome.trace {
            diff_socket(outcome, bytes, out);
        }
    }
}

/// One kind of filtered view (per thread, per region) must partition
/// the full merge: each view is exactly its slice of `records`, and
/// together they cover it.
fn diff_partition(
    name: &str,
    records: &[TraceEvent],
    key: impl Fn(&TraceEvent) -> u64,
    view: impl Fn(u64) -> Result<Vec<TraceEvent>, ora_trace::TraceError>,
    push: &mut impl FnMut(String),
) {
    let mut keys: Vec<u64> = records.iter().map(&key).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut covered = 0usize;
    for k in keys {
        match view(k) {
            Ok(got) => {
                let want: Vec<_> = records.iter().copied().filter(|r| key(r) == k).collect();
                if got != want {
                    push(format!("{name}({k}) disagrees with the merged records"));
                }
                covered += got.len();
            }
            Err(e) => push(format!("{name}({k}) failed: {e}")),
        }
    }
    if covered != records.len() {
        push(format!(
            "{name} partitions cover {covered} of {} record(s)",
            records.len()
        ));
    }
}

/// Every interval the runtime opens, it closes: no begin is left open
/// and no end arrives unopened, for any pair a scenario can generate.
/// Only checkable when nothing was lost to backpressure and no pause
/// window could swallow one side of a pair. (Idle intervals are exempt:
/// pooled workers sit idle across attach and finish.)
fn diff_pairing(
    scenario: &Scenario,
    outcome: &RunOutcome,
    records: &[TraceEvent],
    push: &mut impl FnMut(String),
) {
    if outcome.summary.records_dropped != 0 || scenario.gates() != 0 {
        return;
    }
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
        Event::TaskBegin,
        Event::TaskWaitBegin,
    ] {
        if unpaired.of(begin) != 0 {
            push(format!(
                "{} unmatched {begin:?} interval(s)",
                unpaired.of(begin)
            ));
        }
    }
}

/// The socket rung: replay the trace through a loopback daemon and
/// check that online aggregation agrees with everything the in-process
/// chain established — stored records, drop accounting, and a merged
/// timeline byte-identical to the offline merge.
fn diff_socket(outcome: &RunOutcome, bytes: &[u8], out: &mut Vec<Mismatch>) {
    use ora_fleet::{timeline_bytes, Daemon, DaemonConfig, SocketSink};
    use ora_trace::TraceSink;

    let mut push = |detail: String| {
        out.push(Mismatch {
            rung: "socket",
            detail,
        })
    };
    let s = &outcome.summary;
    // The units the recorder handed its sink — header, each chunk,
    // footer — are what a `SocketSink` producer frames, one per epoch.
    let units = match ora_trace::format::units(bytes).collect::<Result<Vec<_>, _>>() {
        Ok(units) => units,
        Err(e) => return push(format!("cannot re-frame trace: {e}")),
    };
    let (client, server) = match ora_fleet::loopback() {
        Ok(pair) => pair,
        Err(e) => return push(format!("loopback transport failed: {e}")),
    };
    let mut daemon = Daemon::new(DaemonConfig::default());
    daemon.spawn_conn(server);
    let mut sink = match SocketSink::start(client, 0, 1_000_000_000, 4) {
        Ok(sink) => sink,
        Err(e) => return push(format!("HELLO failed: {e}")),
    };
    for (unit, _) in &units {
        if let Err(e) = sink.write_all(unit) {
            return push(format!("streaming a sink unit failed: {e}"));
        }
    }
    let fin = match sink.finish(
        s.records_drained + s.records_dropped,
        s.records_drained,
        s.records_dropped,
    ) {
        Ok(fin) => fin,
        Err(e) => return push(format!("FIN handshake failed: {e}")),
    };
    let report = daemon.finish();

    if fin.stored != s.records_drained {
        push(format!(
            "daemon stored {} record(s), drained {}",
            fin.stored, s.records_drained
        ));
    }
    let Some(lane) = report.lane(0) else {
        return push("daemon reports no lane for rank 0".into());
    };
    if !lane.finished || lane.quarantined.is_some() {
        push(format!(
            "lane did not finish cleanly: finished {}, quarantined {:?}",
            lane.finished, lane.quarantined
        ));
    }
    if !lane.reconciled() {
        push(format!(
            "lane accounting does not reconcile: fin {:?}, records {}, footer {:?}",
            lane.fin, lane.records, lane.footer
        ));
    }
    if lane.epochs != units.len() as u64 {
        push(format!(
            "daemon accepted {} epoch(s), streamed {}",
            lane.epochs,
            units.len()
        ));
    }

    // The online merge must equal the offline one, byte for byte.
    let offline = TraceReader::from_bytes(bytes.to_vec()).and_then(|reader| merge_ranks(&[reader]));
    match offline {
        Ok(events) => {
            if report.store.export() != timeline_bytes(&events) {
                push(format!(
                    "daemon export ({} record(s)) differs from offline merge ({} record(s))",
                    report.store.len(),
                    events.len()
                ));
            }
        }
        Err(e) => push(format!("offline merge failed: {e}")),
    }
}

/// Reconcile a streaming rung's persisted trace against the summary:
/// footer counters, the governor's decision log (round-tripped through
/// the reader's timeline and kept out of the event stream; empty on the
/// ungoverned rung), per-thread and per-region partitions, event pairing
/// — which sampling must not break: the fate stack admits an end iff it
/// admitted its begin — and rank-merge determinism.
fn diff_trace(
    scenario: &Scenario,
    outcome: &RunOutcome,
    bytes: &[u8],
    push: &mut impl FnMut(String),
) {
    let s = &outcome.summary;
    let reader = match TraceReader::from_bytes(bytes.to_vec()) {
        Ok(r) => r,
        Err(e) => return push(format!("trace does not decode: {e}")),
    };
    if reader.record_count() != s.records_drained {
        push(format!(
            "footer drained {} != summary drained {}",
            reader.record_count(),
            s.records_drained
        ));
    }
    if reader.dropped() != Some(s.records_dropped) {
        push(format!(
            "footer dropped {:?} != summary dropped {}",
            reader.dropped(),
            s.records_dropped
        ));
    }
    match reader.governor_timeline() {
        Ok(timeline) => {
            if timeline.len() as u64 != s.governor_records {
                push(format!(
                    "governor timeline has {} decision(s), summary persisted {}",
                    timeline.len(),
                    s.governor_records
                ));
            }
        }
        Err(e) => push(format!("governor timeline does not decode: {e}")),
    }
    let records = match reader.records() {
        Ok(r) => r,
        Err(e) => return push(format!("trace records do not decode: {e}")),
    };
    if records.len() as u64 + s.governor_records != s.records_drained {
        push(format!(
            "decoded {} event record(s) + {} decision(s) != drained {}",
            records.len(),
            s.governor_records,
            s.records_drained
        ));
    }

    let thread_view = |g| reader.for_thread(g as usize);
    diff_partition("for_thread", &records, |r| r.gtid as u64, thread_view, push);
    let region_view = |rid| reader.for_region(rid);
    diff_partition("for_region", &records, |r| r.region_id, region_view, push);

    diff_pairing(scenario, outcome, &records, push);

    // Multi-rank merge determinism: merging the trace with itself must
    // be stable and keyed `(tick, gtid, seq, rank)` — the rank strictly
    // last. (This is the fuzzer-level regression for the merge_ranks
    // tie-break bug.)
    let two = |bytes: &[u8]| -> Result<Vec<TraceReader>, ora_trace::TraceError> {
        Ok(vec![
            TraceReader::from_bytes(bytes.to_vec())?,
            TraceReader::from_bytes(bytes.to_vec())?,
        ])
    };
    match (two(bytes), two(bytes)) {
        (Ok(a), Ok(b)) => match (merge_ranks(&a), merge_ranks(&b)) {
            (Ok(m1), Ok(m2)) => {
                if m1 != m2 {
                    push("rank merge is not deterministic".into());
                }
                for w in m1.windows(2) {
                    let (ka, kb) = (w[0].key(), w[1].key());
                    if ka > kb {
                        push(format!(
                            "rank merge key order violated: {ka:?} precedes {kb:?}"
                        ));
                        break;
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => push(format!("rank merge failed: {e}")),
        },
        (Err(e), _) | (_, Err(e)) => push(format!("trace re-open failed: {e}")),
    }
}
