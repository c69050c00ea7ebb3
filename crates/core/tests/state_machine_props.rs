//! Property-style tests: the collector-API lifecycle under arbitrary
//! request sequences always maintains its invariants. Cases are drawn
//! from a fixed-seed PRNG so runs are deterministic and offline.

use std::sync::Arc;

use ora_core::api::{CollectorApi, Phase};
use ora_core::event::{Event, ALL_EVENTS};
use ora_core::registry::EventData;
use ora_core::request::{OraError, Request};
use ora_core::testutil::XorShift64;

#[derive(Debug, Clone)]
enum Op {
    Start,
    Stop,
    Pause,
    Resume,
    Register(Event),
    Unregister(Event),
    Fire(Event),
    QueryState,
}

fn arb_event(rng: &mut XorShift64) -> Event {
    ALL_EVENTS[rng.range_usize(0, ALL_EVENTS.len())]
}

fn arb_op(rng: &mut XorShift64) -> Op {
    match rng.below(8) {
        0 => Op::Start,
        1 => Op::Stop,
        2 => Op::Pause,
        3 => Op::Resume,
        4 => Op::Register(arb_event(rng)),
        5 => Op::Unregister(arb_event(rng)),
        6 => Op::Fire(arb_event(rng)),
        _ => Op::QueryState,
    }
}

fn arb_ops(rng: &mut XorShift64, max: usize) -> Vec<Op> {
    let len = rng.range_usize(0, max);
    (0..len).map(|_| arb_op(rng)).collect()
}

/// A reference model of the lifecycle.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ModelPhase {
    Inactive,
    Active,
    Paused,
}

/// The API's phase always matches a simple reference model, callbacks
/// fire exactly when the model says events are deliverable, and no
/// request sequence can wedge or crash the API.
#[test]
fn lifecycle_matches_reference_model() {
    let mut rng = XorShift64::new(0x11fe_c3c1_e001);
    for _case in 0..128 {
        let ops = arb_ops(&mut rng, 64);
        let api = CollectorApi::new();
        let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut model = ModelPhase::Inactive;
        let mut registered: std::collections::HashSet<Event> = Default::default();
        let mut expected_fires = 0u64;

        for op in &ops {
            match op {
                Op::Start => {
                    let r = api.handle_request(Request::Start);
                    if model == ModelPhase::Inactive {
                        assert!(r.is_ok());
                        model = ModelPhase::Active;
                    } else {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    }
                }
                Op::Stop => {
                    let r = api.handle_request(Request::Stop);
                    if model != ModelPhase::Inactive {
                        assert!(r.is_ok());
                        model = ModelPhase::Inactive;
                        registered.clear(); // stop clears the table
                    } else {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    }
                }
                Op::Pause => {
                    let r = api.handle_request(Request::Pause);
                    if model == ModelPhase::Active {
                        assert!(r.is_ok());
                        model = ModelPhase::Paused;
                    } else {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    }
                }
                Op::Resume => {
                    let r = api.handle_request(Request::Resume);
                    if model == ModelPhase::Paused {
                        assert!(r.is_ok());
                        model = ModelPhase::Active;
                    } else {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    }
                }
                Op::Register(e) => {
                    let f = fired.clone();
                    let token = api.intern_callback(Arc::new(move |_| {
                        f.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }));
                    let r = api.handle_request(Request::Register { event: *e, token });
                    if model == ModelPhase::Inactive {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    } else {
                        assert!(r.is_ok());
                        registered.insert(*e);
                    }
                }
                Op::Unregister(e) => {
                    let r = api.handle_request(Request::Unregister { event: *e });
                    if model == ModelPhase::Inactive {
                        assert_eq!(r, Err(OraError::OutOfSequence));
                    } else {
                        assert!(r.is_ok());
                        registered.remove(e);
                    }
                }
                Op::Fire(e) => {
                    api.event(&EventData::bare(*e, 0));
                    if model == ModelPhase::Active && registered.contains(e) {
                        expected_fires += 1;
                    }
                }
                Op::QueryState => {
                    // No provider installed: the query fails with Error,
                    // regardless of phase, and never panics.
                    let r = api.handle_request(Request::QueryState);
                    assert_eq!(r, Err(OraError::Error));
                }
            }
            // Phase agreement after every step.
            let api_phase = api.phase();
            let expected = match model {
                ModelPhase::Inactive => Phase::Inactive,
                ModelPhase::Active => Phase::Active,
                ModelPhase::Paused => Phase::Paused,
            };
            assert_eq!(api_phase, expected);
            assert_eq!(api.is_active(), model == ModelPhase::Active);
        }

        assert_eq!(
            fired.load(std::sync::atomic::Ordering::SeqCst),
            expected_fires,
            "case ops: {ops:?}"
        );
    }
}

/// Health counters are consistent with the request stream: total
/// requests equals the number of requests sent, and sequence errors the
/// number refused as out of sequence.
#[test]
fn health_counts_every_request() {
    let mut rng = XorShift64::new(0x11fe_c3c1_e002);
    for _case in 0..128 {
        let ops = arb_ops(&mut rng, 64);
        let api = CollectorApi::new();
        let (mut sent, mut rejected) = (0u64, 0u64);
        for op in &ops {
            let req = match op {
                Op::Start => Some(Request::Start),
                Op::Stop => Some(Request::Stop),
                Op::Pause => Some(Request::Pause),
                Op::Resume => Some(Request::Resume),
                Op::QueryState => Some(Request::QueryState),
                _ => None,
            };
            if let Some(req) = req {
                if api.handle_request(req) == Err(OraError::OutOfSequence) {
                    rejected += 1;
                }
                sent += 1;
            }
        }
        let health = api.health();
        assert_eq!(health.requests, sent);
        assert_eq!(health.sequence_errors, rejected);
    }
}
