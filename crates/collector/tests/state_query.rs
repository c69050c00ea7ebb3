//! The allocation-free `OMP_REQ_STATE` round trip: one pre-encoded batch
//! per thread, re-served in place through the resolved entry point. A
//! re-served batch must follow the descriptor, and a serve that fails must
//! never hand back the answer a previous serve left in the bytes.

use std::sync::Arc;
use std::time::Instant;

use collector::{RuntimeHandle, StateTimer};
use omprt::OpenMp;
use ora_core::api::CollectorApi;
use ora_core::request::OraError;
use ora_core::state::{ThreadState, WaitIdKind, ALL_STATES};

fn handle_for(rt: &OpenMp) -> RuntimeHandle {
    RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime exports its symbol")
}

/// Export `api` under `symbol` behind `entry`, as a runtime would, and
/// resolve it.
fn export(
    symbol: &str,
    api: Arc<CollectorApi>,
    entry: psx::dynsym::CollectorEntry,
) -> RuntimeHandle {
    psx::dynsym::export(symbol, entry);
    psx::dynsym::objects::export(&format!("{symbol}.api"), api);
    RuntimeHandle::discover_named(symbol).expect("just exported")
}

/// Leave a waiting answer with a non-zero wait ID in the calling thread's
/// batch, so a later failure that decoded stale bytes would show.
fn prime(handle: &RuntimeHandle, rt: &OpenMp) {
    rt.parallel(|ctx| {
        let desc = ctx.descriptor();
        desc.lock_wait_id.next();
        let prev = desc.state.replace(ThreadState::LockWait);
        let answer = handle.query_state();
        desc.state.set(prev);
        assert_eq!(answer, Ok(desc_answer(ThreadState::LockWait, desc)));
    });
}

fn desc_answer(
    state: ThreadState,
    desc: &omprt::ThreadDescriptor,
) -> (ThreadState, Option<(WaitIdKind, u64)>) {
    (
        state,
        state.wait_id_kind().map(|k| (k, desc.wait_id(k).get())),
    )
}

#[test]
fn re_served_batch_follows_every_state_and_wait_id() {
    let rt = OpenMp::with_threads(1);
    let handle = handle_for(&rt);
    assert_eq!(handle.query_state(), Ok((ThreadState::Serial, None)));
    rt.parallel(|ctx| {
        let desc = ctx.descriptor();
        for round in 0..3 {
            for state in ALL_STATES {
                if let Some(kind) = state.wait_id_kind() {
                    desc.wait_id(kind).next();
                }
                let prev = desc.state.replace(state);
                let answer = handle.query_state();
                desc.state.set(prev);
                assert_eq!(
                    answer,
                    Ok(desc_answer(state, desc)),
                    "round {round}, {state:?}"
                );
            }
        }
    });
    assert_eq!(handle.query_state(), Ok((ThreadState::Serial, None)));
}

#[test]
fn failed_serve_never_returns_the_previous_answer() {
    let rt = OpenMp::with_threads(1);
    let live = handle_for(&rt);

    // No provider: the runtime answers with an error code.
    let bare = Arc::new(CollectorApi::new());
    let entry_api = Arc::clone(&bare);
    let no_provider = export(
        "__state_query_test_no_provider",
        bare,
        Arc::new(move |buf: &mut [u8]| entry_api.handle_bytes(buf)),
    );
    prime(&live, &rt);
    assert_eq!(no_provider.query_state(), Err(OraError::Error));

    // A corrupted record length: the stream is unparseable, nothing in it
    // was answered.
    let api = rt.collector_api();
    let corrupting = export(
        "__state_query_test_corrupting",
        rt.collector_api(),
        Arc::new(move |buf: &mut [u8]| {
            let bogus = (buf.len() as u32 + 64).to_le_bytes();
            buf[..4].copy_from_slice(&bogus);
            api.handle_bytes(buf)
        }),
    );
    prime(&live, &rt);
    assert_eq!(corrupting.query_state(), Err(OraError::Malformed));
    // The corrupted batch was dropped: the next query re-encodes.
    assert_eq!(live.query_state(), Ok((ThreadState::Serial, None)));

    // A dropped runtime: the entry still answers, with Unknown.
    prime(&live, &rt);
    drop(rt);
    assert_eq!(live.query_state(), Ok((ThreadState::Unknown, None)));

    for symbol in [
        "__state_query_test_no_provider",
        "__state_query_test_corrupting",
    ] {
        psx::dynsym::unexport(symbol);
        psx::dynsym::objects::unexport(&format!("{symbol}.api"));
    }
}

#[test]
fn state_timer_attributes_a_barrier_storm_to_both_threads() {
    let rt = OpenMp::with_threads(2);
    let started = Instant::now();
    let timer = StateTimer::attach(handle_for(&rt)).unwrap();
    for _ in 0..50 {
        rt.parallel(|ctx| {
            for _ in 0..20 {
                ctx.barrier();
            }
        });
    }
    let profile = timer.finish();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(profile.threads.len(), 2, "both threads sampled");
    for t in &profile.threads {
        assert!(
            t.secs(ThreadState::ExplicitBarrier) > 0.0,
            "thread {} has no barrier time",
            t.gtid
        );
        assert!(
            t.total() <= wall,
            "thread {} attributed {} s of a {wall} s run",
            t.gtid,
            t.total()
        );
    }
}
