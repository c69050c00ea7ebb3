//! Golden bytes of the `__omp_collector_api` request records.
//!
//! The paper's Fig. 3 batch as the collector encodes it and as the
//! runtime leaves it after serving, plus a batch of the fixed-layout
//! replies (`OMP_REQ_STATE`, `OMP_REQ_HEALTH`) and one error code, and a
//! record whose code no request has. Every field of every record is
//! pinned as a literal byte, so an encoder or decoder change that
//! reorders, resizes or renumbers one fails here instead of in a
//! collector built against the old layout.

use ora_core::message::{serve_batch, RequestBatch};
use ora_core::request::REQUEST_CODE_COUNT;
use ora_core::{
    ApiHealth, CallbackToken, CollectorApi, Event, OraError, Request, Response, ThreadState,
    WaitIdKind,
};

fn fig3() -> [Request; 5] {
    [
        Request::Start,
        Request::Register {
            event: Event::Fork,
            token: CallbackToken(1),
        },
        Request::Register {
            event: Event::Join,
            token: CallbackToken(2),
        },
        Request::QueryState,
        Request::QueryCurrentPrid,
    ]
}

const HEALTH: ApiHealth = ApiHealth {
    callback_panics: 1,
    callbacks_quarantined: 2,
    sequence_errors: 3,
    requests: 4,
    events_sampled: 5,
    events_skipped: 6,
    tasks_stolen: 7,
    task_overflows: 8,
    taskwait_parks: 9,
};

const WAIT_ID: u64 = 0x0807_0605_0403_0201;

/// Fixed replies; the parent-region query fails, so one record carries
/// an error code.
fn server(req: Request) -> Result<Response, OraError> {
    Ok(match req {
        Request::QueryState => Response::State {
            state: ThreadState::LockWait,
            wait_id: Some((WaitIdKind::Lock, WAIT_ID)),
        },
        Request::QueryCurrentPrid => Response::RegionId(77),
        Request::QueryParentPrid => return Err(OraError::OutOfSequence),
        Request::QueryHealth => Response::Health(HEALTH),
        _ => Response::Ack,
    })
}

/// Each record: `sz u32 | code u32 | ec i32 | rsz u32 | payload | response`.
#[rustfmt::skip]
const FIG3_ENCODED: &[u8] = &[
    // Start
    0x10, 0, 0, 0,  0x01, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    // Register Fork, token 1
    0x1c, 0, 0, 0,  0x02, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    0x01, 0, 0, 0,  0x01, 0, 0, 0, 0, 0, 0, 0,
    // Register Join, token 2
    0x1c, 0, 0, 0,  0x02, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    0x02, 0, 0, 0,  0x02, 0, 0, 0, 0, 0, 0, 0,
    // State query, 16-byte response area
    0x20, 0, 0, 0,  0x04, 0, 0, 0,  0, 0, 0, 0,  0x10, 0, 0, 0,
    0, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0,
    // Current region-ID query, 8-byte response area
    0x18, 0, 0, 0,  0x05, 0, 0, 0,  0, 0, 0, 0,  0x08, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,
    // Terminator
    0, 0, 0, 0,
];

#[rustfmt::skip]
const FIG3_SERVED: &[u8] = &[
    0x10, 0, 0, 0,  0x01, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    0x1c, 0, 0, 0,  0x02, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    0x01, 0, 0, 0,  0x01, 0, 0, 0, 0, 0, 0, 0,
    0x1c, 0, 0, 0,  0x02, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,
    0x02, 0, 0, 0,  0x02, 0, 0, 0, 0, 0, 0, 0,
    // LockWait (8), wait-ID kind Lock (2), wait ID
    0x20, 0, 0, 0,  0x04, 0, 0, 0,  0, 0, 0, 0,  0x10, 0, 0, 0,
    0x08, 0, 0, 0,  0x02, 0, 0, 0,  0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
    // Region 77
    0x18, 0, 0, 0,  0x05, 0, 0, 0,  0, 0, 0, 0,  0x08, 0, 0, 0,
    0x4d, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0,
];

#[rustfmt::skip]
const REPLIES_SERVED: &[u8] = &[
    // State: LockWait, Lock, wait ID
    0x20, 0, 0, 0,  0x04, 0, 0, 0,  0, 0, 0, 0,  0x10, 0, 0, 0,
    0x08, 0, 0, 0,  0x02, 0, 0, 0,  0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
    // Health (code 11): nine u64 counters in declaration order
    0x58, 0, 0, 0,  0x0b, 0, 0, 0,  0, 0, 0, 0,  0x48, 0, 0, 0,
    0x01, 0, 0, 0, 0, 0, 0, 0,  0x02, 0, 0, 0, 0, 0, 0, 0,
    0x03, 0, 0, 0, 0, 0, 0, 0,  0x04, 0, 0, 0, 0, 0, 0, 0,
    0x05, 0, 0, 0, 0, 0, 0, 0,  0x06, 0, 0, 0, 0, 0, 0, 0,
    0x07, 0, 0, 0, 0, 0, 0, 0,  0x08, 0, 0, 0, 0, 0, 0, 0,
    0x09, 0, 0, 0, 0, 0, 0, 0,
    // Parent region-ID query answered OutOfSequence (ec 2), area untouched
    0x18, 0, 0, 0,  0x06, 0, 0, 0,  0x02, 0, 0, 0,  0x08, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0,
];

#[test]
fn request_records_reproduce_the_golden_bytes() {
    let mut fig3 = RequestBatch::new(&fig3());
    assert_eq!(fig3.as_bytes(), FIG3_ENCODED);
    assert_eq!(serve_batch(fig3.as_mut_bytes(), server), 5);
    assert_eq!(fig3.as_bytes(), FIG3_SERVED);

    let mut replies = RequestBatch::new(&[
        Request::QueryState,
        Request::QueryHealth,
        Request::QueryParentPrid,
    ]);
    assert_eq!(serve_batch(replies.as_mut_bytes(), server), 3);
    assert_eq!(replies.as_bytes(), REPLIES_SERVED);
    assert_eq!(
        replies.responses(),
        [
            Ok(Response::State {
                state: ThreadState::LockWait,
                wait_id: Some((WaitIdKind::Lock, WAIT_ID)),
            }),
            Ok(Response::Health(HEALTH)),
            Err(OraError::OutOfSequence),
        ]
    );
}

/// A record with code 12, one past the last request code, sized as a
/// nine-word status query: well-formed, but no request has its code.
#[rustfmt::skip]
const CODE_12_SENT: &[u8] = &[
    0x58, 0, 0, 0,  0x0c, 0, 0, 0,  0, 0, 0, 0,  0x48, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0,
];

#[test]
fn an_unknown_code_is_refused_and_its_response_area_left_zeroed() {
    assert_eq!(REQUEST_CODE_COUNT, 11);
    // Only the ec slot changes: UnknownRequest (3).
    let mut served = CODE_12_SENT.to_vec();
    served[8] = 0x03;

    let mut bytes = CODE_12_SENT.to_vec();
    assert_eq!(serve_batch(&mut bytes, server), 1);
    assert_eq!(bytes, served);

    // The runtime entry point refuses it the same way.
    let mut bytes = CODE_12_SENT.to_vec();
    assert_eq!(CollectorApi::new().handle_bytes(&mut bytes), 1);
    assert_eq!(bytes, served);
}

#[test]
fn every_answered_record_counts_as_a_request_refused_ones_included() {
    let api = CollectorApi::new();
    let requests = || api.health().requests;
    let before = requests();
    let mut bytes = CODE_12_SENT.to_vec();
    assert_eq!(api.handle_bytes(&mut bytes), 1);
    assert_eq!(requests(), before + 1, "a refused record is answered");

    // Two refused records, then a size word that runs past the buffer:
    // both got their `ec`, so both count, though the stream is malformed.
    let record = &CODE_12_SENT[..CODE_12_SENT.len() - 4]; // no terminator
    let mut bytes = [record, record, &[0xff, 0, 0, 0]].concat();
    assert_eq!(api.handle_bytes(&mut bytes), -1);
    assert_eq!(requests(), before + 3);
}
