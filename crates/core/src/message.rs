//! The byte-array wire protocol of `__omp_collector_api`.
//!
//! The interface consists of a single routine taking "a pointer to a byte
//! array that can be used by a collector to pass one or more requests for
//! information from the runtime" (paper §IV). Each request is a
//! self-describing record; the runtime fills in an error code and an
//! optional response in place, so the same buffer carries the replies back.
//!
//! Record layout (all fields little-endian):
//!
//! ```text
//! offset  0  u32  sz     total record size in bytes (header+payload+response)
//! offset  4  u32  r      request code (OMP_REQ_*)
//! offset  8  i32  ec     error code slot, 0 = success (filled by runtime)
//! offset 12  u32  rsz    size of the trailing response area
//! offset 16  ...         request payload, then `rsz` response bytes
//! ```
//!
//! The record stream is terminated by a record with `sz == 0`.

use crate::bytes::{self, Cursor};
use crate::event::Event;
use crate::request::{ApiHealth, CallbackToken, OraError, Request, RequestCode, Response};
use crate::state::{ThreadState, WaitIdKind};

/// Size of the fixed record header in bytes.
pub const HEADER_BYTES: usize = 16;

/// Response-area size for a state query: state (u32) + wait-ID kind (u32) +
/// wait-ID value (u64).
pub const STATE_RESPONSE_BYTES: usize = 16;

/// Response-area size for a region-ID query.
pub const PRID_RESPONSE_BYTES: usize = 8;

/// Response-area size for a capabilities query.
pub const CAPS_RESPONSE_BYTES: usize = 8;

/// Response-area size for a health query: nine u64 counters (see
/// [`crate::request::ApiHealth`]).
pub const HEALTH_RESPONSE_BYTES: usize = 72;

fn payload_bytes(req: &Request) -> usize {
    match req {
        Request::Register { .. } => 12, // event u32 + token u64
        Request::Unregister { .. } => 4,
        _ => 0,
    }
}

fn response_bytes(req: &Request) -> usize {
    match req {
        Request::QueryState => STATE_RESPONSE_BYTES,
        Request::QueryCurrentPrid | Request::QueryParentPrid => PRID_RESPONSE_BYTES,
        Request::QueryCapabilities => CAPS_RESPONSE_BYTES,
        Request::QueryHealth => HEALTH_RESPONSE_BYTES,
        _ => 0,
    }
}

/// Append the encoding of one request record to `buf`.
pub fn encode_request(buf: &mut Vec<u8>, req: &Request) {
    let payload = payload_bytes(req);
    let rsz = response_bytes(req);
    let sz = HEADER_BYTES + payload + rsz;
    for field in [sz as u32, req.code() as u32, 0, rsz as u32] {
        buf.extend_from_slice(&field.to_le_bytes()); // sz, code, ec slot, rsz
    }
    match *req {
        Request::Register { event, token } => {
            buf.extend_from_slice(&(event as u32).to_le_bytes());
            buf.extend_from_slice(&token.0.to_le_bytes());
        }
        Request::Unregister { event } => buf.extend_from_slice(&(event as u32).to_le_bytes()),
        _ => {}
    }
    buf.resize(buf.len() + rsz, 0);
}

/// Wait-ID kinds in wire order: `WAIT_KINDS[i]` travels as `i + 1` (its
/// declaration index plus one), and 0 means the state has no wait ID.
const WAIT_KINDS: [WaitIdKind; 6] = [
    WaitIdKind::Barrier,
    WaitIdKind::Lock,
    WaitIdKind::Critical,
    WaitIdKind::Ordered,
    WaitIdKind::Atomic,
    WaitIdKind::Task,
];

/// A batch of encoded requests plus the record offsets needed to decode the
/// in-place responses afterwards.
///
/// This is the collector-side view of the protocol: build a batch, hand
/// [`RequestBatch::as_mut_bytes`] to the runtime entry point, then read the
/// per-record results with [`RequestBatch::response`].
#[derive(Debug, Clone)]
pub struct RequestBatch {
    buf: Vec<u8>,
    offsets: Vec<usize>,
    requests: Vec<Request>,
}

impl RequestBatch {
    /// Encode a sequence of requests into a single buffer.
    pub fn new(requests: &[Request]) -> Self {
        let mut buf = Vec::new();
        let mut offsets = Vec::with_capacity(requests.len());
        for req in requests {
            offsets.push(buf.len());
            encode_request(&mut buf, req);
        }
        buf.extend_from_slice(&0u32.to_le_bytes()); // terminator
        RequestBatch {
            buf,
            offsets,
            requests: requests.to_vec(),
        }
    }

    /// The raw byte array to pass to `__omp_collector_api`.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Read-only view of the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Decode the result of record `i` after the runtime served the batch.
    pub fn response(&self, i: usize) -> Result<Response, OraError> {
        let req = &self.requests[i];
        let mut c = Cursor::new(&self.buf[self.offsets[i]..]);
        c.bytes(8)?; // sz, code
        let ec = c.u32_le()? as i32;
        if ec != 0 {
            return Err(OraError::from_i32(ec).unwrap_or(OraError::Error));
        }
        c.bytes(4 + payload_bytes(req) as u64)?; // rsz, payload
        Ok(match req {
            Request::QueryState => {
                let state = ThreadState::from_u32(c.u32_le()?).ok_or(OraError::Malformed)?;
                let (kind, id) = (c.u32_le()? as usize, c.u64_le()?);
                let wait_id = match kind {
                    0 => None,
                    _ => Some((*WAIT_KINDS.get(kind - 1).ok_or(OraError::Malformed)?, id)),
                };
                Response::State { state, wait_id }
            }
            Request::QueryCurrentPrid | Request::QueryParentPrid => Response::RegionId(c.u64_le()?),
            Request::QueryCapabilities => Response::Capabilities(c.u64_le()?),
            Request::QueryHealth => Response::Health(read_health(&mut c)?),
            _ => Response::Ack,
        })
    }

    /// Decode every record's result.
    pub fn responses(&self) -> Vec<Result<Response, OraError>> {
        (0..self.len()).map(|i| self.response(i)).collect()
    }
}

/// Runtime-side protocol service: walk the record stream in `buf`, decode
/// each request, invoke `serve`, and write error codes and responses back
/// in place.
///
/// Returns the number of records processed (like the C entry point's `int`
/// return), or `-1` if the stream itself was unparseable.
pub fn serve_batch(
    buf: &mut [u8],
    serve: impl FnMut(Request) -> Result<Response, OraError>,
) -> i32 {
    serve_stream(buf, serve).0
}

/// [`serve_batch`] that also returns the number of records answered:
/// every record whose `ec` it wrote, refused ones and those before a
/// malformed tail included.
pub(crate) fn serve_stream(
    buf: &mut [u8],
    mut serve: impl FnMut(Request) -> Result<Response, OraError>,
) -> (i32, u64) {
    let mut off = 0usize;
    let mut served = 0;
    loop {
        let mut c = Cursor::new(&buf[off..]);
        let sz = match c.u32_le() {
            Ok(0) => return (served as i32, served),
            Ok(sz) if sz as usize >= HEADER_BYTES && c.bytes(u64::from(sz) - 4).is_ok() => {
                sz as usize
            }
            _ => return (-1, served),
        };
        let record = &mut buf[off..off + sz];
        let ec = match serve_record(record, &mut serve) {
            Ok(()) => 0,
            Err(e) => e as i32,
        };
        record[8..12].copy_from_slice(&ec.to_le_bytes());
        served += 1;
        off += sz;
    }
}

/// Decode the request in `record` (a whole record, header included),
/// serve it, and write the response into the record's response area.
fn serve_record(
    record: &mut [u8],
    serve: &mut impl FnMut(Request) -> Result<Response, OraError>,
) -> Result<(), OraError> {
    let mut c = Cursor::new(record);
    c.bytes(4)?; // sz, checked by the walk
    let code = RequestCode::from_u32(c.u32_le()?).ok_or(OraError::UnknownRequest)?;
    c.bytes(4)?; // ec slot
    let rsz = c.u32_le()? as usize;
    let payload_len = c.remaining().checked_sub(rsz).ok_or(OraError::Malformed)?;
    let mut payload = Cursor::new(c.bytes(payload_len as u64)?);

    let request = match code {
        RequestCode::Start => Request::Start,
        RequestCode::Stop => Request::Stop,
        RequestCode::Pause => Request::Pause,
        RequestCode::Resume => Request::Resume,
        RequestCode::Register => {
            let (raw, token) = (payload.u32_le()?, payload.u64_le()?);
            Request::Register {
                event: Event::from_u32(raw).ok_or(OraError::UnsupportedEvent)?,
                token: CallbackToken(token),
            }
        }
        RequestCode::Unregister => Request::Unregister {
            event: Event::from_u32(payload.u32_le()?).ok_or(OraError::UnsupportedEvent)?,
        },
        RequestCode::State => Request::QueryState,
        RequestCode::CurrentPrid => Request::QueryCurrentPrid,
        RequestCode::ParentPrid => Request::QueryParentPrid,
        RequestCode::Capabilities => Request::QueryCapabilities,
        RequestCode::Health => Request::QueryHealth,
    };

    let response = serve(request)?;
    let area_at = record.len() - rsz;
    let area = &mut record[area_at..];
    match response {
        Response::Ack => Ok(()),
        Response::State { state, wait_id } => {
            let (kind, id) = wait_id.map_or((0, 0), |(kind, id)| (kind as u64 + 1, id));
            // The state and kind u32s, little-endian, are one word's halves.
            put_words(area, &[state as u64 | kind << 32, id])
        }
        Response::RegionId(word) | Response::Capabilities(word) => put_words(area, &[word]),
        Response::Health(h) => put_health(area, &h),
    }
}

/// Write `words` little-endian at the start of a response area, or
/// `MemError` if the area is too small for them.
fn put_words(area: &mut [u8], words: &[u64]) -> Result<(), OraError> {
    let area = area.get_mut(..8 * words.len()).ok_or(OraError::MemError)?;
    for (dst, w) in area.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    Ok(())
}

/// The word layout of the fixed-layout status reply (`OMP_REQ_HEALTH`):
/// each field once, in wire order, as one little-endian u64 each, for
/// both directions.
macro_rules! word_layout {
    ($put:ident, $read:ident, $ty:ident { $($field:ident),* $(,)? }) => {
        fn $put(area: &mut [u8], s: &$ty) -> Result<(), OraError> {
            put_words(area, &[$(s.$field),*])
        }

        fn $read(c: &mut Cursor<'_>) -> Result<$ty, bytes::Error> {
            Ok($ty { $($field: c.u64_le()?),* })
        }
    };
}

word_layout!(
    put_health,
    read_health,
    ApiHealth {
        callback_panics,
        callbacks_quarantined,
        sequence_errors,
        requests,
        events_sampled,
        events_skipped,
        tasks_stolen,
        task_overflows,
        taskwait_parks,
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server(req: Request) -> Result<Response, OraError> {
        Ok(match req {
            Request::QueryState => Response::State {
                state: ThreadState::Working,
                wait_id: None,
            },
            Request::QueryCurrentPrid => Response::RegionId(77),
            Request::QueryParentPrid => Response::RegionId(0),
            _ => Response::Ack,
        })
    }

    #[test]
    fn empty_batch_is_just_a_terminator() {
        let mut b = RequestBatch::new(&[]);
        assert!(b.is_empty());
        assert_eq!(serve_batch(b.as_mut_bytes(), echo_server), 0);
    }

    #[test]
    fn single_start_round_trips() {
        let mut b = RequestBatch::new(&[Request::Start]);
        assert_eq!(serve_batch(b.as_mut_bytes(), echo_server), 1);
        assert_eq!(b.response(0), Ok(Response::Ack));
    }

    #[test]
    fn multi_request_sequence_like_figure_3() {
        // The paper's Fig. 3 sequence: start, register fork, register join,
        // query state, query region id.
        let reqs = [
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
        ];
        let mut b = RequestBatch::new(&reqs);
        assert_eq!(serve_batch(b.as_mut_bytes(), echo_server), 5);
        assert_eq!(b.response(0), Ok(Response::Ack));
        assert_eq!(b.response(1), Ok(Response::Ack));
        assert_eq!(
            b.response(3),
            Ok(Response::State {
                state: ThreadState::Working,
                wait_id: None
            })
        );
        assert_eq!(b.response(4), Ok(Response::RegionId(77)));
    }

    #[test]
    fn errors_are_written_into_the_ec_slot() {
        let mut b = RequestBatch::new(&[Request::Start, Request::QueryCurrentPrid]);
        let n = serve_batch(b.as_mut_bytes(), |req| match req {
            Request::Start => Ok(Response::Ack),
            _ => Err(OraError::OutOfSequence),
        });
        assert_eq!(n, 2); // both records processed
        assert_eq!(b.response(0), Ok(Response::Ack));
        assert_eq!(b.response(1), Err(OraError::OutOfSequence));
    }

    #[test]
    fn wait_ids_round_trip_through_state_response() {
        let mut b = RequestBatch::new(&[Request::QueryState]);
        serve_batch(b.as_mut_bytes(), |_| {
            Ok(Response::State {
                state: ThreadState::LockWait,
                wait_id: Some((WaitIdKind::Lock, 42)),
            })
        });
        assert_eq!(
            b.response(0),
            Ok(Response::State {
                state: ThreadState::LockWait,
                wait_id: Some((WaitIdKind::Lock, 42))
            })
        );
    }

    #[test]
    fn every_wait_id_kind_travels_as_its_wire_code() {
        for (i, &kind) in WAIT_KINDS.iter().enumerate() {
            let mut b = RequestBatch::new(&[Request::QueryState]);
            serve_batch(b.as_mut_bytes(), |_| {
                Ok(Response::State {
                    state: ThreadState::Working,
                    wait_id: Some((kind, 9)),
                })
            });
            let area = HEADER_BYTES;
            assert_eq!(b.as_bytes()[area + 4..area + 8], [i as u8 + 1, 0, 0, 0]);
            assert_eq!(
                b.response(0),
                Ok(Response::State {
                    state: ThreadState::Working,
                    wait_id: Some((kind, 9))
                })
            );
        }
        // A code past the last kind is malformed, not a panic.
        let mut b = RequestBatch::new(&[Request::QueryState]);
        serve_batch(b.as_mut_bytes(), echo_server);
        b.as_mut_bytes()[HEADER_BYTES + 4] = WAIT_KINDS.len() as u8 + 1;
        assert_eq!(b.response(0), Err(OraError::Malformed));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let mut b = RequestBatch::new(&[Request::Start]);
        let full = b.as_mut_bytes();
        let cut = full.len() - 6; // chop the terminator and part of header
        assert_eq!(serve_batch(&mut full[..cut], echo_server), -1);
    }

    #[test]
    fn unknown_request_code_flags_only_that_record() {
        let mut b = RequestBatch::new(&[Request::Start, Request::Stop]);
        // Corrupt the second record's request code.
        let off2 = HEADER_BYTES; // first record has no payload/response
        let bytes = b.as_mut_bytes();
        bytes[off2 + 4..off2 + 8].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(serve_batch(bytes, echo_server), 2);
        assert_eq!(b.response(0), Ok(Response::Ack));
        assert_eq!(b.response(1), Err(OraError::UnknownRequest));
    }

    #[test]
    fn register_payload_decodes() {
        let mut seen = Vec::new();
        let mut b = RequestBatch::new(&[Request::Register {
            event: Event::ThreadBeginImplicitBarrier,
            token: CallbackToken(0xDEAD_BEEF_0BAD_F00D),
        }]);
        serve_batch(b.as_mut_bytes(), |req| {
            seen.push(req);
            Ok(Response::Ack)
        });
        assert_eq!(
            seen,
            vec![Request::Register {
                event: Event::ThreadBeginImplicitBarrier,
                token: CallbackToken(0xDEAD_BEEF_0BAD_F00D)
            }]
        );
    }

    #[test]
    fn response_area_too_small_yields_mem_error() {
        let mut b = RequestBatch::new(&[Request::QueryState]);
        // Shrink the declared response size below what a state reply needs.
        let bytes = b.as_mut_bytes();
        bytes[12..16].copy_from_slice(&4u32.to_le_bytes());
        // Also shrink the record size to stay consistent.
        let new_sz = (HEADER_BYTES + 4) as u32;
        bytes[0..4].copy_from_slice(&new_sz.to_le_bytes());
        // Rebuild a consistent stream: terminator right after the record.
        let mut stream = bytes[..HEADER_BYTES + 4].to_vec();
        stream.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(serve_batch(&mut stream, echo_server), 1);
        let ec = i32::from_le_bytes(stream[8..12].try_into().unwrap());
        assert_eq!(OraError::from_i32(ec), Some(OraError::MemError));
    }
}

#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::testutil::XorShift64;

    fn arb_event(rng: &mut XorShift64) -> Event {
        Event::from_u32(rng.range_i64(1, crate::event::EVENT_COUNT as i64 + 1) as u32).unwrap()
    }

    fn arb_request(rng: &mut XorShift64) -> Request {
        match rng.below(11) {
            0 => Request::Start,
            1 => Request::Stop,
            2 => Request::Pause,
            3 => Request::Resume,
            4 => {
                let event = arb_event(rng);
                let token = CallbackToken(rng.next_u64());
                Request::Register { event, token }
            }
            5 => Request::Unregister {
                event: arb_event(rng),
            },
            6 => Request::QueryState,
            7 => Request::QueryCurrentPrid,
            8 => Request::QueryParentPrid,
            9 => Request::QueryHealth,
            _ => Request::QueryCapabilities,
        }
    }

    /// Every encodable batch decodes to exactly the requests encoded, in
    /// order, and every record gets served.
    #[test]
    fn round_trip_requests() {
        let mut rng = XorShift64::new(0x6d65_7373_0001);
        for _ in 0..256 {
            let len = rng.range_usize(0, 16);
            let reqs: Vec<Request> = (0..len).map(|_| arb_request(&mut rng)).collect();
            let mut batch = RequestBatch::new(&reqs);
            let mut seen = Vec::new();
            let n = serve_batch(batch.as_mut_bytes(), |r| {
                seen.push(r);
                Ok(Response::Ack)
            });
            assert_eq!(n as usize, reqs.len());
            assert_eq!(seen, reqs);
        }
    }

    /// State responses round-trip for every state/wait-ID combination.
    #[test]
    fn round_trip_state_response() {
        let mut rng = XorShift64::new(0x6d65_7373_0002);
        for raw_state in 0..crate::state::STATE_COUNT as u32 {
            for _ in 0..32 {
                let id = rng.next_u64();
                let state = ThreadState::from_u32(raw_state).unwrap();
                let wait_id = state.wait_id_kind().map(|k| (k, id));
                let mut batch = RequestBatch::new(&[Request::QueryState]);
                serve_batch(batch.as_mut_bytes(), |_| {
                    Ok(Response::State { state, wait_id })
                });
                assert_eq!(batch.response(0), Ok(Response::State { state, wait_id }));
            }
        }
    }

    /// Health responses round-trip for arbitrary counter values.
    #[test]
    fn round_trip_health() {
        let mut rng = XorShift64::new(0x6d65_7373_0005);
        for _ in 0..256 {
            let h = ApiHealth {
                callback_panics: rng.next_u64(),
                callbacks_quarantined: rng.next_u64(),
                sequence_errors: rng.next_u64(),
                requests: rng.next_u64(),
                events_sampled: rng.next_u64(),
                events_skipped: rng.next_u64(),
                tasks_stolen: rng.next_u64(),
                task_overflows: rng.next_u64(),
                taskwait_parks: rng.next_u64(),
            };
            let mut batch = RequestBatch::new(&[Request::QueryHealth]);
            serve_batch(batch.as_mut_bytes(), |_| Ok(Response::Health(h)));
            assert_eq!(batch.response(0), Ok(Response::Health(h)));
        }
    }

    /// Region-ID responses round-trip for arbitrary IDs.
    #[test]
    fn round_trip_region_id() {
        let mut rng = XorShift64::new(0x6d65_7373_0003);
        for _ in 0..256 {
            let id = rng.next_u64();
            let mut batch = RequestBatch::new(&[Request::QueryCurrentPrid]);
            serve_batch(batch.as_mut_bytes(), |_| Ok(Response::RegionId(id)));
            assert_eq!(batch.response(0), Ok(Response::RegionId(id)));
        }
    }

    /// Serving never panics on arbitrary garbage buffers.
    #[test]
    fn serve_is_total_on_garbage() {
        let mut rng = XorShift64::new(0x6d65_7373_0004);
        for _ in 0..512 {
            let len = rng.range_usize(0, 256);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = serve_batch(&mut bytes, |_| Ok(Response::Ack));
        }
    }
}
