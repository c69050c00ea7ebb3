//! Typed collector requests, responses, and error codes.
//!
//! The wire-level interface is a single routine
//! `int __omp_collector_api(void *arg)` taking a byte array of one or more
//! request records ([`crate::message`]). This module defines the typed
//! vocabulary those records encode.

use crate::event::Event;
use crate::state::{ThreadState, WaitIdKind};

/// A callback handle used by the byte protocol.
///
/// The C interface passes raw function pointers inside the request payload.
/// In Rust the collector first registers a closure with the API
/// ([`crate::api::CollectorApi::intern_callback`]) and receives a token; the
/// wire record then carries the token. The typed API can skip the
/// indirection and pass the closure directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallbackToken(pub u64);

/// Request codes, mirroring `OMP_COLLECTORAPI_REQUEST`.
///
/// Discriminants are wire-stable.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestCode {
    /// `OMP_REQ_START`: initialize the API, start tracking states and IDs.
    Start = 1,
    /// `OMP_REQ_REGISTER`: register a callback for an event.
    Register = 2,
    /// `OMP_REQ_UNREGISTER`: remove the callback for an event.
    Unregister = 3,
    /// `OMP_REQ_STATE`: query the calling thread's current state (+wait ID).
    State = 4,
    /// `OMP_REQ_CURRENT_PRID`: query the current parallel region ID.
    CurrentPrid = 5,
    /// `OMP_REQ_PARENT_PRID`: query the parent parallel region ID.
    ParentPrid = 6,
    /// `OMP_REQ_STOP`: stop event generation and de-initialize.
    Stop = 7,
    /// `OMP_REQ_PAUSE`: suspend event generation (states keep updating).
    Pause = 8,
    /// `OMP_REQ_RESUME`: resume event generation after a pause.
    Resume = 9,
    /// `OMP_REQ_CAPABILITIES` (extension): query the bitmap of events the
    /// runtime can generate, so a collector can plan registrations in one
    /// round trip instead of probing for `UNSUPPORTED` per event.
    Capabilities = 10,
    /// `OMP_REQ_HEALTH` (extension): the one status reply ([`ApiHealth`]) —
    /// caught callback panics, quarantined callbacks, sequence errors,
    /// served requests, the governor's sampled/skipped counts and the task
    /// scheduler's counters. Answerable in every phase, like a state query.
    Health = 11,
}

/// Number of distinct request codes.
pub const REQUEST_CODE_COUNT: usize = 11;

/// All request codes in discriminant order.
pub const ALL_REQUEST_CODES: [RequestCode; REQUEST_CODE_COUNT] = [
    RequestCode::Start,
    RequestCode::Register,
    RequestCode::Unregister,
    RequestCode::State,
    RequestCode::CurrentPrid,
    RequestCode::ParentPrid,
    RequestCode::Stop,
    RequestCode::Pause,
    RequestCode::Resume,
    RequestCode::Capabilities,
    RequestCode::Health,
];

impl RequestCode {
    /// Decode a wire discriminant.
    pub const fn from_u32(raw: u32) -> Option<RequestCode> {
        if raw >= 1 && raw <= REQUEST_CODE_COUNT as u32 {
            Some(ALL_REQUEST_CODES[raw as usize - 1])
        } else {
            None
        }
    }

    /// The `OMP_REQ_*` constant name.
    pub const fn name(self) -> &'static str {
        match self {
            RequestCode::Start => "OMP_REQ_START",
            RequestCode::Register => "OMP_REQ_REGISTER",
            RequestCode::Unregister => "OMP_REQ_UNREGISTER",
            RequestCode::State => "OMP_REQ_STATE",
            RequestCode::CurrentPrid => "OMP_REQ_CURRENT_PRID",
            RequestCode::ParentPrid => "OMP_REQ_PARENT_PRID",
            RequestCode::Stop => "OMP_REQ_STOP",
            RequestCode::Pause => "OMP_REQ_PAUSE",
            RequestCode::Resume => "OMP_REQ_RESUME",
            RequestCode::Capabilities => "OMP_REQ_CAPABILITIES",
            RequestCode::Health => "OMP_REQ_HEALTH",
        }
    }
}

/// The fault-isolation counters carried by a [`Response::Health`].
///
/// All counters are lifetime totals of the queried API instance, so a
/// tool can watch deltas between two queries to detect *new* faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ApiHealth {
    /// Callback panics caught on the event dispatch path.
    pub callback_panics: u64,
    /// Callbacks quarantined (force-unregistered) after exhausting their
    /// panic budget.
    pub callbacks_quarantined: u64,
    /// Requests rejected with [`OraError::OutOfSequence`].
    pub sequence_errors: u64,
    /// Total requests served.
    pub requests: u64,
    /// Monitored events admitted to their callback. A callback unlinked
    /// between admission and invoke (an unregister, Stop or quarantine
    /// racing the dispatch) does not run, but its event still counts
    /// here. With the governor disarmed every monitored event is
    /// admitted; armed, `events_sampled + events_skipped` is the
    /// monitored total.
    pub events_sampled: u64,
    /// Monitored events the overhead governor sampled out.
    pub events_skipped: u64,
    /// Explicit tasks executed by a thread other than their spawner
    /// (work-stealing runtime; always 0 until a runtime reports).
    pub tasks_stolen: u64,
    /// Task spawns pushed onto a per-thread deque already `DEQUE_CAP`
    /// (256) deep; the task still lands on its spawner's deque.
    pub task_overflows: u64,
    /// Times a thread parked (instead of spinning) inside a taskwait or
    /// region-end task drain.
    pub taskwait_parks: u64,
}

impl ApiHealth {
    /// Whether any fault has ever been recorded.
    pub fn faulted(&self) -> bool {
        self.callback_panics > 0 || self.callbacks_quarantined > 0
    }
}

/// A fully decoded collector request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Initialize the collector API ("start keeping track of thread states,
    /// initialize the necessary storage classes (queues) … and start
    /// keeping track of different IDs", paper §IV-B).
    Start,
    /// Stop event generation; clears registrations and de-initializes.
    Stop,
    /// Temporarily suspend event generation.
    Pause,
    /// Resume event generation after [`Request::Pause`].
    Resume,
    /// Register `token`'s callback for `event`.
    Register {
        /// The event to monitor.
        event: Event,
        /// Handle of an interned callback.
        token: CallbackToken,
    },
    /// Unregister the callback for `event`.
    Unregister {
        /// The event to stop monitoring.
        event: Event,
    },
    /// Query the calling thread's state.
    QueryState,
    /// Query the ID of the parallel region the calling thread executes.
    QueryCurrentPrid,
    /// Query the parent region ID (0 for non-nested regions, paper §IV-E).
    QueryParentPrid,
    /// Query the supported-event bitmap (extension).
    QueryCapabilities,
    /// Query the fault-isolation health counters (extension).
    QueryHealth,
}

impl Request {
    /// The wire code this request serializes to.
    pub const fn code(&self) -> RequestCode {
        match self {
            Request::Start => RequestCode::Start,
            Request::Stop => RequestCode::Stop,
            Request::Pause => RequestCode::Pause,
            Request::Resume => RequestCode::Resume,
            Request::Register { .. } => RequestCode::Register,
            Request::Unregister { .. } => RequestCode::Unregister,
            Request::QueryState => RequestCode::State,
            Request::QueryCurrentPrid => RequestCode::CurrentPrid,
            Request::QueryParentPrid => RequestCode::ParentPrid,
            Request::QueryCapabilities => RequestCode::Capabilities,
            Request::QueryHealth => RequestCode::Health,
        }
    }
}

/// Error codes, mirroring `OMP_COLLECTORAPI_EC`.
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OraError {
    /// Generic failure.
    Error = 1,
    /// The request arrived out of sequence — e.g. two `Start`s without a
    /// `Stop` in between return this "out of sync" code (paper §IV-B), as
    /// does an ID query from outside any parallel region (paper §IV-E).
    OutOfSequence = 2,
    /// The request code was not recognized.
    UnknownRequest = 3,
    /// The event in a register/unregister request is not supported by this
    /// runtime (only fork/join support is mandatory).
    UnsupportedEvent = 4,
    /// A register request referenced a callback token never interned.
    UnknownCallback = 5,
    /// The request record was malformed (bad size, truncated payload).
    Malformed = 6,
    /// The response buffer in the record is too small for the reply.
    MemError = 7,
}

impl OraError {
    /// Decode a wire discriminant.
    pub const fn from_i32(raw: i32) -> Option<OraError> {
        match raw {
            1 => Some(OraError::Error),
            2 => Some(OraError::OutOfSequence),
            3 => Some(OraError::UnknownRequest),
            4 => Some(OraError::UnsupportedEvent),
            5 => Some(OraError::UnknownCallback),
            6 => Some(OraError::Malformed),
            7 => Some(OraError::MemError),
            _ => None,
        }
    }

    /// The `OMP_ERRCODE_*`-style name.
    pub const fn name(self) -> &'static str {
        match self {
            OraError::Error => "OMP_ERRCODE_ERROR",
            OraError::OutOfSequence => "OMP_ERRCODE_SEQUENCE_ERR",
            OraError::UnknownRequest => "OMP_ERRCODE_UNKNOWN",
            OraError::UnsupportedEvent => "OMP_ERRCODE_UNSUPPORTED",
            OraError::UnknownCallback => "OMP_ERRCODE_UNKNOWN_CALLBACK",
            OraError::Malformed => "OMP_ERRCODE_MALFORMED",
            OraError::MemError => "OMP_ERRCODE_MEM_ERROR",
        }
    }
}

impl std::fmt::Display for OraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for OraError {}

/// Result alias used throughout the API.
pub type OraResult<T> = Result<T, OraError>;

/// A decoded response to a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded and carries no payload.
    Ack,
    /// Reply to [`Request::QueryState`]: the state plus, for waiting
    /// states, the kind and value of the wait ID ("we return the value of
    /// a barrier ID or lock ID after the event type in the mem section",
    /// paper §IV-D).
    State {
        /// Current thread state.
        state: ThreadState,
        /// Wait-ID counter value, when `state` has one.
        wait_id: Option<(WaitIdKind, u64)>,
    },
    /// Reply to a region-ID query.
    RegionId(u64),
    /// Reply to [`Request::QueryHealth`]: fault-isolation counters.
    Health(ApiHealth),
    /// Reply to [`Request::QueryCapabilities`]: bit `i` set means the
    /// event with [`crate::event::Event::index`] `i` is supported.
    Capabilities(u64),
}

impl Response {
    /// The region ID carried by a [`Response::RegionId`], if any.
    pub fn region_id(&self) -> Option<u64> {
        match self {
            Response::RegionId(id) => Some(*id),
            _ => None,
        }
    }

    /// The state carried by a [`Response::State`], if any.
    pub fn state(&self) -> Option<ThreadState> {
        match self {
            Response::State { state, .. } => Some(*state),
            _ => None,
        }
    }

    /// The counters carried by a [`Response::Health`], if any.
    pub fn health(&self) -> Option<ApiHealth> {
        match self {
            Response::Health(h) => Some(*h),
            _ => None,
        }
    }

    /// The supported events decoded from a [`Response::Capabilities`].
    pub fn supported_events(&self) -> Option<Vec<Event>> {
        match self {
            Response::Capabilities(bits) => Some(
                crate::event::ALL_EVENTS
                    .iter()
                    .copied()
                    .filter(|e| bits & (1u64 << e.index()) != 0)
                    .collect(),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codes_round_trip() {
        for c in ALL_REQUEST_CODES {
            assert_eq!(RequestCode::from_u32(c as u32), Some(c));
        }
        assert_eq!(RequestCode::from_u32(0), None);
        assert_eq!(RequestCode::from_u32(REQUEST_CODE_COUNT as u32 + 1), None);
        assert_eq!(RequestCode::from_u32(100), None);
    }

    #[test]
    fn errors_round_trip() {
        for raw in 1..=7 {
            let e = OraError::from_i32(raw).unwrap();
            assert_eq!(e as i32, raw);
        }
        assert_eq!(OraError::from_i32(0), None);
        assert_eq!(OraError::from_i32(8), None);
    }

    #[test]
    fn request_maps_to_expected_code() {
        assert_eq!(Request::Start.code(), RequestCode::Start);
        assert_eq!(
            Request::Register {
                event: Event::Fork,
                token: CallbackToken(7)
            }
            .code(),
            RequestCode::Register
        );
        assert_eq!(Request::QueryState.code(), RequestCode::State);
        assert_eq!(Request::QueryParentPrid.code(), RequestCode::ParentPrid);
        assert_eq!(Request::QueryHealth.code(), RequestCode::Health);
    }

    #[test]
    fn response_accessors() {
        assert_eq!(Response::RegionId(42).region_id(), Some(42));
        assert_eq!(Response::Ack.region_id(), None);
        let s = Response::State {
            state: ThreadState::Working,
            wait_id: None,
        };
        assert_eq!(s.state(), Some(ThreadState::Working));
        assert_eq!(s.region_id(), None);
    }
}
