//! # ora-core — The OpenMP Runtime API for Profiling
//!
//! This crate implements the "OpenMP Runtime API for Profiling" (ORA), the
//! query- and event-notification interface sanctioned by the OpenMP ARB
//! tools committee and described in the Sun white paper and in the ICPP
//! 2009 paper this repository reproduces. ORA lets a performance tool (the
//! *collector*) communicate bi-directionally with an OpenMP runtime
//! without either side knowing the other's internals:
//!
//! * the runtime exports a **single entry point** taking a byte array of
//!   request records ([`message`]), read through the one bounds-checked
//!   cursor every decoder of outside bytes uses ([`bytes`]);
//! * the collector sends **lifecycle requests** (start / pause / resume /
//!   stop), **event registrations** with callbacks, and **queries** for the
//!   calling thread's state (+ wait ID) and the current/parent parallel
//!   region IDs ([`request`]);
//! * the runtime fires **events** ([`event`]) through a shared lock-free
//!   callback table ([`registry`], RCU publication via [`rcu`]) and tracks
//!   **thread states** ([`state`]) at one relaxed store per transition;
//!   every per-thread structure is keyed by the calling thread's slot
//!   ([`thread`]).
//!
//! The [`api::CollectorApi`] ties these together; an OpenMP runtime embeds
//! one instance and exposes [`api::CollectorApi::handle_bytes`] as its
//! `__omp_collector_api` symbol (see the `omprt` crate for the runtime and
//! the `psx` crate for symbol export/discovery).
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use ora_core::api::CollectorApi;
//! use ora_core::event::Event;
//! use ora_core::registry::EventData;
//! use ora_core::request::{Request, Response};
//!
//! let api = CollectorApi::new();
//! // Collector side: start, then register a fork callback.
//! api.handle_request(Request::Start).unwrap();
//! let token = api.intern_callback(Arc::new(|d: &EventData| {
//!     println!("fork in region {}", d.region_id);
//! }));
//! api.handle_request(Request::Register { event: Event::Fork, token }).unwrap();
//!
//! // Runtime side: fire the event at the fork point.
//! api.event(&EventData::bare(Event::Fork, 0));
//! # assert_eq!(api.health().events_sampled, 1);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod bytes;
pub mod clock;
pub mod event;
pub mod governor;
pub mod message;
pub mod pad;
pub mod park;
pub mod rcu;
pub mod registry;
pub mod request;
pub mod state;
pub mod stats;
pub mod sync;
pub mod testutil;
pub mod thread;

pub use api::{CollectorApi, Phase, RuntimeInfoProvider};
pub use event::{Event, ALL_EVENTS, EVENT_COUNT};
pub use governor::{
    Admit, Governor, GovernorClock, GovernorConfig, GovernorDecision, GovernorStatus,
};
pub use pad::CachePadded;
pub use park::EventCount;
pub use registry::{Callback, CallbackRegistry, EventData, FaultStats};
pub use request::{ApiHealth, CallbackToken, OraError, OraResult, Request, RequestCode, Response};
pub use state::{StateCell, ThreadState, WaitId, WaitIdKind, ALL_STATES, STATE_COUNT};

/// The canonical symbol name under which an OpenMP runtime exports its
/// collector entry point, and which a collector resolves at startup
/// ("the collector may then query the dynamic linker to determine whether
/// the symbol is present", paper §IV).
pub const COLLECTOR_API_SYMBOL: &str = "__omp_collector_api";
