//! Runtime discovery — the LD_PRELOAD init-section handshake.
//!
//! "The tool is a shared object that is LD_PRELOAD'ed to the target's
//! address space. It includes an init section that queries the runtime
//! linker for the presence of the OpenMP API symbol. If the symbol is
//! present, the tool initiates a start request…" (paper §V)
//!
//! [`RuntimeHandle`] is that init section: it resolves the exported
//! `__omp_collector_api` entry point (canonical or instance-qualified) and
//! drives it exclusively through the byte protocol, so a collector built
//! on this module shares no types with the runtime beyond `ora-core`.

use std::cell::Cell;
use std::sync::Arc;

use ora_core::api::CollectorApi;
use ora_core::event::{Event, ALL_EVENTS};
use ora_core::governor::{GovernorConfig, GovernorDecision, GovernorStatus};
use ora_core::message::RequestBatch;
use ora_core::registry::Callback;
use ora_core::request::{ApiHealth, CallbackToken, OraError, OraResult, Request, Response};
use ora_core::state::{ThreadState, WaitIdKind};
use ora_core::COLLECTOR_API_SYMBOL;
use psx::dynsym::{self, CollectorEntry};

/// A resolved connection to one OpenMP runtime's collector entry point.
#[derive(Clone)]
pub struct RuntimeHandle {
    symbol: String,
    entry: CollectorEntry,
    api: Arc<CollectorApi>,
}

impl RuntimeHandle {
    /// Resolve the canonical `__omp_collector_api` symbol — what a
    /// preloaded tool does at startup. `None` means no ORA-capable OpenMP
    /// runtime is loaded, and the tool should stand down.
    pub fn discover() -> Option<RuntimeHandle> {
        Self::discover_named(COLLECTOR_API_SYMBOL)
    }

    /// Resolve a specific exported symbol (instance-qualified names let
    /// one process host several runtimes, e.g. the multi-zone rank
    /// simulation).
    pub fn discover_named(symbol: &str) -> Option<RuntimeHandle> {
        let entry = dynsym::lookup(symbol)?;
        let api = dynsym::objects::lookup::<CollectorApi>(&format!("{symbol}.api"))?;
        Some(RuntimeHandle {
            symbol: symbol.to_string(),
            entry,
            api,
        })
    }

    /// The symbol this handle resolved.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }

    /// Serve `batch` in place through the entry point — the one serve
    /// path. A stream the runtime did not walk to its end fails as a
    /// whole: no record of it was answered, whatever its bytes still say.
    fn serve(&self, batch: &mut RequestBatch) -> OraResult<()> {
        let n = (self.entry)(batch.as_mut_bytes());
        if usize::try_from(n) == Ok(batch.len()) {
            Ok(())
        } else {
            Err(OraError::Malformed)
        }
    }

    /// Send a batch of requests through the byte protocol and decode the
    /// per-request results.
    pub fn request(&self, requests: &[Request]) -> Vec<OraResult<Response>> {
        let mut batch = RequestBatch::new(requests);
        match self.serve(&mut batch) {
            Ok(()) => batch.responses(),
            Err(e) => requests.iter().map(|_| Err(e)).collect(),
        }
    }

    /// `OMP_REQ_STATE` for the calling thread: the calling thread's
    /// state and wait ID, through the same bytes and entry point as
    /// [`request`](Self::request) but allocation-free. Each thread keeps
    /// one pre-encoded single-record batch and re-serves it in place; a
    /// batch whose serve failed is dropped, so the next query re-encodes
    /// and a failure never returns an earlier answer.
    pub fn query_state(&self) -> OraResult<(ThreadState, Option<(WaitIdKind, u64)>)> {
        thread_local! {
            static STATE_QUERY: Cell<Option<RequestBatch>> = const { Cell::new(None) };
        }
        let mut batch = STATE_QUERY
            .take()
            .unwrap_or_else(|| RequestBatch::new(&[Request::QueryState]));
        self.serve(&mut batch)?;
        let Response::State { state, wait_id } = batch.response(0)? else {
            return Err(OraError::Error);
        };
        STATE_QUERY.set(Some(batch));
        Ok((state, wait_id))
    }

    /// Send a single request.
    pub fn request_one(&self, request: Request) -> OraResult<Response> {
        self.request(&[request]).pop().expect("one response")
    }

    /// Intern a callback with the runtime, returning the token to put in a
    /// register request — the stand-in for the function pointer the C
    /// interface passes in the request payload.
    pub fn intern_callback(&self, cb: Callback) -> CallbackToken {
        self.api.intern_callback(cb)
    }

    /// Convenience: intern and register `cb` for `event` in one step.
    /// Returns the token so the caller can later [`unregister`] the event
    /// and [`forget_callback`] the interned entry — discarding it leaks
    /// the registration for the life of the runtime. Collectors register
    /// through a [`Registrations`] guard, which does both for them.
    ///
    /// [`unregister`]: RuntimeHandle::unregister
    /// [`forget_callback`]: RuntimeHandle::forget_callback
    pub fn register(&self, event: Event, cb: Callback) -> OraResult<CallbackToken> {
        let token = self.intern_callback(cb);
        match self.request_one(Request::Register { event, token }) {
            Ok(_) => Ok(token),
            Err(e) => {
                self.forget_callback(token);
                Err(e)
            }
        }
    }

    /// Remove the callback registered for `event`.
    pub fn unregister(&self, event: Event) -> OraResult<()> {
        self.request_one(Request::Unregister { event }).map(|_| ())
    }

    /// Drop an interned callback token. Returns whether it was known.
    pub fn forget_callback(&self, token: CallbackToken) -> bool {
        self.api.forget_callback(token)
    }

    /// The events this runtime can generate, from its capabilities
    /// bitmap — one round trip instead of per-event `UNSUPPORTED`
    /// probing. A runtime that cannot answer is offered every event.
    pub fn supported_events(&self) -> Vec<Event> {
        self.request_one(Request::QueryCapabilities)
            .ok()
            .and_then(|resp| resp.supported_events())
            .unwrap_or_else(|| ALL_EVENTS.to_vec())
    }

    /// Query the runtime's fault-isolation counters (`OMP_REQ_HEALTH`,
    /// answerable in every phase).
    pub fn query_health(&self) -> OraResult<ApiHealth> {
        match self.request_one(Request::QueryHealth)? {
            Response::Health(h) => Ok(h),
            _ => Err(OraError::Error),
        }
    }

    /// Install and arm the adaptive overhead governor on the runtime's
    /// monitored dispatch path (the `governed` collector rung).
    /// Installation is a local control operation, not a wire request —
    /// the clock closure in [`GovernorConfig`] cannot cross the byte
    /// protocol.
    pub fn install_governor(&self, config: GovernorConfig) {
        self.api.install_governor(config);
    }

    /// Disarm the governor, restoring ungoverned monitored dispatch.
    /// Lifetime counters survive, so a post-run [`query_governor`]
    /// still reconciles.
    ///
    /// [`query_governor`]: RuntimeHandle::query_governor
    pub fn uninstall_governor(&self) {
        self.api.uninstall_governor();
    }

    /// The governor's budget/overhead snapshot, read in-process like
    /// the install, uninstall and decision calls beside it: only an
    /// in-process caller can arm a governor, so the byte protocol has no
    /// governor request (its sampled/skipped counts travel in
    /// [`query_health`](RuntimeHandle::query_health)). Never fails.
    pub fn query_governor(&self) -> OraResult<GovernorStatus> {
        Ok(self.api.governor().status())
    }

    /// Drain the governor's accumulated sampling-rate decisions (the
    /// retune log the governed rung persists into the trace).
    pub fn take_governor_decisions(&self) -> Vec<GovernorDecision> {
        self.api.governor().take_decisions()
    }
}

/// The event registrations one collector attachment made, and the only
/// owner of the [`CallbackToken`]s behind them.
///
/// An interned callback lives in the runtime's token table until it is
/// forgotten; a collector that drops its tokens pins whatever its
/// callbacks captured — a tracer's whole ring set, or (through a captured
/// [`RuntimeHandle`]) the `CollectorApi` itself — for the life of the
/// runtime. This guard releases them: [`stop`](Registrations::stop) on
/// the collector's `finish` path, [`release`](Registrations::release) (also
/// run on drop) for an attachment abandoned while collection is live.
#[must_use = "dropping the guard unregisters its callbacks"]
pub struct Registrations {
    handle: RuntimeHandle,
    held: Vec<(Event, CallbackToken)>,
}

impl Registrations {
    /// An empty guard registering through `handle`.
    pub fn new(handle: RuntimeHandle) -> Registrations {
        Registrations {
            handle,
            held: Vec::new(),
        }
    }

    /// The handle registrations go through.
    pub fn handle(&self) -> &RuntimeHandle {
        &self.handle
    }

    /// Register `cb` for `event` and take ownership of its token.
    pub fn register(&mut self, event: Event, cb: Callback) -> OraResult<()> {
        let token = self.handle.register(event, cb)?;
        self.held.push((event, token));
        Ok(())
    }

    /// [`register`](Self::register), except that an event the runtime
    /// does not implement is skipped rather than reported (the paper's
    /// runtime rejects atomic-wait events, for instance).
    pub fn register_if_supported(&mut self, event: Event, cb: Callback) -> OraResult<()> {
        match self.register(event, cb) {
            Err(OraError::UnsupportedEvent) => Ok(()),
            other => other,
        }
    }

    /// Send `OMP_REQ_STOP` — which clears every registration on the
    /// runtime side — then forget the tokens. A runtime that was already
    /// stopped refuses the request; the tokens are forgotten either way.
    pub fn stop(&mut self) {
        let _ = self.handle.request_one(Request::Stop);
        for (_, token) in self.held.drain(..) {
            self.handle.forget_callback(token);
        }
    }

    /// Unregister every held event and forget its token, leaving the
    /// collection phase alone. Idempotent; returns how many registrations
    /// were released. Errors from an already-stopped runtime (which
    /// clears registrations itself) are ignored.
    pub fn release(&mut self) -> usize {
        let n = self.held.len();
        for (event, token) in self.held.drain(..) {
            let _ = self.handle.unregister(event);
            self.handle.forget_callback(token);
        }
        n
    }
}

impl Drop for Registrations {
    fn drop(&mut self) {
        self.release();
    }
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("symbol", &self.symbol)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_fails_cleanly_without_a_runtime() {
        assert!(RuntimeHandle::discover_named("__no_runtime_here__").is_none());
    }
}
