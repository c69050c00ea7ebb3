//! The collector API state machine.
//!
//! One [`CollectorApi`] instance lives inside each OpenMP runtime instance
//! and backs its exported `__omp_collector_api` entry point. It owns the
//! callback table, the init/pause/resume/stop lifecycle (including the
//! "out of sync" error on a second `Start` without an intervening `Stop`,
//! paper §IV-B), the per-thread request counts, and the event-dispatch
//! fast path with the paper's check ordering.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::Event;
use crate::governor::{Admit, Governor, GovernorConfig};
use crate::message;
use crate::registry::{Callback, CallbackRegistry, EventData};
use crate::request::{ApiHealth, CallbackToken, OraError, OraResult, Request, Response};
use crate::state::{ThreadState, WaitIdKind};
use crate::sync::Mutex;

/// What the runtime must answer on behalf of the API.
///
/// The API is runtime-agnostic; a runtime registers a provider so that
/// state and region-ID queries can be answered from its thread descriptors
/// and team structures.
pub trait RuntimeInfoProvider: Send + Sync {
    /// The calling thread's current state plus its wait ID when the state
    /// has one (paper §IV-D).
    fn thread_state(&self) -> (ThreadState, Option<(WaitIdKind, u64)>);

    /// The ID of the parallel region the calling thread is executing.
    /// Outside any region this is an out-of-sequence error (paper §IV-E).
    fn current_region_id(&self) -> OraResult<u64>;

    /// The parent region ID — always 0 for non-nested regions.
    fn parent_region_id(&self) -> OraResult<u64>;

    /// Whether this runtime can generate `event`. Only fork and join are
    /// mandatory; optional events a runtime does not implement must be
    /// rejected at registration time.
    fn supports_event(&self, event: Event) -> bool {
        let _ = event;
        true
    }
}

/// Lifecycle phase of the collector API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not initialized; events never fire, registrations are rejected.
    Inactive,
    /// Initialized and generating events.
    Active,
    /// Initialized but event generation is suspended. State tracking
    /// continues (it is always on in this implementation, paper §IV-C).
    Paused,
}

/// Task-runtime scheduler counters the runtime deposits after each
/// parallel region, served through [`ApiHealth`]. Lifetime totals, like
/// every other health counter, so tools can watch deltas.
#[derive(Debug, Default)]
pub struct RuntimeTaskStats {
    /// Tasks executed by a thread other than their spawner.
    pub stolen: AtomicU64,
    /// Spawns pushed onto a per-thread deque already `DEQUE_CAP` deep.
    pub overflows: AtomicU64,
    /// Threads parking (not spinning) in taskwait / region-end drains.
    pub parks: AtomicU64,
}

impl RuntimeTaskStats {
    /// Fold one region's scheduler counters into the lifetime totals.
    pub fn absorb(&self, stolen: u64, overflows: u64, parks: u64) {
        if stolen > 0 {
            self.stolen.fetch_add(stolen, Ordering::Relaxed);
        }
        if overflows > 0 {
            self.overflows.fetch_add(overflows, Ordering::Relaxed);
        }
        if parks > 0 {
            self.parks.fetch_add(parks, Ordering::Relaxed);
        }
    }
}

/// The collector API: callback table + lifecycle + request service.
pub struct CollectorApi {
    phase: Mutex<Phase>,
    /// Fast-path flag: `initialized && !paused`. Checked second on the
    /// event path, after the per-event registration flag.
    active: AtomicBool,
    registry: CallbackRegistry,
    tokens: Mutex<HashMap<u64, Callback>>,
    next_token: AtomicU64,
    provider: OnceLock<Arc<dyn RuntimeInfoProvider>>,
    /// Requests rejected with [`OraError::OutOfSequence`].
    sequence_errors: AtomicU64,
    /// The dispatch mask, the per-thread lanes (delivery and request
    /// counts) and the adaptive sampling feedback loop. Always present
    /// (the mask is the fast path's first check); only *armed* under the
    /// governed collector rung.
    governor: Governor,
    /// Scheduler counters deposited by the task runtime (see
    /// [`RuntimeTaskStats`]).
    task_stats: RuntimeTaskStats,
}

impl Default for CollectorApi {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectorApi {
    /// A fresh, inactive API instance.
    pub fn new() -> Self {
        CollectorApi {
            phase: Mutex::new(Phase::Inactive),
            active: AtomicBool::new(false),
            registry: CallbackRegistry::new(),
            tokens: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            provider: OnceLock::new(),
            sequence_errors: AtomicU64::new(0),
            governor: Governor::new(),
            task_stats: RuntimeTaskStats::default(),
        }
    }

    /// The task-scheduler counter sink the runtime deposits into.
    pub fn task_stats(&self) -> &RuntimeTaskStats {
        &self.task_stats
    }

    /// Install the runtime's info provider (done once, when the runtime
    /// wires itself to the API). A second install is refused as out of
    /// sequence and leaves the first provider in place.
    pub fn set_provider(&self, provider: Arc<dyn RuntimeInfoProvider>) -> OraResult<()> {
        self.provider
            .set(provider)
            .map_err(|_| OraError::OutOfSequence)
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        *self.phase.lock()
    }

    /// Whether events currently fire (initialized and not paused).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// The health summary served to [`Request::QueryHealth`]: lifetime
    /// totals. The fault counters come from the registry's atomics, so
    /// this reflects panics caught on other threads' dispatch paths up to
    /// the moment of the call; `requests` is the sum of the per-thread
    /// request counts.
    pub fn health(&self) -> ApiHealth {
        let faults = self.registry.fault_stats();
        ApiHealth {
            callback_panics: faults.callback_panics,
            callbacks_quarantined: faults.callbacks_quarantined,
            sequence_errors: self.sequence_errors.load(Ordering::Relaxed),
            requests: self.governor.requests(),
            events_sampled: self.governor.events_sampled(),
            events_skipped: self.governor.events_skipped(),
            tasks_stolen: self.task_stats.stolen.load(Ordering::Relaxed),
            task_overflows: self.task_stats.overflows.load(Ordering::Relaxed),
            taskwait_parks: self.task_stats.parks.load(Ordering::Relaxed),
        }
    }

    /// Panic budget per registered callback before quarantine (see
    /// [`CallbackRegistry::set_quarantine_threshold`]).
    pub fn set_quarantine_threshold(&self, n: u64) {
        self.registry.set_quarantine_threshold(n);
    }

    /// Served requests per thread slot ([`crate::thread::slot`]).
    ///
    /// "Future requests to the API are pushed onto a queue associated with
    /// a thread. In this manner, we were able to avoid the contention
    /// otherwise incurred if a single global queue processed requests."
    /// (paper §IV-B) Requests are served inline on the calling thread, so
    /// what its queue keeps is its served count, on the thread's own
    /// governor lane: a state query writes no line another thread writes.
    /// Its sum is [`ApiHealth::requests`].
    pub fn lane_distribution(&self) -> Vec<u64> {
        self.governor.requests_per_slot()
    }

    /// Intern a callback, obtaining the token the byte protocol carries in
    /// register requests (the Rust stand-in for the C function pointer).
    pub fn intern_callback(&self, cb: Callback) -> CallbackToken {
        let id = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.tokens.lock().insert(id, cb);
        CallbackToken(id)
    }

    /// Drop an interned callback. Does not unregister events that already
    /// resolved the token.
    pub fn forget_callback(&self, token: CallbackToken) -> bool {
        self.tokens.lock().remove(&token.0).is_some()
    }

    /// Serve a single typed request.
    pub fn handle_request(&self, request: Request) -> OraResult<Response> {
        let result = self.serve_one(request);
        self.governor.count_requests(1);
        result
    }

    /// The byte-protocol entry point: the body of `__omp_collector_api`.
    /// Returns the number of records processed, or -1 on a malformed
    /// stream.
    pub fn handle_bytes(&self, buf: &mut [u8]) -> i32 {
        // Every record whose `ec` is written counts, refused ones and
        // those before a malformed tail included.
        let (n, served) = message::serve_stream(buf, |req| self.serve_one(req));
        self.governor.count_requests(served);
        n
    }

    /// Convenience: typed registration without token interning.
    pub fn register_callback(&self, event: Event, cb: Callback) -> OraResult<()> {
        let token = self.intern_callback(cb);
        self.handle_request(Request::Register { event, token })
            .map(|_| ())
    }

    fn serve_one(&self, req: Request) -> OraResult<Response> {
        let result = self.serve_inner(req);
        if result.is_ok()
            && matches!(
                req,
                Request::Start
                    | Request::Stop
                    | Request::Pause
                    | Request::Resume
                    | Request::Register { .. }
                    | Request::Unregister { .. }
            )
        {
            // Every lifecycle or registration transition republishes the
            // dispatch mask (the RCU-style analogue of the
            // registry's own publication): clear bits are exact at each
            // republish point, and a transiently stale *set* bit is safe
            // because the monitored path re-checks the registry.
            self.republish_mask();
        }
        // Out-of-sequence errors are the only requests counted on a
        // shared line; every served request counts on its thread's lane.
        if matches!(result, Err(OraError::OutOfSequence)) {
            self.sequence_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn serve_inner(&self, req: Request) -> OraResult<Response> {
        match req {
            Request::Start | Request::Stop | Request::Pause | Request::Resume => {
                let mut phase = self.phase.lock();
                let next = match (req, *phase) {
                    // "If two requests for initialization are made without
                    // a stop request in-between, an 'out of sync' error
                    // code is returned." (paper §IV-B)
                    (Request::Start, Phase::Inactive) => Phase::Active,
                    (Request::Stop, Phase::Active | Phase::Paused) => Phase::Inactive,
                    (Request::Pause, Phase::Active) => Phase::Paused,
                    (Request::Resume, Phase::Paused) => Phase::Active,
                    _ => return Err(OraError::OutOfSequence),
                };
                *phase = next;
                self.active.store(next == Phase::Active, Ordering::Release);
                if next == Phase::Inactive {
                    self.registry.clear();
                }
                Ok(Response::Ack)
            }
            Request::Register { event, token } => {
                {
                    let phase = self.phase.lock();
                    if *phase == Phase::Inactive {
                        return Err(OraError::OutOfSequence);
                    }
                }
                if let Some(p) = self.provider.get() {
                    if !p.supports_event(event) {
                        return Err(OraError::UnsupportedEvent);
                    }
                }
                let cb = self
                    .tokens
                    .lock()
                    .get(&token.0)
                    .cloned()
                    .ok_or(OraError::UnknownCallback)?;
                self.registry.register(event, cb);
                Ok(Response::Ack)
            }
            Request::Unregister { event } => {
                let phase = self.phase.lock();
                if *phase == Phase::Inactive {
                    return Err(OraError::OutOfSequence);
                }
                drop(phase);
                self.registry.unregister(event);
                Ok(Response::Ack)
            }
            Request::QueryState => {
                // "We made sure that this type of request could be
                // requested at any given point during the execution of the
                // program." (paper §IV-D) — no phase gating.
                let p = self.provider.get().ok_or(OraError::Error)?;
                let (state, wait_id) = p.thread_state();
                Ok(Response::State { state, wait_id })
            }
            Request::QueryCurrentPrid => {
                let p = self.provider.get().ok_or(OraError::Error)?;
                p.current_region_id().map(Response::RegionId)
            }
            Request::QueryParentPrid => {
                let p = self.provider.get().ok_or(OraError::Error)?;
                p.parent_region_id().map(Response::RegionId)
            }
            Request::QueryHealth => {
                // Like state queries, health must be answerable at any
                // point — a tool diagnosing a degraded collector cannot
                // be told "out of sequence". No phase gating.
                Ok(Response::Health(self.health()))
            }
            Request::QueryCapabilities => {
                let bits = match self.provider.get() {
                    Some(p) => crate::event::ALL_EVENTS
                        .iter()
                        .filter(|e| p.supports_event(**e))
                        .fold(0u64, |acc, e| acc | (1u64 << e.index())),
                    // Without a provider the API itself supports all.
                    None => (1u64 << crate::event::EVENT_COUNT) - 1,
                };
                Ok(Response::Capabilities(bits))
            }
        }
    }

    /// The event-notification fast path, called from every event point in
    /// the runtime (`__ompc_event` in the paper).
    ///
    /// The first check is one relaxed load of the governor's cache-padded
    /// dispatch mask — a fully-unsubscribed event kind costs a single
    /// branch on a line no thread writes between transitions. Only when
    /// the mask bit is set does the monitored path run, which preserves
    /// the paper's ordering: "The ordering of the checks is important to
    /// avoid unnecessary checking if no callback has been registered for
    /// an event (which is possible if the OpenMP Collector API has not
    /// been initialized)." (paper §IV-C) — the per-event registration
    /// flag is re-tested first (masks can be transiently stale-set),
    /// then the initialized-and-not-paused flag, then the governor
    /// admits or samples out the event, and only then is the callback
    /// fetched and invoked.
    #[inline]
    pub fn event(&self, data: &EventData) {
        if self.governor.current_mask() & (1u64 << data.event.index()) == 0 {
            return;
        }
        self.event_monitored(data);
    }

    /// The monitored half of [`CollectorApi::event`], entered only when
    /// the mask says the event is registered and collection active.
    fn event_monitored(&self, data: &EventData) {
        if !self.registry.is_registered(data.event) {
            return;
        }
        if !self.active.load(Ordering::Acquire) {
            return;
        }
        match self.governor.admit(self.governor.local_lane(), data.event) {
            Admit::Skip => {}
            Admit::Sample => {
                self.registry.invoke(data);
            }
            Admit::SampleTimed => {
                let clock = self.governor.clock();
                let start = clock();
                self.registry.invoke(data);
                let end = clock();
                self.governor.record_cost(end.saturating_sub(start));
            }
        }
    }

    /// Install and arm the overhead governor: adopt the budget and clock
    /// from `config`, calibrate the unmonitored baseline cost on the
    /// live fast path, and start sampling-rate feedback. Used by the
    /// governed collector rung.
    pub fn install_governor(&self, config: GovernorConfig) {
        self.governor.prepare(config);
        let baseline = self.calibrate_baseline();
        self.governor.arm(baseline);
    }

    /// Disarm the governor: sampling stops (every monitored event is
    /// delivered again). Lifetime sampled/skipped totals remain visible
    /// in health.
    pub fn uninstall_governor(&self) {
        self.governor.uninstall();
    }

    /// Direct access to the governor (its status snapshot, decision
    /// draining, diagnostics).
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    fn republish_mask(&self) {
        let mask = if self.active.load(Ordering::Acquire) {
            self.registry.registered_bits()
        } else {
            0
        };
        self.governor.publish_mask(mask);
    }

    /// Time the unmonitored fast path (a masked-out probe event) with
    /// the governor clock, reducing the samples to their outlier-robust
    /// median. Reported as `GovernorStatus::baseline_milliticks` beside
    /// the monitored cost; the governor's planning reads only the
    /// monitored cost.
    fn calibrate_baseline(&self) -> f64 {
        let mask = self.governor.current_mask();
        let Some(probe) = crate::event::ALL_EVENTS
            .iter()
            .copied()
            .find(|e| mask & (1u64 << e.index()) == 0)
        else {
            return 0.0; // every event masked in: nothing safe to probe
        };
        let data = EventData::bare(probe, 0);
        let clock = self.governor.clock();
        const BATCH: u32 = 256;
        const SAMPLES: usize = 16;
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = clock();
            for _ in 0..BATCH {
                self.event(std::hint::black_box(&data));
            }
            let end = clock();
            samples.push(end.saturating_sub(start) as f64 / f64::from(BATCH));
        }
        crate::stats::robust_median(&samples, crate::stats::MAD_K, crate::stats::MIN_KEEP)
    }

    /// Direct access to the callback table (diagnostics and tests).
    pub fn registry(&self) -> &CallbackRegistry {
        &self.registry
    }
}

impl std::fmt::Debug for CollectorApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorApi")
            .field("phase", &self.phase())
            .field("registered", &self.registry.registered_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct FakeProvider {
        in_region: AtomicBool,
    }

    impl FakeProvider {
        fn new() -> Arc<Self> {
            Arc::new(FakeProvider {
                in_region: AtomicBool::new(false),
            })
        }
    }

    impl RuntimeInfoProvider for FakeProvider {
        fn thread_state(&self) -> (ThreadState, Option<(WaitIdKind, u64)>) {
            (ThreadState::Serial, None)
        }
        fn current_region_id(&self) -> OraResult<u64> {
            if self.in_region.load(Ordering::SeqCst) {
                Ok(9)
            } else {
                Err(OraError::OutOfSequence)
            }
        }
        fn parent_region_id(&self) -> OraResult<u64> {
            if self.in_region.load(Ordering::SeqCst) {
                Ok(0)
            } else {
                Err(OraError::OutOfSequence)
            }
        }
        fn supports_event(&self, event: Event) -> bool {
            // Mimic the paper's runtime: atomic wait events unimplemented.
            !matches!(
                event,
                Event::ThreadBeginAtomicWait | Event::ThreadEndAtomicWait
            )
        }
    }

    fn armed_api() -> (CollectorApi, Arc<AtomicUsize>) {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let token = api.intern_callback(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        api.handle_request(Request::Register {
            event: Event::Fork,
            token,
        })
        .unwrap();
        (api, hits)
    }

    #[test]
    fn double_start_is_out_of_sync() {
        let api = CollectorApi::new();
        assert_eq!(api.handle_request(Request::Start), Ok(Response::Ack));
        assert_eq!(
            api.handle_request(Request::Start),
            Err(OraError::OutOfSequence)
        );
        // After a stop, start is legal again.
        assert_eq!(api.handle_request(Request::Stop), Ok(Response::Ack));
        assert_eq!(api.handle_request(Request::Start), Ok(Response::Ack));
        assert_eq!(api.health().sequence_errors, 1);
        assert_eq!(api.phase(), Phase::Active);
    }

    #[test]
    fn lifecycle_transitions() {
        let api = CollectorApi::new();
        assert_eq!(api.phase(), Phase::Inactive);
        assert_eq!(
            api.handle_request(Request::Pause),
            Err(OraError::OutOfSequence)
        );
        assert_eq!(
            api.handle_request(Request::Resume),
            Err(OraError::OutOfSequence)
        );
        assert_eq!(
            api.handle_request(Request::Stop),
            Err(OraError::OutOfSequence)
        );
        api.handle_request(Request::Start).unwrap();
        assert_eq!(api.phase(), Phase::Active);
        assert!(api.is_active());
        api.handle_request(Request::Pause).unwrap();
        assert_eq!(api.phase(), Phase::Paused);
        assert!(!api.is_active());
        assert_eq!(
            api.handle_request(Request::Pause),
            Err(OraError::OutOfSequence)
        );
        api.handle_request(Request::Resume).unwrap();
        assert_eq!(api.phase(), Phase::Active);
        api.handle_request(Request::Stop).unwrap();
        assert_eq!(api.phase(), Phase::Inactive);
    }

    #[test]
    fn events_fire_only_when_active_and_registered() {
        let (api, hits) = armed_api();
        let data = EventData::bare(Event::Fork, 0);

        api.event(&data);
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Unregistered event: no callback, no count.
        api.event(&EventData::bare(Event::Join, 0));
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Paused: registered but suppressed.
        api.handle_request(Request::Pause).unwrap();
        api.event(&data);
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        api.handle_request(Request::Resume).unwrap();
        api.event(&data);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stop_clears_registrations() {
        let (api, hits) = armed_api();
        api.handle_request(Request::Stop).unwrap();
        assert!(api.registry().registered_events().is_empty());
        api.handle_request(Request::Start).unwrap();
        // A new start does not resurrect old callbacks.
        api.event(&EventData::bare(Event::Fork, 0));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn register_requires_start() {
        let api = CollectorApi::new();
        let token = api.intern_callback(Arc::new(|_| {}));
        assert_eq!(
            api.handle_request(Request::Register {
                event: Event::Fork,
                token
            }),
            Err(OraError::OutOfSequence)
        );
    }

    #[test]
    fn unsupported_event_is_rejected_at_registration() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        let token = api.intern_callback(Arc::new(|_| {}));
        assert_eq!(
            api.handle_request(Request::Register {
                event: Event::ThreadBeginAtomicWait,
                token
            }),
            Err(OraError::UnsupportedEvent)
        );
        // The mandatory events are always supported.
        assert_eq!(
            api.handle_request(Request::Register {
                event: Event::Fork,
                token
            }),
            Ok(Response::Ack)
        );
    }

    #[test]
    fn unknown_token_is_rejected() {
        let api = CollectorApi::new();
        api.handle_request(Request::Start).unwrap();
        assert_eq!(
            api.handle_request(Request::Register {
                event: Event::Fork,
                token: CallbackToken(999)
            }),
            Err(OraError::UnknownCallback)
        );
    }

    #[test]
    fn state_query_works_in_every_phase() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        for _ in 0..2 {
            let r = api.handle_request(Request::QueryState).unwrap();
            assert_eq!(r.state(), Some(ThreadState::Serial));
            api.handle_request(Request::Start).ok();
        }
        api.handle_request(Request::Pause).unwrap();
        assert!(api.handle_request(Request::QueryState).is_ok());
    }

    #[test]
    fn region_id_outside_region_is_out_of_sequence() {
        let api = CollectorApi::new();
        let provider = FakeProvider::new();
        api.set_provider(provider.clone()).unwrap();
        // A second provider is refused; the first keeps answering below.
        let second = api.set_provider(FakeProvider::new());
        assert_eq!(second, Err(OraError::OutOfSequence));
        assert_eq!(
            api.handle_request(Request::QueryCurrentPrid),
            Err(OraError::OutOfSequence)
        );
        provider.in_region.store(true, Ordering::SeqCst);
        assert_eq!(
            api.handle_request(Request::QueryCurrentPrid),
            Ok(Response::RegionId(9))
        );
        assert_eq!(
            api.handle_request(Request::QueryParentPrid),
            Ok(Response::RegionId(0))
        );
    }

    #[test]
    fn byte_protocol_drives_the_same_state_machine() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let token = api.intern_callback(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));

        let mut batch = message::RequestBatch::new(&[
            Request::Start,
            Request::Register {
                event: Event::Fork,
                token,
            },
            Request::QueryState,
        ]);
        assert_eq!(api.handle_bytes(batch.as_mut_bytes()), 3);
        assert_eq!(batch.response(0), Ok(Response::Ack));
        assert_eq!(batch.response(1), Ok(Response::Ack));
        assert_eq!(
            batch.response(2).unwrap().state(),
            Some(ThreadState::Serial)
        );

        api.event(&EventData::bare(Event::Fork, 0));
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Double start through bytes also reports out-of-sync.
        let mut again = message::RequestBatch::new(&[Request::Start]);
        api.handle_bytes(again.as_mut_bytes());
        assert_eq!(again.response(0), Err(OraError::OutOfSequence));
    }

    #[test]
    fn requests_spread_across_thread_lanes() {
        // Eight threads mix the byte entry point and the typed path while
        // lifecycle transitions stay on this thread: each thread's served
        // requests land on its own lane, exactly.
        const THREADS: usize = 8;
        let api = Arc::new(CollectorApi::new());
        api.set_provider(FakeProvider::new()).unwrap();
        for req in [Request::Start, Request::Pause, Request::Resume] {
            api.handle_request(req).unwrap();
        }
        // Every thread holds its slot until all have served, so no two
        // of them can be handed the same one.
        let all_served = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let api = Arc::clone(&api);
                let all_served = Arc::clone(&all_served);
                std::thread::spawn(move || {
                    let reqs = [Request::QueryState, Request::Start];
                    let mut batch = message::RequestBatch::new(&reqs);
                    for _ in 0..50 {
                        assert_eq!(api.handle_bytes(batch.as_mut_bytes()), 2);
                        assert_eq!(batch.response(1), Err(OraError::OutOfSequence));
                        assert!(api.handle_request(Request::QueryState).is_ok());
                        let again = api.handle_request(Request::Resume);
                        assert_eq!(again, Err(OraError::OutOfSequence));
                    }
                    all_served.wait();
                    crate::thread::slot()
                })
            })
            .collect();
        let slots: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        api.handle_request(Request::Stop).unwrap();
        assert_eq!(api.phase(), Phase::Inactive);
        let want = ApiHealth {
            sequence_errors: 8 * 50 * 2,
            requests: 4 + 8 * 50 * 4,
            ..ApiHealth::default()
        };
        assert_eq!(api.health(), want);
        let dist = api.lane_distribution();
        assert_eq!(dist.iter().sum::<u64>(), want.requests);
        for &slot in &slots {
            assert_eq!(dist[slot], 50 * 4, "slot {slot}: {dist:?}");
        }
        assert_eq!(dist[crate::thread::slot()], 4, "this thread's lane");
        let used = dist.iter().filter(|&&c| c > 0).count();
        assert_eq!(used, THREADS + 1, "one lane per thread: {dist:?}");
    }

    #[test]
    fn forget_callback_removes_token() {
        let api = CollectorApi::new();
        let token = api.intern_callback(Arc::new(|_| {}));
        assert!(api.forget_callback(token));
        assert!(!api.forget_callback(token));
        api.handle_request(Request::Start).unwrap();
        assert_eq!(
            api.handle_request(Request::Register {
                event: Event::Fork,
                token
            }),
            Err(OraError::UnknownCallback)
        );
    }

    #[test]
    fn health_is_served_in_every_phase() {
        let api = CollectorApi::new();
        // Before Start: lifecycle requests are out of sequence, health is not.
        assert_eq!(
            api.handle_request(Request::Stop),
            Err(OraError::OutOfSequence)
        );
        let resp = api.handle_request(Request::QueryHealth).unwrap();
        let h = resp.health().unwrap();
        assert_eq!(h.callback_panics, 0);
        assert!(h.sequence_errors >= 1);
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        assert!(api.handle_request(Request::QueryHealth).is_ok());
        api.handle_request(Request::Stop).unwrap();
        assert!(api.handle_request(Request::QueryHealth).is_ok());
    }

    #[test]
    fn panicking_callback_surfaces_in_health() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        let token = api.intern_callback(Arc::new(|_| panic!("injected")));
        api.handle_request(Request::Register {
            event: Event::Fork,
            token,
        })
        .unwrap();
        for _ in 0..10 {
            api.event(&EventData::bare(Event::Fork, 0));
        }
        let h = api.health();
        assert!(h.faulted());
        assert_eq!(
            h.callback_panics,
            crate::registry::DEFAULT_QUARANTINE_THRESHOLD
        );
        assert_eq!(h.callbacks_quarantined, 1);
        // The quarantined event no longer dispatches.
        assert!(!api.registry().is_registered(Event::Fork));
    }

    #[test]
    fn masks_track_lifecycle_and_registration() {
        let (api, _hits) = armed_api();
        let fork_bit = 1u64 << Event::Fork.index();
        assert_eq!(api.governor().current_mask(), fork_bit);
        api.handle_request(Request::Pause).unwrap();
        assert_eq!(api.governor().current_mask(), 0, "paused clears every bit");
        api.handle_request(Request::Resume).unwrap();
        assert_eq!(api.governor().current_mask(), fork_bit);
        api.handle_request(Request::Unregister { event: Event::Fork })
            .unwrap();
        assert_eq!(api.governor().current_mask(), 0);
        api.handle_request(Request::Stop).unwrap();
        assert_eq!(api.governor().current_mask(), 0);
    }

    #[test]
    fn governed_dispatch_reconciles_with_callback_runs() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let token = api.intern_callback(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let begin = Event::ThreadBeginExplicitBarrier;
        let end = Event::ThreadEndExplicitBarrier;
        for event in [begin, end] {
            api.handle_request(Request::Register { event, token })
                .unwrap();
        }
        // Deterministic virtual clock: 1 tick per reading, plus big
        // jumps between dispatch storms (amortizing application time).
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        api.install_governor(GovernorConfig {
            budget_ppm: 20_000, // 2%
            min_window_ticks: 10_000,
            clock: Some(Arc::new(move || t.fetch_add(1, Ordering::Relaxed))),
        });
        let armed = api.governor().status();
        for _ in 0..4 {
            for i in 0..10_000usize {
                api.event(&EventData::bare(begin, i % 8));
                api.event(&EventData::bare(end, i % 8));
            }
            ticks.fetch_add(200_000, Ordering::Relaxed);
        }
        let status = api.governor().status();
        assert!(
            status.reconciles_since(&armed),
            "Δobserved == Δsampled + Δskipped: {armed:?} → {status:?}"
        );
        assert_eq!(status.events_observed - armed.events_observed, 80_000);
        assert!(
            status.events_skipped > 0,
            "a 2% budget must throttle this storm"
        );
        assert!(status.retunes >= 1);
        // Callback runs match the governor's sampled count exactly.
        assert_eq!(hits.load(Ordering::SeqCst) as u64, status.events_sampled);
        // Health surfaces the same counters.
        let health = api.health();
        assert_eq!(health.events_sampled, status.events_sampled);
        assert_eq!(health.events_skipped, status.events_skipped);
        // Disarming restores full delivery: every event is sampled and
        // delivered, none skipped.
        api.uninstall_governor();
        let before = hits.load(Ordering::SeqCst);
        for _ in 0..100 {
            api.event(&EventData::bare(begin, 0));
        }
        assert_eq!(hits.load(Ordering::SeqCst), before + 100);
        let disarmed = api.governor().status();
        assert_eq!(disarmed.events_sampled, status.events_sampled + 100);
        assert_eq!(disarmed.events_skipped, status.events_skipped);
    }

    #[test]
    fn health_round_trips_through_the_byte_protocol() {
        let api = CollectorApi::new();
        api.set_provider(FakeProvider::new()).unwrap();
        api.handle_request(Request::Start).unwrap();
        let token = api.intern_callback(Arc::new(|_| panic!("injected")));
        api.handle_request(Request::Register {
            event: Event::Join,
            token,
        })
        .unwrap();
        api.set_quarantine_threshold(1);
        api.event(&EventData::bare(Event::Join, 0));
        let mut batch = crate::message::RequestBatch::new(&[Request::QueryHealth]);
        assert_eq!(api.handle_bytes(batch.as_mut_bytes()), 1);
        let h = batch.response(0).unwrap().health().unwrap();
        assert_eq!(h.callback_panics, 1);
        assert_eq!(h.callbacks_quarantined, 1);
        assert!(h.requests >= 2);
    }
}
