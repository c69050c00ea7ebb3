//! The event-callback table shared by all threads.
//!
//! "This function pointer is stored in a table that contains the event
//! callbacks shared by all the threads. Each table entry has a lock
//! associated with it to avoid data races when multiple threads try to
//! register the same event with different callbacks." (paper §IV-C)
//!
//! The paper's table locks each entry; this implementation goes one step
//! further and publishes callbacks RCU-style so the *fired* path never
//! locks at all:
//!
//! * each entry holds one atomic pointer to a heap-allocated callback
//!   slot; **unmonitored dispatch is a single atomic load** (null check),
//!   exactly the paper's "one load" cost ordering;
//! * monitored dispatch pins an epoch ([`crate::rcu`]) and calls through
//!   the pointer — no mutex, no `Arc` refcount traffic;
//! * registration (rare, mostly at program start) swaps the pointer and
//!   pays for synchronization: replaced/removed slots are retired to a
//!   garbage bag and freed only once no pinned reader can observe them;
//! * a per-entry generation counter records every publication, so tools
//!   and tests can detect racing re-registrations.
//!
//! **Fault isolation.** A collector callback runs on the runtime thread
//! that hit the event point — often while the rest of the team sits in a
//! barrier. A panic unwinding out of the callback would therefore tear
//! through the runtime's barrier/lock internals and deadlock the team.
//! [`CallbackRegistry::invoke`] instead catches every unwind, counts it
//! against the offending entry, and once an entry accumulates
//! [`CallbackRegistry::quarantine_threshold`] panics it is *quarantined*:
//! the callback is atomically unregistered through the same RCU
//! publication path registration uses (a single compare-and-swap of the
//! slot pointer), so quarantine is lock-free and the healthy fast path
//! pays nothing for it. Re-registering an event grants the new callback a
//! fresh panic budget.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{Event, EVENT_COUNT};
use crate::rcu::{self, GarbageBag};

/// Data passed to an event callback.
///
/// The white paper passes only the event type; we additionally expose the
/// identity the runtime already has at hand (thread, region IDs, wait ID)
/// so collectors need no extra query round-trip on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventData {
    /// Which event fired.
    pub event: Event,
    /// Global thread ID (within the runtime instance) of the firing thread.
    pub gtid: usize,
    /// ID of the parallel region the thread is executing (0 if none).
    pub region_id: u64,
    /// Parent region ID (always 0 for non-nested regions, paper §IV-E).
    pub parent_region_id: u64,
    /// The relevant wait-ID counter value for wait events, else 0.
    pub wait_id: u64,
}

impl EventData {
    /// Event data for `event` with no region or wait context.
    pub fn bare(event: Event, gtid: usize) -> Self {
        EventData {
            event,
            gtid,
            region_id: 0,
            parent_region_id: 0,
            wait_id: 0,
        }
    }
}

/// An event callback. Runs on the runtime thread that hit the event point,
/// so it must be cheap and must not call back into the runtime.
pub type Callback = Arc<dyn Fn(&EventData) + Send + Sync>;

struct Entry {
    /// The published callback; null while unregistered. Readers only
    /// dereference non-null values observed under an [`rcu::pin`].
    slot: AtomicPtr<Callback>,
    /// Bumped on every register/unregister of this entry.
    generation: AtomicU64,
    /// Panics the *currently published* callback has caused. Reset on
    /// every publication so a replacement gets a fresh budget.
    panics: AtomicU64,
}

impl Entry {
    fn new() -> Self {
        Entry {
            slot: AtomicPtr::new(std::ptr::null_mut()),
            generation: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        let p = *self.slot.get_mut();
        if !p.is_null() {
            // SAFETY: exclusive ownership at drop; the pointer came from
            // Box::into_raw in publish() and was never retired.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// Panics a single callback may cause before it is quarantined.
pub const DEFAULT_QUARANTINE_THRESHOLD: u64 = 3;

/// Fault counters of one registry, as observed by health queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Callback panics caught on the dispatch path, lifetime total.
    pub callback_panics: u64,
    /// Callbacks forcibly unregistered after exhausting their panic
    /// budget.
    pub callbacks_quarantined: u64,
}

/// The callback table: one entry per event.
pub struct CallbackRegistry {
    entries: [Entry; EVENT_COUNT],
    /// Unlinked callback slots awaiting epoch expiry.
    garbage: GarbageBag,
    /// Panic budget per published callback before quarantine.
    quarantine_threshold: AtomicU64,
    /// Lifetime count of caught callback panics.
    total_panics: AtomicU64,
    /// Lifetime count of quarantine actions.
    quarantined: AtomicU64,
}

impl Default for CallbackRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CallbackRegistry {
    /// An empty table: every event unregistered.
    pub fn new() -> Self {
        CallbackRegistry {
            entries: std::array::from_fn(|_| Entry::new()),
            garbage: GarbageBag::new(),
            quarantine_threshold: AtomicU64::new(DEFAULT_QUARANTINE_THRESHOLD),
            total_panics: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Swap `new` (may be null) into `entry` and return the unlinked
    /// previous slot, which the caller must retire.
    fn swap_in(entry: &Entry, new: *mut Callback) -> Option<Box<Callback>> {
        let old = entry.slot.swap(new, Ordering::SeqCst);
        entry.generation.fetch_add(1, Ordering::Relaxed);
        entry.panics.store(0, Ordering::Relaxed);
        // SAFETY: a non-null `old` came from Box::into_raw and was just
        // unlinked; the caller hands it to the bag, which frees it only
        // after every reader pinned before the unlink has unpinned.
        (!old.is_null()).then(|| unsafe { Box::from_raw(old) })
    }

    /// Swap `new` into `entry` and retire any old slot. Returns whether
    /// a previous callback was present.
    fn publish(&self, entry: &Entry, new: *mut Callback) -> bool {
        match Self::swap_in(entry, new) {
            Some(old) => {
                self.garbage.retire(old);
                true
            }
            None => false,
        }
    }

    /// Install `cb` for `event`, replacing any previous callback.
    pub fn register(&self, event: Event, cb: Callback) {
        let entry = &self.entries[event.index()];
        self.publish(entry, Box::into_raw(Box::new(cb)));
    }

    /// Remove the callback for `event`. Returns whether one was present.
    pub fn unregister(&self, event: Event) -> bool {
        let entry = &self.entries[event.index()];
        self.publish(entry, std::ptr::null_mut())
    }

    /// Remove every callback (done on `OMP_REQ_STOP`). Every entry is
    /// unlinked first and the lot retired together, so the writer's
    /// reclamation barrier (see [`crate::rcu`]) is paid once, not once
    /// per entry.
    pub fn clear(&self) {
        let unlinked: Vec<Box<dyn Send>> = self
            .entries
            .iter()
            .filter_map(|entry| Self::swap_in(entry, std::ptr::null_mut()))
            .map(|old| old as Box<dyn Send>)
            .collect();
        self.garbage.retire_all(unlinked);
    }

    /// Whether a callback is currently installed for `event`. This is the
    /// one-load fast-path check used by the dispatcher.
    #[inline(always)]
    pub fn is_registered(&self, event: Event) -> bool {
        !self.entries[event.index()]
            .slot
            .load(Ordering::Acquire)
            .is_null()
    }

    /// Invoke the callback for `data.event`, if one is installed.
    ///
    /// Returns whether a callback ran. The fired path performs no lock
    /// acquisition and no `Arc` refcount traffic: an unmonitored event
    /// costs one atomic load; a monitored one additionally pins the
    /// reclamation epoch (a store to the thread's reader slot, and one
    /// to unpin: plain stores under the membarrier protocol, a fenced
    /// pin under the `SeqCst` fallback; see [`crate::rcu`]), loads the
    /// published pointer again with `Acquire` under the pin, and calls
    /// through it. A concurrent unregister cannot free a callback
    /// out from under a running invocation (the pin keeps it alive), and
    /// a callback may itself (un)register events without deadlocking.
    ///
    /// A callback that panics never unwinds into the runtime: the unwind
    /// is caught here, counted, and — once the entry's budget is spent —
    /// the callback is quarantined off the table (see module docs). The
    /// `catch_unwind` costs nothing on the non-panic path.
    #[inline]
    pub fn invoke(&self, data: &EventData) -> bool {
        let entry = &self.entries[data.event.index()];
        // The paper's check ordering: unmonitored events pay one load.
        if entry.slot.load(Ordering::Acquire).is_null() {
            return false;
        }
        let _pin = rcu::pin();
        // Only a load made under the pin may be dereferenced. Acquire
        // orders the callback's contents after its publication; the pin's
        // order against a writer's scan is the RCU protocol's business.
        let ptr = entry.slot.load(Ordering::Acquire);
        if ptr.is_null() {
            return false;
        }
        // SAFETY: non-null slot pointers originate from Box::into_raw in
        // publish(); once unlinked they are retired, and the bag cannot
        // free them while this pin (taken before the load) is held.
        let cb = unsafe { &*ptr };
        if panic::catch_unwind(AssertUnwindSafe(|| (**cb)(data))).is_err() {
            self.record_panic(entry, ptr);
        }
        true
    }

    /// Slow path after a caught callback panic: charge the entry and
    /// quarantine the callback once its budget is spent. Runs under the
    /// caller's pin, so `ptr` is still protected.
    #[cold]
    fn record_panic(&self, entry: &Entry, ptr: *mut Callback) {
        self.total_panics.fetch_add(1, Ordering::Relaxed);
        let panics = entry.panics.fetch_add(1, Ordering::Relaxed) + 1;
        if panics < self.quarantine_threshold.load(Ordering::Relaxed) {
            return;
        }
        // Quarantine: unlink exactly the callback we observed. A CAS (not
        // a swap) so a racing re-registration's fresh callback is never
        // evicted by the old one's panic record; if the CAS loses, the
        // replacement already reset the budget and nothing needs doing.
        if entry
            .slot
            .compare_exchange(
                ptr,
                std::ptr::null_mut(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            entry.generation.fetch_add(1, Ordering::Relaxed);
            entry.panics.store(0, Ordering::Relaxed);
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the CAS just unlinked `ptr`; the bag frees it only
            // after every pin taken before the unlink (ours included) is
            // released.
            self.garbage.retire(unsafe { Box::from_raw(ptr) });
        }
    }

    /// Panic budget a published callback has before quarantine.
    pub fn quarantine_threshold(&self) -> u64 {
        self.quarantine_threshold.load(Ordering::Relaxed)
    }

    /// Change the panic budget (takes effect on the next caught panic).
    /// A threshold of 1 quarantines on the first panic.
    pub fn set_quarantine_threshold(&self, n: u64) {
        self.quarantine_threshold.store(n.max(1), Ordering::Relaxed);
    }

    /// Panics charged against the currently published callback of `event`.
    pub fn panic_count(&self, event: Event) -> u64 {
        self.entries[event.index()].panics.load(Ordering::Relaxed)
    }

    /// Snapshot of the registry's lifetime fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            callback_panics: self.total_panics.load(Ordering::Relaxed),
            callbacks_quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Registered events as a bitmap (bit `i` ⇔ event with index `i`),
    /// the source the per-thread dispatch masks are republished from.
    pub fn registered_bits(&self) -> u64 {
        let mut bits = 0u64;
        for (index, entry) in self.entries.iter().enumerate() {
            if !entry.slot.load(Ordering::Acquire).is_null() {
                bits |= 1u64 << index;
            }
        }
        bits
    }

    /// How many times `event` has been (un)registered — the entry's RCU
    /// publication generation.
    pub fn generation(&self, event: Event) -> u64 {
        self.entries[event.index()]
            .generation
            .load(Ordering::Relaxed)
    }

    /// The events that currently have callbacks installed.
    pub fn registered_events(&self) -> Vec<Event> {
        crate::event::ALL_EVENTS
            .iter()
            .copied()
            .filter(|e| self.is_registered(*e))
            .collect()
    }
}

impl std::fmt::Debug for CallbackRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallbackRegistry")
            .field("registered", &self.registered_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn counting_cb(counter: Arc<AtomicUsize>) -> Callback {
        Arc::new(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn starts_empty() {
        let r = CallbackRegistry::new();
        for e in crate::event::ALL_EVENTS {
            assert!(!r.is_registered(e));
        }
        assert!(!r.invoke(&EventData::bare(Event::Fork, 0)));
    }

    #[test]
    fn register_invoke_unregister() {
        let r = CallbackRegistry::new();
        let n = Arc::new(AtomicUsize::new(0));
        r.register(Event::Fork, counting_cb(n.clone()));
        assert!(r.is_registered(Event::Fork));
        assert!(!r.is_registered(Event::Join));
        assert!(r.invoke(&EventData::bare(Event::Fork, 0)));
        assert!(r.invoke(&EventData::bare(Event::Fork, 0)));
        assert_eq!(n.load(Ordering::SeqCst), 2);
        assert!(r.unregister(Event::Fork));
        assert!(!r.unregister(Event::Fork));
        assert!(!r.invoke(&EventData::bare(Event::Fork, 0)));
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn registration_replaces_previous_callback() {
        let r = CallbackRegistry::new();
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        r.register(Event::Join, counting_cb(a.clone()));
        r.register(Event::Join, counting_cb(b.clone()));
        r.invoke(&EventData::bare(Event::Join, 0));
        assert_eq!(a.load(Ordering::SeqCst), 0);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clear_removes_everything() {
        let r = CallbackRegistry::new();
        for e in crate::event::ALL_EVENTS {
            r.register(e, Arc::new(|_| {}));
        }
        assert_eq!(r.registered_events().len(), EVENT_COUNT);
        r.clear();
        assert!(r.registered_events().is_empty());
    }

    #[test]
    fn generation_counts_every_publication() {
        let r = CallbackRegistry::new();
        assert_eq!(r.generation(Event::Fork), 0);
        r.register(Event::Fork, Arc::new(|_| {}));
        assert_eq!(r.generation(Event::Fork), 1);
        r.register(Event::Fork, Arc::new(|_| {}));
        assert_eq!(r.generation(Event::Fork), 2);
        r.unregister(Event::Fork);
        assert_eq!(r.generation(Event::Fork), 3);
        assert_eq!(r.generation(Event::Join), 0);
    }

    #[test]
    fn replaced_callbacks_are_reclaimed_when_quiescent() {
        let r = CallbackRegistry::new();
        for _ in 0..100 {
            r.register(Event::Fork, Arc::new(|_| {}));
            r.invoke(&EventData::bare(Event::Fork, 0));
        }
        r.unregister(Event::Fork);
        r.garbage.collect_until_quiescent();
    }

    #[test]
    fn concurrent_registration_of_same_event_is_safe() {
        // The paper's reason for per-entry locks: multiple threads racing
        // to register the same event with different callbacks.
        let r = Arc::new(CallbackRegistry::new());
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                let n = Arc::clone(&n);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.register(Event::Fork, counting_cb(n.clone()));
                        r.invoke(&EventData::bare(Event::Fork, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one callback per invoke; all invokes saw *a* callback.
        assert_eq!(n.load(Ordering::SeqCst), 800);
        assert_eq!(r.generation(Event::Fork), 800);
    }

    #[test]
    fn callback_may_reenter_registry() {
        let r = Arc::new(CallbackRegistry::new());
        let r2 = Arc::clone(&r);
        r.register(
            Event::Fork,
            Arc::new(move |_| {
                // Unregistering from inside the callback must not deadlock
                // — and must not free the callback mid-execution (the
                // invoking pin keeps it alive until the call returns).
                r2.unregister(Event::Fork);
            }),
        );
        assert!(r.invoke(&EventData::bare(Event::Fork, 0)));
        assert!(!r.invoke(&EventData::bare(Event::Fork, 0)));
    }

    #[test]
    fn event_data_bare_has_zero_context() {
        let d = EventData::bare(Event::ThreadBeginIdle, 3);
        assert_eq!(d.gtid, 3);
        assert_eq!(d.region_id, 0);
        assert_eq!(d.parent_region_id, 0);
        assert_eq!(d.wait_id, 0);
    }

    fn panicking_cb() -> Callback {
        Arc::new(|_| panic!("injected callback fault"))
    }

    #[test]
    fn panicking_callback_is_caught_then_quarantined() {
        let r = CallbackRegistry::new();
        r.register(Event::Fork, panicking_cb());
        assert_eq!(r.quarantine_threshold(), DEFAULT_QUARANTINE_THRESHOLD);
        for i in 1..=DEFAULT_QUARANTINE_THRESHOLD {
            // The panic never unwinds out of invoke(); the callback still
            // counts as having run.
            assert!(r.invoke(&EventData::bare(Event::Fork, 0)));
            assert_eq!(r.fault_stats().callback_panics, i);
        }
        // Budget spent: the callback is gone and dispatch is a no-op again.
        assert!(!r.is_registered(Event::Fork));
        assert!(!r.invoke(&EventData::bare(Event::Fork, 0)));
        let stats = r.fault_stats();
        assert_eq!(stats.callback_panics, DEFAULT_QUARANTINE_THRESHOLD);
        assert_eq!(stats.callbacks_quarantined, 1);
        assert_eq!(r.panic_count(Event::Fork), 0); // reset on quarantine
        r.garbage.collect_until_quiescent();
    }

    #[test]
    fn threshold_one_quarantines_on_first_panic() {
        let r = CallbackRegistry::new();
        r.set_quarantine_threshold(1);
        r.register(Event::Join, panicking_cb());
        assert!(r.invoke(&EventData::bare(Event::Join, 0)));
        assert!(!r.is_registered(Event::Join));
        assert_eq!(r.fault_stats().callbacks_quarantined, 1);
        // Threshold 0 is clamped to 1: quarantine can't be disabled by
        // accident into an unwind-forever mode.
        r.set_quarantine_threshold(0);
        assert_eq!(r.quarantine_threshold(), 1);
    }

    #[test]
    fn re_registration_resets_the_panic_budget() {
        let r = CallbackRegistry::new();
        r.register(Event::Fork, panicking_cb());
        r.invoke(&EventData::bare(Event::Fork, 0));
        assert_eq!(r.panic_count(Event::Fork), 1);
        // A fresh callback must not inherit the old one's strikes.
        let n = Arc::new(AtomicUsize::new(0));
        r.register(Event::Fork, counting_cb(n.clone()));
        assert_eq!(r.panic_count(Event::Fork), 0);
        for _ in 0..10 {
            r.invoke(&EventData::bare(Event::Fork, 0));
        }
        assert_eq!(n.load(Ordering::SeqCst), 10);
        assert!(r.is_registered(Event::Fork));
        assert_eq!(r.fault_stats().callbacks_quarantined, 0);
    }

    #[test]
    fn quarantine_only_hits_the_faulty_event() {
        let r = CallbackRegistry::new();
        let n = Arc::new(AtomicUsize::new(0));
        r.register(Event::Fork, panicking_cb());
        r.register(Event::Join, counting_cb(n.clone()));
        for _ in 0..10 {
            r.invoke(&EventData::bare(Event::Fork, 0));
            r.invoke(&EventData::bare(Event::Join, 0));
        }
        assert!(!r.is_registered(Event::Fork));
        assert!(r.is_registered(Event::Join));
        assert_eq!(n.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_panicking_invokes_quarantine_exactly_once() {
        let r = Arc::new(CallbackRegistry::new());
        r.register(Event::Fork, panicking_cb());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        r.invoke(&EventData::bare(Event::Fork, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = r.fault_stats();
        // Exactly one callback was ever published, so at most one
        // quarantine, and the CAS guarantees it is charged exactly once.
        assert_eq!(stats.callbacks_quarantined, 1);
        assert!(stats.callback_panics >= DEFAULT_QUARANTINE_THRESHOLD);
        assert!(!r.is_registered(Event::Fork));
    }
}

#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::testutil::XorShift64;
    use std::sync::atomic::AtomicUsize;

    /// For any quarantine threshold and any interleaving of panicking and
    /// healthy invocations, the callback is unlinked exactly when the
    /// per-publication panic count reaches the threshold — never earlier,
    /// never later — and healthy re-registrations always start clean.
    #[test]
    fn quarantine_fires_exactly_at_threshold() {
        let mut rng = XorShift64::new(
            std::env::var("ORA_FAULT_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x7175_6172_0001),
        );
        for _ in 0..64 {
            let threshold = rng.range_i64(1, 8) as u64;
            let r = CallbackRegistry::new();
            r.set_quarantine_threshold(threshold);
            let should_panic = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let sp = Arc::clone(&should_panic);
            let ran = Arc::new(AtomicUsize::new(0));
            let ran2 = Arc::clone(&ran);
            r.register(
                Event::Fork,
                Arc::new(move |_| {
                    ran2.fetch_add(1, Ordering::SeqCst);
                    if sp.load(Ordering::SeqCst) {
                        panic!("seeded fault");
                    }
                }),
            );
            let mut strikes = 0u64;
            for _ in 0..rng.range_usize(1, 64) {
                if !r.is_registered(Event::Fork) {
                    break;
                }
                let fault = rng.below(2) == 0;
                should_panic.store(fault, Ordering::SeqCst);
                r.invoke(&EventData::bare(Event::Fork, 0));
                if fault {
                    strikes += 1;
                }
                if strikes < threshold {
                    assert!(r.is_registered(Event::Fork), "quarantined early");
                    assert_eq!(r.panic_count(Event::Fork), strikes);
                } else {
                    assert!(!r.is_registered(Event::Fork), "quarantine missed");
                }
            }
            let stats = r.fault_stats();
            assert_eq!(stats.callback_panics, strikes);
            assert_eq!(stats.callbacks_quarantined, u64::from(strikes >= threshold));
        }
    }
}
