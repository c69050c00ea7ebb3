//! OpenMP thread descriptors.
//!
//! "The state values are stored in a field of the OpenMP thread
//! descriptor, a data structure that is kept within the runtime to manage
//! OpenMP threads." (paper §IV-C). Descriptors also hold the per-thread
//! wait-ID counters (barrier ID, lock-wait ID, …) returned by state
//! queries, and are pre-initialized to the overhead state so that a state
//! query is answerable even while the thread is still being created
//! (paper §IV-D).

use ora_core::pad::CachePadded;
use ora_core::park::EventCount;
use ora_core::state::{StateCell, ThreadState, WaitId, WaitIdKind};

use crate::pool::HandOff;

/// Per-thread runtime bookkeeping: identity, current state, wait IDs.
#[derive(Debug)]
pub struct ThreadDescriptor {
    /// Global thread ID within the runtime instance. The master is 0.
    pub gtid: usize,
    /// Current state; updated with one relaxed store per transition so it
    /// can be tracked unconditionally (paper §IV-C). Descriptors live in a
    /// shared `Vec`, and this word is written on *every* state transition
    /// of its owner while neighbours' words are read by state queries —
    /// padded so one thread's transitions never invalidate another's line.
    pub state: CachePadded<StateCell>,
    /// This thread's fork/join doorbell, a one-waiter event count: the
    /// worker waits on it between regions, and a master rings it right
    /// after putting work in `hand_off`, so only the threads a team was
    /// handed to wake.
    pub doorbell: EventCount,
    /// The slot through which any master, top-level or nested, hands this
    /// worker its next region (see `pool.rs`). The master's is unused.
    pub(crate) hand_off: HandOff,
    /// Incremented each time this thread enters any (implicit or explicit)
    /// barrier.
    pub barrier_id: WaitId,
    /// Incremented each time this thread blocks on a user lock.
    pub lock_wait_id: WaitId,
    /// Incremented each time this thread blocks entering a critical region.
    pub critical_wait_id: WaitId,
    /// Incremented each time this thread blocks in an ordered section.
    pub ordered_wait_id: WaitId,
    /// Incremented each time this thread retries a contended atomic.
    pub atomic_wait_id: WaitId,
    /// Incremented each time this thread enters a taskwait (extension).
    pub task_wait_id: WaitId,
}

impl ThreadDescriptor {
    /// A descriptor for thread `gtid`, starting in the overhead state
    /// ("this data structure descriptor is initialized to THR_OVHD_STATE
    /// to reflect the slave threads are in the process of being created",
    /// paper §IV-D).
    pub fn new(gtid: usize) -> Self {
        ThreadDescriptor {
            gtid,
            state: CachePadded::new(StateCell::new()),
            doorbell: EventCount::new(1),
            hand_off: HandOff::new(),
            barrier_id: WaitId::new(),
            lock_wait_id: WaitId::new(),
            critical_wait_id: WaitId::new(),
            ordered_wait_id: WaitId::new(),
            atomic_wait_id: WaitId::new(),
            task_wait_id: WaitId::new(),
        }
    }

    /// A descriptor starting in an explicit state (the master's serial
    /// persona starts in [`ThreadState::Serial`]).
    pub fn with_state(gtid: usize, state: ThreadState) -> Self {
        let d = Self::new(gtid);
        d.state.set(state);
        d
    }

    /// The wait-ID counter for `kind`.
    pub fn wait_id(&self, kind: WaitIdKind) -> &WaitId {
        match kind {
            WaitIdKind::Barrier => &self.barrier_id,
            WaitIdKind::Lock => &self.lock_wait_id,
            WaitIdKind::Critical => &self.critical_wait_id,
            WaitIdKind::Ordered => &self.ordered_wait_id,
            WaitIdKind::Atomic => &self.atomic_wait_id,
            WaitIdKind::Task => &self.task_wait_id,
        }
    }

    /// Answer a state query: the current state and, when that state has a
    /// wait-ID kind, the matching counter value (paper §IV-D).
    pub fn query(&self) -> (ThreadState, Option<(WaitIdKind, u64)>) {
        let state = self.state.get();
        let wait = state
            .wait_id_kind()
            .map(|kind| (kind, self.wait_id(kind).get()));
        (state, wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_descriptor_is_in_overhead_state() {
        let d = ThreadDescriptor::new(3);
        assert_eq!(d.gtid, 3);
        let (state, wait) = d.query();
        assert_eq!(state, ThreadState::Overhead);
        assert_eq!(wait, None);
    }

    #[test]
    fn with_state_overrides_initial_state() {
        let d = ThreadDescriptor::with_state(0, ThreadState::Serial);
        assert_eq!(d.query().0, ThreadState::Serial);
    }

    #[test]
    fn query_couples_waiting_state_with_its_counter() {
        let d = ThreadDescriptor::new(0);
        let id = d.barrier_id.next();
        d.state.set(ThreadState::ImplicitBarrier);
        assert_eq!(
            d.query(),
            (
                ThreadState::ImplicitBarrier,
                Some((WaitIdKind::Barrier, id))
            )
        );

        let lid = d.lock_wait_id.next();
        d.state.set(ThreadState::LockWait);
        assert_eq!(
            d.query(),
            (ThreadState::LockWait, Some((WaitIdKind::Lock, lid)))
        );

        d.state.set(ThreadState::Working);
        assert_eq!(d.query(), (ThreadState::Working, None));
    }

    #[test]
    fn wait_ids_are_independent_counters() {
        let d = ThreadDescriptor::new(0);
        d.barrier_id.next();
        d.barrier_id.next();
        d.critical_wait_id.next();
        assert_eq!(d.wait_id(WaitIdKind::Barrier).get(), 2);
        assert_eq!(d.wait_id(WaitIdKind::Critical).get(), 1);
        assert_eq!(d.wait_id(WaitIdKind::Lock).get(), 0);
        assert_eq!(d.wait_id(WaitIdKind::Ordered).get(), 0);
        assert_eq!(d.wait_id(WaitIdKind::Atomic).get(), 0);
    }
}
