//! Team structures.
//!
//! "Since a team of threads will execute a parallel region and there is a
//! one-to-one mapping, we added an OpenMP region ID and parent region ID
//! field as a part of the thread team data structure descriptor. Each time
//! a team of threads executes a parallel region, this current and parallel
//! region ID is updated." (paper §IV-E)
//!
//! Besides identity, the team owns everything its threads share within one
//! region: the barrier, the single-construct arbiter, ordered-section turn
//! counters, the reduction lock, and the claim state of dynamic/guided
//! loops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::pad::CachePadded;
use ora_core::park::EventCount;
use ora_core::sync::Mutex;

use crate::barrier::Barrier;
use crate::schedule::DynamicLoop;
#[cfg(test)]
use crate::schedule::Schedule;
use crate::task::TaskPool;
use crate::wordlock::WordLock;

/// Turn counter of one ordered loop, shared by the team.
#[derive(Debug)]
pub struct OrderedState {
    /// Read by every out-of-turn thread's attempt while the turn holder
    /// stores — padded so turn-passing never false-shares with the slot
    /// map around it.
    turn: CachePadded<AtomicI64>,
    /// Notified on every turn pass; out-of-turn threads wait on it.
    passed: EventCount,
}

impl OrderedState {
    /// Whether it is iteration `iter`'s turn.
    #[inline]
    pub fn is_turn(&self, iter: i64) -> bool {
        self.turn.load(Ordering::Acquire) == iter
    }

    /// Block team thread `tid` until it is iteration `iter`'s turn.
    pub fn wait_turn(&self, tid: usize, iter: i64) {
        self.passed.wait_until(tid, crate::spin::long_budget(), || {
            self.is_turn(iter).then_some(())
        });
    }

    /// Pass the turn to `next` after finishing an ordered body.
    #[inline]
    pub fn advance(&self, next: i64) {
        self.turn.store(next, Ordering::Release);
        self.passed.notify_all();
    }
}

/// The team executing one parallel region.
pub struct Team {
    /// ID of this parallel region (unique per runtime instance).
    pub region_id: u64,
    /// Parent region ID — "in the case of a non-nested parent parallel
    /// region ID, its parent region ID will always be zero" (paper §IV-E).
    pub parent_region_id: u64,
    /// Number of threads in the team.
    pub size: usize,
    /// Nesting level: 1 for a top-level region, parent level + 1 for
    /// nested regions (serialized or real — `omp_get_level` counts both).
    pub level: u32,
    /// The team barrier (implicit and explicit barriers both use it).
    pub barrier: Arc<Barrier>,
    /// Protects the shared accumulator during reductions — the dedicated
    /// lock behind `__ompc_reduction` (paper §IV-C5).
    pub reduction_lock: WordLock,
    /// Count of `single` constructs already claimed by some thread. Every
    /// team thread CASes this word on every `single`, so it gets its own
    /// line rather than sharing one with the task pool / loop maps.
    single_claim: CachePadded<AtomicU64>,
    /// The team's explicit-task queue (OpenMP 3.0 extension).
    pub(crate) tasks: TaskPool,
    /// Per-loop-sequence claim state for dynamic/guided loops.
    dyn_loops: Mutex<HashMap<u64, LoopSlot<DynamicLoop>>>,
    /// Per-loop-sequence turn state for ordered loops.
    ordered_loops: Mutex<HashMap<u64, LoopSlot<OrderedState>>>,
    /// Set when a team thread panics inside the region body.
    panicked: AtomicBool,
    /// Broadcast slot for `single copyprivate` (executor writes, team
    /// reads after the construct's barrier).
    broadcast: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct LoopSlot<T> {
    state: Arc<T>,
    finished: usize,
}

impl Team {
    /// A team of `size` threads for region `region_id`.
    pub fn new(region_id: u64, parent_region_id: u64, size: usize) -> Arc<Team> {
        Self::new_at_level(region_id, parent_region_id, size, 1)
    }

    /// A team at an explicit nesting level.
    pub fn new_at_level(
        region_id: u64,
        parent_region_id: u64,
        size: usize,
        level: u32,
    ) -> Arc<Team> {
        Arc::new(Team {
            region_id,
            parent_region_id,
            size,
            level,
            barrier: Arc::new(Barrier::new(size)),
            reduction_lock: WordLock::new(),
            single_claim: CachePadded::new(AtomicU64::new(0)),
            tasks: TaskPool::new(size),
            dyn_loops: Mutex::new(HashMap::new()),
            ordered_loops: Mutex::new(HashMap::new()),
            panicked: AtomicBool::new(false),
            broadcast: Mutex::new(None),
        })
    }

    /// A single-thread team — used for serialized nested parallel regions,
    /// which keep the *outer* region IDs because the paper's runtime does
    /// not track IDs for serialized nesting (§IV-E).
    pub fn solo(region_id: u64, parent_region_id: u64) -> Arc<Team> {
        Team::new(region_id, parent_region_id, 1)
    }

    /// Arbitrate a `single` construct: thread-local construct sequence
    /// number `my_seq` claims the construct iff no other thread has. The
    /// OpenMP rule that all threads encounter worksharing constructs in
    /// the same order makes the claim counter well-defined.
    pub fn claim_single(&self, my_seq: u64) -> bool {
        self.single_claim
            .compare_exchange(my_seq, my_seq + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// The shared claim state of the dynamic/guided loop with per-thread
    /// sequence number `seq`; first arrival creates it via `init`.
    pub fn dynamic_loop(&self, seq: u64, init: impl FnOnce() -> DynamicLoop) -> Arc<DynamicLoop> {
        let mut loops = self.dyn_loops.lock();
        loops
            .entry(seq)
            .or_insert_with(|| LoopSlot {
                state: Arc::new(init()),
                finished: 0,
            })
            .state
            .clone()
    }

    /// Mark the calling thread done with dynamic loop `seq`; the slot is
    /// reclaimed when the whole team has finished it.
    pub fn finish_dynamic_loop(&self, seq: u64) {
        let mut loops = self.dyn_loops.lock();
        if let Some(slot) = loops.get_mut(&seq) {
            slot.finished += 1;
            if slot.finished == self.size {
                loops.remove(&seq);
            }
        }
    }

    /// The turn state of the ordered loop with sequence number `seq`,
    /// created on first touch with the loop's first iteration value.
    pub fn ordered_loop(&self, seq: u64, first_iter: i64) -> Arc<OrderedState> {
        let mut loops = self.ordered_loops.lock();
        loops
            .entry(seq)
            .or_insert_with(|| LoopSlot {
                state: Arc::new(OrderedState {
                    turn: CachePadded::new(AtomicI64::new(first_iter)),
                    passed: EventCount::new(self.size),
                }),
                finished: 0,
            })
            .state
            .clone()
    }

    /// Mark the calling thread done with ordered loop `seq`.
    pub fn finish_ordered_loop(&self, seq: u64) {
        let mut loops = self.ordered_loops.lock();
        if let Some(slot) = loops.get_mut(&seq) {
            slot.finished += 1;
            if slot.finished == self.size {
                loops.remove(&seq);
            }
        }
    }

    /// Store the `copyprivate` broadcast value (single's executor).
    pub fn set_broadcast(&self, value: Box<dyn std::any::Any + Send>) {
        *self.broadcast.lock() = Some(value);
    }

    /// Read (clone out of) the broadcast slot.
    pub fn read_broadcast<T: Clone + 'static>(&self) -> Option<T> {
        self.broadcast
            .lock()
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>())
            .cloned()
    }

    /// Record that a team thread panicked in the region body.
    pub fn set_panicked(&self) {
        self.panicked.store(true, Ordering::Release);
    }

    /// Whether any team thread panicked in the region body.
    pub fn has_panicked(&self) -> bool {
        self.panicked.load(Ordering::Acquire)
    }

    /// Live dynamic-loop slots (diagnostics; should be 0 between loops).
    pub fn live_loop_slots(&self) -> usize {
        self.dyn_loops.lock().len() + self.ordered_loops.lock().len()
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("region_id", &self.region_id)
            .field("parent_region_id", &self.parent_region_id)
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_team_keeps_given_ids() {
        let t = Team::solo(5, 2);
        assert_eq!(t.region_id, 5);
        assert_eq!(t.parent_region_id, 2);
        assert_eq!(t.size, 1);
    }

    #[test]
    fn single_claim_goes_to_exactly_one_thread_per_construct() {
        let t = Team::new(1, 0, 4);
        // Construct 0: first claimer wins, rest lose.
        assert!(t.claim_single(0));
        assert!(!t.claim_single(0));
        assert!(!t.claim_single(0));
        // Construct 1: again exactly one winner.
        assert!(t.claim_single(1));
        assert!(!t.claim_single(1));
    }

    #[test]
    fn concurrent_single_claims_have_one_winner() {
        let t = Team::new(1, 0, 8);
        let t = Arc::new(t);
        for construct in 0..20u64 {
            let winners: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let t = &t;
                        s.spawn(move || t.claim_single(construct) as usize)
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(winners, 1, "construct {construct}");
        }
    }

    #[test]
    fn dynamic_loop_slot_is_shared_and_reclaimed() {
        let t = Team::new(1, 0, 2);
        let a = t.dynamic_loop(0, || DynamicLoop::new(0, 9, 1, Schedule::Dynamic(2), 2));
        let b = t.dynamic_loop(0, || panic!("must reuse the existing slot"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.live_loop_slots(), 1);
        t.finish_dynamic_loop(0);
        assert_eq!(t.live_loop_slots(), 1);
        t.finish_dynamic_loop(0);
        assert_eq!(t.live_loop_slots(), 0);
    }

    #[test]
    fn ordered_state_tracks_turns() {
        let t = Team::new(1, 0, 2);
        let o = t.ordered_loop(0, 10);
        assert!(o.is_turn(10));
        assert!(!o.is_turn(11));
        o.advance(11);
        assert!(o.is_turn(11));
        t.finish_ordered_loop(0);
        t.finish_ordered_loop(0);
        assert_eq!(t.live_loop_slots(), 0);
    }

    #[test]
    fn panic_flag_latches() {
        let t = Team::new(1, 0, 2);
        assert!(!t.has_panicked());
        t.set_panicked();
        assert!(t.has_panicked());
    }

    #[test]
    fn reduction_lock_provides_mutual_exclusion() {
        let t = Team::new(1, 0, 4);
        assert!(t.reduction_lock.try_lock());
        assert!(!t.reduction_lock.try_lock());
        t.reduction_lock.unlock();
    }
}
