//! The persistent worker pool and the one fork/join hand-off protocol.
//!
//! "In our OpenMP implementation, all the threads survive (and are
//! sleeping) in between non-nested parallel regions." (paper §IV-C1)
//! Workers are created lazily at the first fork — after the fork event
//! fires, matching the paper's `__ompc_event(OMP_EVENT_FORK)` placed just
//! before `pthread_create()` — and then sleep on a doorbell between
//! regions, in the idle state, raising begin/end-idle events around each
//! top-level region they participate in.
//!
//! Every team member other than the master, top-level or leased to a
//! nested team, gets its region the same way: the master writes a
//! [`Work`] and the member ID into the worker's own [`HandOff`] slot,
//! release-increments the slot's epoch and rings the worker's doorbell
//! (`Shared::hand` in `runtime.rs`). A top-level fork hands to gtids
//! `1..n` with member ID = gtid; a nested fork hands to the workers it
//! leased, as members `1..`. The worker acquire-loads its epoch, takes
//! the work out of the cell and runs it in [`serve`]. Workers that are
//! handed nothing are never woken.
//!
//! A slot is written by different masters over time — the top-level
//! master, then a nested master that leased the worker, then another —
//! and each write is safe for one reason: a slot is rewritten only after
//! its worker took the previous work out of it and then arrived at that
//! region's implicit barrier, and the next writer is ordered after that
//! barrier (it is the same master past it, a master of a later region,
//! or a nested master that leased the worker from the table the previous
//! one returned it to after passing it). The worker may still be
//! restoring its pool identity when the next work lands; that is harmless,
//! because the cell it took is already empty and it compares epochs only
//! for inequality, so it serves the new work on its next look.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ora_core::event::Event;
use ora_core::pad::CachePadded;
use ora_core::state::ThreadState;
use psx::symtab::Ip;

use crate::context::ParCtx;
use crate::descriptor::ThreadDescriptor;
use crate::runtime::Shared;
use crate::team::Team;

/// A lifetime-erased reference to the master's region closure.
///
/// # Safety contract
///
/// The master constructs this from `&F` where `F: Fn(&ParCtx) + Sync`,
/// hands it to every member through their [`HandOff`] slots, and keeps `F`
/// alive until every member has arrived at the region's implicit barrier
/// (the master itself waits at that barrier before returning). A worker
/// calls through the pointer only between taking the work out of its slot
/// and arriving at that barrier, so the reference never dangles.
#[derive(Clone, Copy)]
pub(crate) struct ErasedClosure {
    data: *const (),
    call: unsafe fn(*const (), &ParCtx<'_>),
}

unsafe impl Send for ErasedClosure {}
unsafe impl Sync for ErasedClosure {}

impl ErasedClosure {
    /// Erase `f`'s lifetime. See the type-level safety contract.
    pub(crate) fn new<F: Fn(&ParCtx<'_>) + Sync>(f: &F) -> Self {
        unsafe fn call_impl<F: Fn(&ParCtx<'_>) + Sync>(data: *const (), ctx: &ParCtx<'_>) {
            let f = unsafe { &*(data as *const F) };
            f(ctx);
        }
        ErasedClosure {
            data: f as *const F as *const (),
            call: call_impl::<F>,
        }
    }

    /// Invoke the closure.
    ///
    /// # Safety
    /// Caller must be inside the fork/join window described on the type.
    pub(crate) unsafe fn call(&self, ctx: &ParCtx<'_>) {
        unsafe { (self.call)(self.data, ctx) }
    }
}

/// The work handed to one team member.
pub(crate) struct Work {
    pub team: Arc<Team>,
    pub closure: ErasedClosure,
    pub outlined: Ip,
}

/// One worker's hand-off slot: the work of the next region it serves and
/// the member ID it serves it under. The protocol is the module doc's.
pub(crate) struct HandOff {
    /// Bumped once per hand-off and polled by the spinning worker —
    /// padded so the worker's polling never contends with the master's
    /// writes to the cell next door.
    epoch: CachePadded<AtomicU64>,
    member: AtomicUsize,
    work: UnsafeCell<Option<Work>>,
}

// Safety: the cell has one writer at a time and the worker reads it only
// after acquiring the epoch the writer released (module doc).
unsafe impl Sync for HandOff {}
// The cell is never observed across a caught unwind, so it keeps the
// descriptor that holds it unwind-safe.
impl std::panic::RefUnwindSafe for HandOff {}

impl HandOff {
    pub(crate) fn new() -> Self {
        HandOff {
            epoch: CachePadded::new(AtomicU64::new(0)),
            member: AtomicUsize::new(0),
            work: UnsafeCell::new(None),
        }
    }

    /// Hand `work` to the slot's worker as team member `member`. The
    /// caller rings the worker's doorbell after this returns.
    pub(crate) fn put(&self, work: Work, member: usize) {
        // Safety: the worker took the previous work before a barrier this
        // writer is ordered after, and reads nothing until the increment.
        unsafe { *self.work.get() = Some(work) };
        self.member.store(member, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Current epoch (acquire: pairs with `put`'s release increment).
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Take the handed work and member ID, emptying the cell (the
    /// slot's worker only, after observing a new epoch).
    fn take(&self) -> (Work, usize) {
        // Safety: single consumer, between `put` and the region barrier.
        let work = unsafe { (*self.work.get()).take().expect("work handed") };
        (work, self.member.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for HandOff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandOff")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

/// What ended a pooled worker's wait on its doorbell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// Work was handed to this worker.
    Work,
    /// The runtime is shutting down.
    Shutdown,
}

/// The last hand-off epoch a worker served, and its doorbell wait.
#[derive(Default)]
struct Served {
    epoch: u64,
}

impl Served {
    /// Sleeps on `desc`'s doorbell until [`Served::next`] has something
    /// to do.
    fn wait(&mut self, desc: &ThreadDescriptor, shutdown: &AtomicBool) -> Wake {
        desc.doorbell.wait_until(0, crate::spin::long_budget(), || {
            self.next(&desc.hand_off, shutdown)
        })
    }

    /// One attempt of the worker's doorbell wait: what to do next, or
    /// `None` to keep sleeping. Handed work wins over a racing shutdown,
    /// so a region handed out just before teardown still executes.
    fn next(&mut self, hand_off: &HandOff, shutdown: &AtomicBool) -> Option<Wake> {
        let epoch = hand_off.epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            return Some(Wake::Work);
        }
        shutdown.load(Ordering::Relaxed).then_some(Wake::Shutdown)
    }
}

/// Body of a pool worker thread with global thread ID `gtid`: sleep on
/// the doorbell, [`serve`] whatever is handed over, until shutdown.
pub(crate) fn worker_main(shared: Arc<Shared>, gtid: usize) {
    let desc = shared.descriptor(gtid);
    crate::tls::bind(shared.instance, gtid, desc.clone());

    // "As soon as the threads are created, they are set to be in the
    // THR_IDLE_STATE and the event OMP_EVENT_THR_BEGIN_IDLE triggers a
    // callback associated with that event." (paper §IV-C1)
    desc.state.set(ThreadState::Idle);
    shared.fire(Event::ThreadBeginIdle, gtid, 0, 0, 0);

    let mut served = Served::default();
    while served.wait(&desc, &shared.shutdown) == Wake::Work {
        serve(&shared, gtid, &desc);
    }
}

/// Run the region handed to worker `gtid`: bind under the member ID, run
/// the body, take the implicit barrier, restore the pool identity.
///
/// Only a level-1 team's members leave and re-enter the idle state. A
/// nested team's members raise no idle events — its master fired the
/// Fork before they woke — but keep their registered descriptor, so
/// state queries and health tooling see them mid-region.
fn serve(shared: &Shared, gtid: usize, desc: &Arc<ThreadDescriptor>) {
    let (work, member) = desc.hand_off.take();
    let team = &work.team;
    let top_level = team.level == 1;

    // The idle period is over before the end-idle event fires, so a
    // state query from its callback sees the working state.
    crate::tls::bind(shared.instance, member, desc.clone());
    crate::tls::set_team(shared.instance, Some(team.clone()));
    desc.state.set(ThreadState::Working);
    if top_level {
        shared.fire(
            Event::ThreadEndIdle,
            gtid,
            team.region_id,
            team.parent_region_id,
            0,
        );
    }

    {
        let ctx = ParCtx::new(shared, team, desc, member);
        let frame = psx::enter(work.outlined);
        // Safety: between the take above and the barrier below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { work.closure.call(&ctx) }));
        drop(frame);
        if result.is_err() {
            team.set_panicked();
        }
        // The implicit barrier every member takes at region end.
        ctx.implicit_barrier();
    }

    // Restore the pool identity (binding clears the team).
    crate::tls::bind(shared.instance, gtid, desc.clone());
    desc.state.set(ThreadState::Idle);
    if top_level {
        shared.fire(Event::ThreadBeginIdle, gtid, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erased_closure_calls_through() {
        // Exercise the erasure machinery without a full runtime by
        // checking data-pointer round-tripping with a no-op context is
        // well-formed at the type level; behavioural coverage comes from
        // the runtime tests.
        let hits = std::sync::atomic::AtomicUsize::new(0);
        let f = |_ctx: &ParCtx<'_>| {
            hits.fetch_add(1, Ordering::SeqCst);
        };
        let erased = ErasedClosure::new(&f);
        // A second erasure of the same closure points at the same data.
        let erased2 = ErasedClosure::new(&f);
        assert_eq!(erased.data, erased2.data);
    }

    fn region(region_id: u64, outlined: u64) -> Work {
        fn noop(_: &ParCtx<'_>) {}
        Work {
            team: Team::new(region_id, 0, 2),
            closure: ErasedClosure::new(&noop),
            outlined: Ip(outlined),
        }
    }

    #[test]
    fn hand_off_epoch_and_doorbell() {
        let (desc, shutdown) = (ThreadDescriptor::new(1), AtomicBool::new(false));
        let mut served = Served::default();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| served.wait(&desc, &shutdown));
            desc.hand_off.put(region(1, 0), 1);
            desc.doorbell.notify_all(); // the ring `Shared::hand` adds
            assert_eq!(waiter.join().unwrap(), Wake::Work);
        });
        assert_eq!(served.epoch, 1, "the served epoch is remembered");
        drop(desc.hand_off.take());
    }

    #[test]
    fn shutdown_releases_waiters() {
        let (desc, shutdown) = (ThreadDescriptor::new(1), AtomicBool::new(false));
        let mut served = Served::default();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| served.wait(&desc, &shutdown));
            shutdown.store(true, Ordering::SeqCst);
            desc.doorbell.notify_all();
            assert_eq!(waiter.join().unwrap(), Wake::Shutdown);
        });
    }

    /// Work handed out before a shutdown still wins over it, once.
    #[test]
    fn handed_work_wins_over_a_racing_shutdown() {
        let (hand_off, shutdown) = (HandOff::new(), AtomicBool::new(false));
        let mut served = Served::default();
        assert_eq!(served.next(&hand_off, &shutdown), None);
        hand_off.put(region(1, 0), 1);
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(served.next(&hand_off, &shutdown), Some(Wake::Work));
        assert_eq!(served.next(&hand_off, &shutdown), Some(Wake::Shutdown));
        drop(hand_off.take());
    }

    /// One slot carries top-level and leased work alike: each `put` is a
    /// fresh epoch edge with its own member ID, and `take` empties the
    /// cell so the next writer finds nothing left to drop under a reader.
    #[test]
    fn hand_off_round_trips_work_and_member() {
        let hand_off = HandOff::new();
        assert_eq!(hand_off.epoch(), 0);
        hand_off.put(region(7, 42), 3);
        assert_eq!(hand_off.epoch(), 1, "put bumps the epoch");
        let (work, member) = hand_off.take();
        assert_eq!((work.team.region_id, work.outlined, member), (7, Ip(42), 3));
        hand_off.put(region(8, 43), 1);
        assert_eq!(hand_off.epoch(), 2);
        let (work, member) = hand_off.take();
        assert_eq!((work.team.region_id, member), (8, 1));
        assert!(unsafe { (*hand_off.work.get()).is_none() });
    }
}
