//! The persistent worker pool and the fork/join work-publication protocol.
//!
//! "In our OpenMP implementation, all the threads survive (and are
//! sleeping) in between non-nested parallel regions." (paper §IV-C1)
//! Workers are created lazily at the first fork — after the fork event
//! fires, matching the paper's `__ompc_event(OMP_EVENT_FORK)` placed just
//! before `pthread_create()` — and then sleep on a doorbell between
//! regions, in the idle state, raising begin/end-idle events around each
//! region they participate in.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ora_core::event::Event;
use ora_core::pad::CachePadded;
use ora_core::park::EventCount;
use ora_core::state::ThreadState;
use psx::symtab::Ip;

use crate::context::ParCtx;
use crate::runtime::Shared;
use crate::team::Team;

/// A lifetime-erased reference to the master's region closure.
///
/// # Safety contract
///
/// The master constructs this from `&F` where `F: Fn(&ParCtx) + Sync`, and
/// keeps `F` alive until every participating thread has arrived at the
/// region-end barrier (the master itself waits at that barrier before
/// returning). Workers only call through the pointer between observing the
/// epoch and arriving at that barrier, so the reference never dangles.
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

/// The work published for one parallel region.
#[derive(Clone)]
pub(crate) struct Work {
    pub team: Arc<Team>,
    pub closure: ErasedClosure,
    pub outlined: Ip,
}

/// The master↔worker rendezvous: an epoch counter and the published work.
///
/// Publication protocol: the master writes `work` and `team_size`, then
/// increments `epoch` with release ordering and rings the *participating*
/// workers' doorbells (see `Shared::publish` in `runtime.rs` — waking
/// lives with the descriptor table, not here). Workers acquire-load
/// `epoch`; on a change they read `team_size` and — only if they
/// participate (`gtid < team_size`) — the work cell. A participant cannot
/// still be reading the cell when the next region is published, because
/// publication only happens after the previous region's end barrier, which
/// every participant reaches after its last read. Non-participants never
/// touch the cell, are not woken by publication at all, and may therefore
/// observe epochs lagging arbitrarily behind — [`Served::next`] only
/// compares for inequality, never for succession.
pub(crate) struct TeamSlot {
    /// Bumped once per region by the master, polled by every spinning
    /// worker — padded so publication stores never contend with the
    /// `team_size`/work writes next door.
    epoch: CachePadded<AtomicU64>,
    team_size: AtomicUsize,
    work: UnsafeCell<Option<Work>>,
}

unsafe impl Sync for TeamSlot {}

impl TeamSlot {
    pub(crate) fn new() -> Self {
        TeamSlot {
            epoch: CachePadded::new(AtomicU64::new(0)),
            team_size: AtomicUsize::new(0),
            work: UnsafeCell::new(None),
        }
    }

    /// Publish a region's work (master only; callers serialize via the
    /// runtime's fork lock). The caller is responsible for ringing the
    /// participating workers' doorbells *after* this returns.
    pub(crate) fn publish(&self, work: Work) {
        let size = work.team.size;
        // Safety: no worker reads the cell between the previous region's
        // end barrier and this epoch increment (see type-level protocol).
        unsafe { *self.work.get() = Some(work) };
        self.team_size.store(size, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Clear the published work after a region completes, dropping the
    /// team reference (master only, after the end barrier).
    pub(crate) fn retire(&self) {
        unsafe { *self.work.get() = None };
    }

    /// Snapshot the published work. Only valid for participants inside the
    /// fork/join window.
    fn take(&self) -> Work {
        unsafe { (*self.work.get()).clone().expect("work published") }
    }

    /// Current team size of the published region.
    pub(crate) fn size(&self) -> usize {
        self.team_size.load(Ordering::Relaxed)
    }

    /// Current epoch (acquire: pairs with `publish`'s release increment).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Per-worker sub-team lease channel.
///
/// Nested parallel regions do not publish through the global [`TeamSlot`]
/// — that would wake the whole pool and race with the outer region it
/// belongs to. Instead the nested master *leases* specific parked workers
/// (workers whose gtid is outside the running top-level team are never
/// woken by global publication, so they are exactly the idle capacity)
/// and hands each its own `LeaseSlot`: the sub-team work, the worker's
/// member ID inside the sub-team, and a publication epoch. The worker serves
/// the lease under its *registered* descriptor — so it stays visible to
/// state queries and health tooling mid-region — and frees itself back to
/// the lease pool after the sub-team's closing barrier.
///
/// Publication protocol mirrors [`TeamSlot`]: write the work cell and
/// member ID, release-increment `epoch`, ring the worker's doorbell. The
/// cell is single-producer/single-consumer by construction — a worker is
/// leased to at most one sub-team at a time (the allocator in
/// `runtime.rs` guarantees it) and clears the cell when it takes the work.
pub(crate) struct LeaseSlot {
    epoch: CachePadded<AtomicU64>,
    inner_gtid: AtomicUsize,
    work: UnsafeCell<Option<Work>>,
}

unsafe impl Sync for LeaseSlot {}

impl LeaseSlot {
    pub(crate) fn new() -> Self {
        LeaseSlot {
            epoch: CachePadded::new(AtomicU64::new(0)),
            inner_gtid: AtomicUsize::new(0),
            work: UnsafeCell::new(None),
        }
    }

    /// Publish a sub-team lease (nested master only; the worker must be
    /// claimed from the lease pool first). Caller rings the worker's
    /// doorbell after this returns.
    pub(crate) fn publish(&self, work: Work, inner_gtid: usize) {
        // Safety: the worker is parked and unleased — nothing reads the
        // cell until the epoch increment below is observed.
        unsafe { *self.work.get() = Some(work) };
        self.inner_gtid.store(inner_gtid, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Current lease epoch (acquire: pairs with `publish`).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Take the published lease, clearing the cell (leased worker only).
    fn take(&self) -> (Work, usize) {
        // Safety: we are the single consumer, inside the lease window.
        let work = unsafe { (*self.work.get()).take().expect("lease published") };
        (work, self.inner_gtid.load(Ordering::Relaxed))
    }
}

/// What ended a pooled worker's wait on its doorbell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// A nested sub-team leased this worker.
    Lease,
    /// A top-level region this worker participates in was published.
    Region,
    /// The runtime is shutting down.
    Shutdown,
}

/// The publication epochs a worker has already served, and its doorbell
/// wait.
struct Served {
    gtid: usize,
    region: u64,
    lease: u64,
}

impl Served {
    fn new(gtid: usize) -> Self {
        Served {
            gtid,
            region: 0,
            lease: 0,
        }
    }

    /// Sleeps on `doorbell` until [`Served::next`] has something to do.
    fn wait(
        &mut self,
        doorbell: &EventCount,
        slot: &TeamSlot,
        lease: &LeaseSlot,
        shutdown: &AtomicBool,
    ) -> Wake {
        doorbell.wait_until(0, crate::spin::long_budget(), || {
            self.next(slot, lease, shutdown)
        })
    }

    /// One attempt of the worker's doorbell wait: what to do next, or
    /// `None` to keep sleeping. Leases come first — a leased worker is by
    /// definition not in the current top-level team, so a pending global
    /// epoch catch-up is a no-op for it anyway. Work of either kind wins
    /// over a racing shutdown, so a region published just before
    /// teardown still executes.
    fn next(&mut self, slot: &TeamSlot, lease: &LeaseSlot, shutdown: &AtomicBool) -> Option<Wake> {
        let lease_epoch = lease.epoch();
        if lease_epoch != self.lease {
            self.lease = lease_epoch;
            return Some(Wake::Lease);
        }
        let epoch = slot.epoch();
        if epoch != self.region {
            self.region = epoch;
            if self.gtid < slot.size() {
                return Some(Wake::Region);
            }
            // Not in this region's team: stay idle.
        }
        shutdown.load(Ordering::Relaxed).then_some(Wake::Shutdown)
    }
}

/// Body of a pool worker thread with global thread ID `gtid`.
///
/// The worker sleeps on one doorbell (its descriptor's event count) but
/// watches two work channels: the global [`TeamSlot`] for top-level
/// regions it participates in, and its private [`LeaseSlot`] for nested
/// sub-teams that leased it while it sat outside the running top-level
/// team ([`Served::next`]).
pub(crate) fn worker_main(shared: Arc<Shared>, gtid: usize) {
    let desc = shared.descriptor(gtid);
    let lease = shared.lease_slot(gtid);
    crate::tls::bind(shared.instance, gtid, desc.clone());

    // "As soon as the threads are created, they are set to be in the
    // THR_IDLE_STATE and the event OMP_EVENT_THR_BEGIN_IDLE triggers a
    // callback associated with that event." (paper §IV-C1)
    desc.state.set(ThreadState::Idle);
    shared.fire(Event::ThreadBeginIdle, gtid, 0, 0, 0);

    let mut served = Served::new(gtid);
    loop {
        match served.wait(&desc.doorbell, &shared.slot, &lease, &shared.shutdown) {
            Wake::Lease => serve_lease(&shared, &lease, gtid, &desc),
            Wake::Region => serve_region(&shared, gtid, &desc),
            Wake::Shutdown => return,
        }
    }
}

/// Serve one top-level region from the global [`TeamSlot`].
fn serve_region(shared: &Arc<Shared>, gtid: usize, desc: &Arc<crate::ThreadDescriptor>) {
    let work = shared.slot.take();
    let team = work.team.clone();

    // The idle period is over before the end-idle event fires, so a
    // state query from its callback sees the working state.
    crate::tls::set_team(shared.instance, Some(team.clone()));
    desc.state.set(ThreadState::Working);
    shared.fire(
        Event::ThreadEndIdle,
        gtid,
        team.region_id,
        team.parent_region_id,
        0,
    );

    {
        let ctx = ParCtx::new(shared, &team, desc, gtid);
        let frame = psx::enter(work.outlined);
        // Safety: we are inside the fork/join window for this epoch.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { work.closure.call(&ctx) }));
        drop(frame);
        if result.is_err() {
            team.set_panicked();
        }
        // The implicit barrier every participant takes at region end.
        ctx.implicit_barrier();
    }

    crate::tls::set_team(shared.instance, None);
    desc.state.set(ThreadState::Idle);
    shared.fire(Event::ThreadBeginIdle, gtid, 0, 0, 0);
}

/// Serve one nested sub-team lease, then return to the pool.
///
/// A lease raises no idle transitions (the Fork was fired by the nested
/// master before this worker woke). The worker keeps its registered
/// descriptor, binding it under the sub-team member ID, so state queries
/// and health tooling see the thread mid-region.
fn serve_lease(
    shared: &Arc<Shared>,
    lease: &LeaseSlot,
    gtid: usize,
    desc: &Arc<crate::ThreadDescriptor>,
) {
    let (work, inner_gtid) = lease.take();
    let team = work.team.clone();

    // Become sub-team member `inner_gtid` for the duration: same
    // registered descriptor, inner team binding.
    crate::tls::bind(shared.instance, inner_gtid, desc.clone());
    crate::tls::set_team(shared.instance, Some(team.clone()));
    desc.state.set(ThreadState::Working);

    {
        let ctx = ParCtx::new(shared, &team, desc, inner_gtid);
        let frame = psx::enter(work.outlined);
        // Safety: the nested master keeps the closure alive until every
        // sub-team member passes the barrier below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { work.closure.call(&ctx) }));
        drop(frame);
        if result.is_err() {
            team.set_panicked();
        }
        ctx.implicit_barrier();
    }
    drop(work);
    drop(team);

    // Restore the pool identity (bind clears the team) and only then
    // return to the lease pool — the slot must not be reclaimable while
    // this thread still looks like a sub-team member.
    crate::tls::bind(shared.instance, gtid, desc.clone());
    desc.state.set(ThreadState::Idle);
    shared.release_lease(gtid);
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

    fn region(size: usize) -> Work {
        fn noop(_: &ParCtx<'_>) {}
        Work {
            team: Team::new(1, 0, size),
            closure: ErasedClosure::new(&noop),
            outlined: Ip(0),
        }
    }

    #[test]
    fn slot_epoch_and_doorbell() {
        let (slot, lease, shutdown) = (TeamSlot::new(), LeaseSlot::new(), AtomicBool::new(false));
        let doorbell = EventCount::new(1);
        let mut served = Served::new(1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| served.wait(&doorbell, &slot, &lease, &shutdown));
            slot.publish(region(2));
            doorbell.notify_all(); // the caller-side ring `Shared::publish` does
            assert_eq!(waiter.join().unwrap(), Wake::Region);
        });
        assert_eq!(served.region, 1, "the served epoch is remembered");
        slot.retire();
    }

    #[test]
    fn slot_shutdown_releases_waiters() {
        let (slot, lease, shutdown) = (TeamSlot::new(), LeaseSlot::new(), AtomicBool::new(false));
        let doorbell = EventCount::new(1);
        let mut served = Served::new(1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| served.wait(&doorbell, &slot, &lease, &shutdown));
            shutdown.store(true, Ordering::SeqCst);
            doorbell.notify_all();
            assert_eq!(waiter.join().unwrap(), Wake::Shutdown);
        });
    }

    /// A worker whose gtid is outside the new team sleeps through its
    /// publication: `Shared::publish` rings only gtids `1..team_size`,
    /// and even a ring (a lease's, a shutdown's) finds no region for it.
    /// Work published before a shutdown still wins over it.
    #[test]
    fn publish_does_not_wake_nonparticipants() {
        let (slot, lease, shutdown) = (TeamSlot::new(), LeaseSlot::new(), AtomicBool::new(false));
        let mut outside = Served::new(2);
        let mut inside = Served::new(1);
        slot.publish(region(2));
        assert_eq!(outside.next(&slot, &lease, &shutdown), None);
        assert_eq!(outside.region, 1, "it caught up on the epoch anyway");
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(outside.next(&slot, &lease, &shutdown), Some(Wake::Shutdown));
        assert_eq!(inside.next(&slot, &lease, &shutdown), Some(Wake::Region));
        lease.publish(region(2), 1);
        assert_eq!(outside.next(&slot, &lease, &shutdown), Some(Wake::Lease));
        assert_eq!(outside.next(&slot, &lease, &shutdown), Some(Wake::Shutdown));
        drop(lease.take());
        slot.retire();
    }

    #[test]
    fn lease_slot_round_trips_work_and_inner_gtid() {
        let lease = LeaseSlot::new();
        assert_eq!(lease.epoch(), 0);
        let f = |_: &ParCtx<'_>| {};
        lease.publish(
            Work {
                team: Team::solo(7, 0),
                closure: ErasedClosure::new(&f),
                outlined: Ip(42),
            },
            3,
        );
        assert_eq!(lease.epoch(), 1, "publish bumps the lease epoch");
        let (work, inner_gtid) = lease.take();
        assert_eq!(inner_gtid, 3);
        assert_eq!(work.outlined, Ip(42));
        // A second lease of the same slot is a fresh epoch edge.
        lease.publish(
            Work {
                team: Team::solo(8, 0),
                closure: ErasedClosure::new(&f),
                outlined: Ip(43),
            },
            1,
        );
        assert_eq!(lease.epoch(), 2);
        let (_, inner_gtid) = lease.take();
        assert_eq!(inner_gtid, 1);
    }
}
