//! Explicit tasks — the OpenMP 3.0 construct the paper names as future
//! work ("More work will be needed to extend the interface to handle the
//! constructs in the recent OpenMP 3.0 standard", §VI).
//!
//! ## Scheduling model
//!
//! The team's [`TaskPool`] keeps one deque per team thread and nothing
//! shared beside them, in the classic work-stealing shape:
//!
//! * **Spawn** pushes onto the spawning thread's own deque (no shared
//!   queue contention between spawners); a push onto a deque already
//!   [`DEQUE_CAP`] deep still lands there and counts an overflow.
//! * **Owner pop** takes from the back of the thread's own deque — LIFO,
//!   so freshly spawned (cache-hot, deepest-in-the-tree) tasks run
//!   first.
//! * **Steal** scans the other threads' deques round-robin and takes
//!   from the *front* — FIFO, so thieves take the oldest (largest
//!   remaining subtree) work — but only **untied** tasks are eligible:
//!   tied tasks (the default, [`TaskKind::Tied`]) only ever execute on
//!   the thread that created them. That is deliberately more
//!   conservative than OpenMP requires (tied tasks may start on any
//!   thread and are only *re-execution* pinned after suspension), but
//!   since this runtime never suspends a task mid-body, pinning at
//!   spawn is indistinguishable from pinning at first execution — and
//!   it is exactly the scheduling constraint profiling tools must see
//!   to attribute serialized-spawn pathologies (arXiv 2406.03077) to
//!   the thread that caused them.
//!
//! Waiting threads ([`ParCtx::taskwait`], and the region-end drain the
//! implicit barrier performs) execute tasks while they wait; when no
//! eligible task exists but tasks are still outstanding elsewhere, they
//! wait on the pool's [`EventCount`] instead of burning the timeslice the
//! task-running thread needs. Every push notifies it, and so does the
//! completion that reaches quiescence.
//!
//! The ORA extension events `TaskBegin`/`TaskEnd` (whose wait-ID field
//! carries the task's ID) and `TaskWaitBegin`/`TaskWaitEnd` plus the
//! `THR_TSKWT_STATE` state make all of this observable to collectors in
//! the same begin/end style as the white-paper events; steal, overflow,
//! and park counts surface through `ApiHealth` after each region.
//!
//! [`ParCtx::taskwait`]: crate::context::ParCtx::taskwait

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use ora_core::pad::CachePadded;
use ora_core::park::EventCount;
use ora_core::sync::Mutex;

/// Per-thread deque depth past which a push counts an overflow. The
/// deque is not bounded: the task still lands on its owner's deque, and
/// the count lets tools see a spawn storm outrunning its executors.
pub(crate) const DEQUE_CAP: usize = 256;

/// Whether a task is pinned to its spawning thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// Executes only on the thread that created it (module docs).
    Tied,
    /// Eligible for any team thread; the unit of work stealing.
    Untied,
}

/// A lifetime-erased queued task.
///
/// # Safety contract
/// Tasks may borrow from the enclosing parallel region's environment. The
/// runtime guarantees every queued task is executed (or dropped) before
/// any team thread passes the region-end implicit barrier — each thread
/// drains the pool to empty *and quiescent* before arriving — so the
/// erased borrows never outlive their referents.
pub(crate) struct ErasedTask {
    f: Box<dyn FnOnce(&TaskScope<'_>) + Send + 'static>,
    /// Monotonic per-pool ID, assigned at push; carried in the
    /// TaskBegin/TaskEnd wait-ID field.
    id: u64,
    kind: TaskKind,
    /// Spawning thread's gtid: the deque the task lands on, and so the
    /// only executor of a tied task.
    owner: usize,
}

impl ErasedTask {
    /// Erase `f`'s lifetime. See the type-level safety contract.
    ///
    /// # Safety
    /// Caller must ensure the task runs before the borrows in `f` expire
    /// (the team drains at every barrier, which is sufficient for tasks
    /// created inside a region).
    pub(crate) unsafe fn new<'e, F>(kind: TaskKind, owner: usize, f: F) -> Self
    where
        F: for<'s> FnOnce(&TaskScope<'s>) + Send + 'e,
    {
        let boxed: Box<dyn for<'s> FnOnce(&TaskScope<'s>) + Send + 'e> = Box::new(f);
        // SAFETY: lifetime erasure justified by the drain-before-barrier
        // protocol documented on the type.
        let boxed: Box<dyn for<'s> FnOnce(&TaskScope<'s>) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        ErasedTask {
            f: boxed,
            id: 0,
            kind,
            owner,
        }
    }

    /// The pool-assigned task ID (0 until pushed).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn run(self, scope: &TaskScope<'_>) {
        (self.f)(scope)
    }
}

/// The execution context handed to every running task: the handle
/// through which a task body spawns nested tasks. Spawns are attributed
/// to the *executing* thread — a tied child created inside a stolen task
/// is pinned to the thief, which is where it actually ran.
pub struct TaskScope<'p> {
    pool: &'p TaskPool,
    gtid: usize,
}

impl<'p> TaskScope<'p> {
    pub(crate) fn new(pool: &'p TaskPool, gtid: usize) -> Self {
        TaskScope { pool, gtid }
    }

    /// Spawn a tied child task (pinned to the thread running this task).
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        // SAFETY: 'static captures trivially satisfy the drain contract.
        let task = unsafe { ErasedTask::new(TaskKind::Tied, self.gtid, move |_| f()) };
        self.pool.push(task);
    }

    /// Spawn an untied child task (any team thread may steal it).
    pub fn spawn_untied<F: FnOnce() + Send + 'static>(&self, f: F) {
        // SAFETY: as for `spawn`.
        let task = unsafe { ErasedTask::new(TaskKind::Untied, self.gtid, move |_| f()) };
        self.pool.push(task);
    }

    /// Spawn a tied child that itself receives a [`TaskScope`], for
    /// arbitrarily deep task trees.
    pub fn spawn_scoped<F>(&self, f: F)
    where
        F: for<'s> FnOnce(&TaskScope<'s>) + Send + 'static,
    {
        // SAFETY: as for `spawn`.
        let task = unsafe { ErasedTask::new(TaskKind::Tied, self.gtid, f) };
        self.pool.push(task);
    }

    /// Spawn an untied child that itself receives a [`TaskScope`].
    pub fn spawn_scoped_untied<F>(&self, f: F)
    where
        F: for<'s> FnOnce(&TaskScope<'s>) + Send + 'static,
    {
        // SAFETY: as for `spawn`.
        let task = unsafe { ErasedTask::new(TaskKind::Untied, self.gtid, f) };
        self.pool.push(task);
    }
}

/// One thread's deque. A plain locked `VecDeque` rather than a lock-free
/// Chase–Lev deque: every queue operation here brackets a task body (or
/// a steal attempt that is already off the fast path), so an uncontended
/// word-lock acquisition is noise — what matters is that *different
/// spawners never share a queue*, and that owners and thieves take from
/// opposite ends.
struct Deque {
    q: Mutex<VecDeque<ErasedTask>>,
}

/// The team's work-stealing task pool (module docs).
pub(crate) struct TaskPool {
    /// One deque per team thread, indexed by gtid; cache-padded so one
    /// thread's spawn burst never false-shares with a neighbour's.
    deques: Box<[CachePadded<Deque>]>,
    /// Tasks queued or currently executing.
    outstanding: AtomicUsize,
    /// Monotonic task IDs (carried in the TaskBegin/TaskEnd wait-ID field).
    next_id: AtomicU64,
    /// Cheap flag so regions that never create tasks skip the drain.
    ever_used: AtomicBool,
    /// Notified by every push and by the completion that reaches
    /// quiescence; task-starved waiters wait on it, one slot per thread.
    signal: EventCount,
    /// Tasks executed by a thread other than their spawner.
    steals: AtomicU64,
    /// Pushes onto a deque already [`DEQUE_CAP`] deep.
    overflows: AtomicU64,
    /// Waits in [`TaskPool::next_task`]: attempts that found nothing
    /// eligible while tasks were outstanding (satellite of `ApiHealth`).
    parks: AtomicU64,
}

impl TaskPool {
    pub(crate) fn new(size: usize) -> Self {
        let size = size.max(1);
        TaskPool {
            deques: (0..size)
                .map(|_| {
                    CachePadded::new(Deque {
                        q: Mutex::new(VecDeque::new()),
                    })
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            outstanding: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            ever_used: AtomicBool::new(false),
            signal: EventCount::new(size),
            steals: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Queue a task on its owner's deque; returns its ID. Notifies
    /// waiters so stealable or owner-runnable work never strands.
    pub(crate) fn push(&self, mut task: ErasedTask) -> u64 {
        self.ever_used.store(true, Ordering::Relaxed);
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        task.id = id;
        let lane = task.owner.min(self.deques.len() - 1);
        let depth = {
            let mut q = self.deques[lane].q.lock();
            q.push_back(task);
            q.len()
        };
        if depth > DEQUE_CAP {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
        self.signal.notify_all();
        id
    }

    /// Take one task `gtid` may execute: own deque from the back (LIFO),
    /// then steal — oldest untied first — from the other deques,
    /// round-robin from the right neighbour.
    pub(crate) fn try_pop(&self, gtid: usize) -> Option<ErasedTask> {
        let lanes = self.deques.len();
        let me = gtid.min(lanes - 1);
        if let Some(task) = self.deques[me].q.lock().pop_back() {
            return Some(task);
        }
        for offset in 1..lanes {
            let victim = (me + offset) % lanes;
            let mut q = self.deques[victim].q.lock();
            if let Some(pos) = q.iter().position(|t| t.kind == TaskKind::Untied) {
                let task = q.remove(pos).expect("position is in range");
                drop(q);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    /// Mark one popped task finished; the completion reaching quiescence
    /// notifies every waiter (they wait for `outstanding == 0`).
    pub(crate) fn complete(&self) {
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.signal.notify_all();
        }
    }

    /// Queued-or-running task count.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Whether any task was ever queued in this region.
    pub(crate) fn used(&self) -> bool {
        self.ever_used.load(Ordering::Relaxed)
    }

    /// The next task `gtid` may execute, or `None` once the pool is
    /// quiescent. With nothing eligible but tasks still outstanding
    /// elsewhere, waits on the pool's event count (spin-free on
    /// single-core hosts, `crate::spin`).
    pub(crate) fn next_task(&self, gtid: usize) -> Option<ErasedTask> {
        self.signal
            .wait_until(gtid, crate::spin::short_budget(), || self.attempt(gtid))
    }

    /// One attempt of [`TaskPool::next_task`]: a task, "done" when
    /// quiescent, or `None` to wait. Every wait is counted for
    /// `ApiHealth`.
    fn attempt(&self, gtid: usize) -> Option<Option<ErasedTask>> {
        if let Some(task) = self.try_pop(gtid) {
            return Some(Some(task));
        }
        if self.outstanding() == 0 {
            return Some(None);
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Drain the scheduler counters (steals, overflows, parks) — called
    /// once per region at join, the totals then land in `ApiHealth`.
    pub(crate) fn take_stats(&self) -> (u64, u64, u64) {
        (
            self.steals.swap(0, Ordering::Relaxed),
            self.overflows.swap(0, Ordering::Relaxed),
            self.parks.swap(0, Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn tied<F: FnOnce() + Send + 'static>(owner: usize, f: F) -> ErasedTask {
        unsafe { ErasedTask::new(TaskKind::Tied, owner, move |_| f()) }
    }

    fn untied<F: FnOnce() + Send + 'static>(owner: usize, f: F) -> ErasedTask {
        unsafe { ErasedTask::new(TaskKind::Untied, owner, move |_| f()) }
    }

    fn drain(pool: &TaskPool, gtid: usize) {
        while let Some(t) = pool.try_pop(gtid) {
            t.run(&TaskScope::new(pool, gtid));
            pool.complete();
        }
    }

    #[test]
    fn pool_tracks_outstanding_counts() {
        let pool = TaskPool::new(2);
        assert!(!pool.used());
        assert_eq!(pool.outstanding(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let id = pool.push(tied(0, move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(id, 1);
        assert!(pool.used());
        assert_eq!(pool.outstanding(), 1);
        let t = pool.try_pop(0).unwrap();
        assert_eq!(t.id(), 1);
        assert_eq!(pool.outstanding(), 1, "running still counts");
        t.run(&TaskScope::new(&pool, 0));
        pool.complete();
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(pool.try_pop(0).is_none());
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let pool = TaskPool::new(2);
        for i in 0..4u64 {
            pool.push(untied(0, move || {
                let _ = i;
            }));
        }
        // Owner takes the freshest spawn...
        let own = pool.try_pop(0).unwrap();
        assert_eq!(own.id(), 4, "owner pop is LIFO");
        // ...the thief takes the oldest.
        let stolen = pool.try_pop(1).unwrap();
        assert_eq!(stolen.id(), 1, "steal is FIFO");
        let (steals, _, _) = pool.take_stats();
        assert_eq!(steals, 1);
        // Clean up the outstanding ledger.
        for t in [own, stolen] {
            t.run(&TaskScope::new(&pool, 0));
            pool.complete();
        }
        drain(&pool, 0);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn tied_tasks_are_never_stolen() {
        let pool = TaskPool::new(2);
        pool.push(tied(0, || {}));
        assert!(
            pool.try_pop(1).is_none(),
            "a tied task must wait for its owner"
        );
        let t = pool.try_pop(0).expect("owner takes its tied task");
        t.run(&TaskScope::new(&pool, 0));
        pool.complete();
        let (steals, _, _) = pool.take_stats();
        assert_eq!(steals, 0);
    }

    #[test]
    fn pushes_past_deque_cap_count_overflows_and_stay_on_the_owners_deque() {
        let pool = TaskPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..DEQUE_CAP + 3 {
            let ran = ran.clone();
            pool.push(tied(0, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let (_, overflows, _) = pool.take_stats();
        assert_eq!(overflows, 3, "pushes past DEQUE_CAP count");
        assert_eq!(pool.deques[0].q.lock().len(), DEQUE_CAP + 3);
        assert!(
            pool.try_pop(1).is_none(),
            "tied tasks past DEQUE_CAP stay pinned to their owner"
        );
        drain(&pool, 0);
        assert_eq!(ran.load(Ordering::SeqCst), DEQUE_CAP + 3);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn nested_spawns_through_the_scope_complete() {
        let pool = Arc::new(TaskPool::new(1));
        let sum = Arc::new(AtomicUsize::new(0));
        let s = sum.clone();
        let task = unsafe {
            ErasedTask::new(TaskKind::Tied, 0, move |scope: &TaskScope<'_>| {
                s.fetch_add(1, Ordering::SeqCst);
                let s2 = s.clone();
                scope.spawn(move || {
                    s2.fetch_add(10, Ordering::SeqCst);
                });
                let s3 = s.clone();
                scope.spawn_untied(move || {
                    s3.fetch_add(100, Ordering::SeqCst);
                });
            })
        };
        pool.push(task);
        drain(&pool, 0);
        assert_eq!(sum.load(Ordering::SeqCst), 111);
        assert_eq!(pool.outstanding(), 0);
    }

    fn run_and_complete(pool: &TaskPool, task: ErasedTask) {
        task.run(&TaskScope::new(pool, 0));
        pool.complete();
    }

    #[test]
    fn next_task_returns_on_push_and_on_quiescence() {
        let pool = TaskPool::new(2);
        assert!(pool.next_task(1).is_none(), "a quiescent pool is done");

        // Thread 0's tied task keeps the pool busy but gives thread 1
        // nothing to run: it waits until a push it may run arrives...
        pool.push(tied(0, || {}));
        let stolen = thread::scope(|s| {
            let waiter = s.spawn(|| pool.next_task(1));
            pool.push(untied(0, || {}));
            waiter.join().unwrap().expect("the untied push")
        });
        assert_eq!(stolen.id(), 2);
        run_and_complete(&pool, stolen);

        // ...and until the completion that reaches quiescence.
        thread::scope(|s| {
            let waiter = s.spawn(|| pool.next_task(1).map(|t| t.id()));
            let own = pool.try_pop(0).expect("thread 0 runs its tied task");
            run_and_complete(&pool, own);
            assert_eq!(waiter.join().unwrap(), None);
        });
        assert_eq!(pool.outstanding(), 0);
    }

    /// ROADMAP item 1's lost wakeup at `TaskPool` level, forced with no
    /// timing: the attempt's own first failing call pushes a task the
    /// waiter may run, after its pop missed it and before it decides to
    /// wait. The wait must take that task on the next attempt. A wake key
    /// sampled after the attempt would already include the push and
    /// sleep past it; the watchdog then notifies after a bounded time and
    /// records that it had to.
    #[test]
    fn a_push_racing_the_failed_pop_is_never_lost() {
        let pool = TaskPool::new(2);
        pool.push(tied(0, || {})); // outstanding, but not thread 1's
        let rescued = AtomicBool::new(false);
        let (done, finished) = channel::<()>();
        let mut pushed = None;
        let got = thread::scope(|s| {
            let (pool, rescued) = (&pool, &rescued);
            s.spawn(move || {
                if finished.recv_timeout(Duration::from_secs(2)).is_err() {
                    rescued.store(true, Ordering::SeqCst);
                    pool.signal.notify_all();
                }
            });
            let got = pool.signal.wait_until(1, 0, || {
                let got = pool.attempt(1);
                if got.is_none() && pushed.is_none() {
                    pushed = Some(pool.push(untied(0, || {})));
                }
                got
            });
            let _ = done.send(()); // the watchdog is gone if it rescued
            got
        });
        assert!(
            !rescued.load(Ordering::SeqCst),
            "taskwait slept past a push that raced its failed pop"
        );
        let task = got.expect("the pushed task, not quiescence");
        assert_eq!(Some(task.id()), pushed);
        run_and_complete(&pool, task);
        drain(&pool, 0);
        let (_, _, parks) = pool.take_stats();
        assert_eq!(parks, 1, "exactly the one failed attempt waited");
    }

    #[test]
    fn tasks_may_borrow_locals_when_drained_in_scope() {
        let data = [1, 2, 3];
        let sum = AtomicUsize::new(0);
        let pool = TaskPool::new(1);
        pool.push(unsafe {
            ErasedTask::new(TaskKind::Tied, 0, |_: &TaskScope<'_>| {
                sum.fetch_add(data.iter().sum::<usize>(), Ordering::SeqCst);
            })
        });
        drain(&pool, 0);
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }
}
