//! The per-thread view of an executing parallel region.
//!
//! A [`ParCtx`] is what the region closure receives — the analogue of the
//! compiler-outlined procedure's `(gtid, slink)` arguments plus the
//! runtime calls the compiler would have emitted around each construct
//! (`__ompc_static_init_4`, `__ompc_ibarrier`, `__ompc_reduction`, …,
//! paper Fig. 2). Every construct updates the thread's state word and
//! fires the corresponding ORA events at exactly the points the paper
//! instruments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::event::Event;
use ora_core::state::ThreadState;

use crate::descriptor::ThreadDescriptor;
use crate::runtime::{syms, Shared};
use crate::schedule::{static_chunks, static_even, Chunk, DynamicLoop, Schedule};
use crate::team::Team;
use crate::wordlock::WordLock;

/// Execution context of one thread inside one parallel region.
pub struct ParCtx<'a> {
    shared: &'a Shared,
    team: &'a Arc<Team>,
    desc: &'a Arc<ThreadDescriptor>,
    gtid: usize,
    /// Per-thread sequence number of worksharing loops encountered, used
    /// to pair up the team-shared claim state of dynamic/ordered loops.
    /// Atomic only so `ParCtx` is `Sync` (serialized nested regions
    /// capture the outer context); it is never contended.
    loop_seq: AtomicU64,
    /// Per-thread sequence number of `single` constructs encountered.
    single_seq: AtomicU64,
}

impl<'a> ParCtx<'a> {
    pub(crate) fn new(
        shared: &'a Shared,
        team: &'a Arc<Team>,
        desc: &'a Arc<ThreadDescriptor>,
        gtid: usize,
    ) -> Self {
        ParCtx {
            shared,
            team,
            desc,
            gtid,
            loop_seq: AtomicU64::new(0),
            single_seq: AtomicU64::new(0),
        }
    }

    /// This thread's number within the team (`omp_get_thread_num`).
    #[inline]
    pub fn thread_num(&self) -> usize {
        self.gtid
    }

    /// The team size (`omp_get_num_threads`).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.team.size
    }

    /// Whether this thread is the master of the team.
    #[inline]
    pub fn is_master(&self) -> bool {
        self.gtid == 0
    }

    /// The executing parallel region's ID.
    #[inline]
    pub fn region_id(&self) -> u64 {
        self.team.region_id
    }

    /// The parent region's ID (0 when not nested).
    #[inline]
    pub fn parent_region_id(&self) -> u64 {
        self.team.parent_region_id
    }

    /// The nesting level (`omp_get_level`): 1 in a top-level region,
    /// incremented per nested region whether serialized or real.
    #[inline]
    pub fn level(&self) -> u32 {
        self.team.level
    }

    /// Fire `event` as this thread. An event names the thread by its
    /// descriptor's gtid, not its member ID: a worker leased to a nested
    /// team and a thread running a serialized nested region keep the
    /// gtid they fire under everywhere else, so no two threads share one.
    #[inline]
    fn fire(&self, event: Event, wait_id: u64) {
        self.shared.fire(
            event,
            self.desc.gtid,
            self.team.region_id,
            self.team.parent_region_id,
            wait_id,
        );
    }

    // ------------------------------------------------------------------
    // Barriers — implicit and explicit are distinct runtime calls so tools
    // can tell them apart (the paper had to split its single barrier call,
    // §IV-C2).
    // ------------------------------------------------------------------

    /// An explicit `#pragma omp barrier`.
    pub fn barrier(&self) {
        let _frame = psx::enter(syms().ebarrier);
        let wait_id = self.desc.barrier_id.next();
        let prev = self.desc.state.replace(ThreadState::ExplicitBarrier);
        self.fire(Event::ThreadBeginExplicitBarrier, wait_id);
        self.team.barrier.wait(self.gtid);
        // State is restored before the end event fires, so a state query
        // from the end callback (or any later sample) sees the post-wait
        // state — the wait interval is exactly bracketed by the events.
        self.desc.state.set(prev);
        self.fire(Event::ThreadEndExplicitBarrier, wait_id);
    }

    /// The implicit barrier ending a region or worksharing construct
    /// (`__ompc_ibarrier` in the paper's Fig. 2). Subsumes a `taskwait`:
    /// queued tasks are guaranteed complete before the barrier releases.
    pub fn implicit_barrier(&self) {
        if self.team.tasks.used() {
            self.taskwait();
        }
        let _frame = psx::enter(syms().ibarrier);
        let wait_id = self.desc.barrier_id.next();
        let prev = self.desc.state.replace(ThreadState::ImplicitBarrier);
        self.fire(Event::ThreadBeginImplicitBarrier, wait_id);
        self.team.barrier.wait(self.gtid);
        self.desc.state.set(prev);
        self.fire(Event::ThreadEndImplicitBarrier, wait_id);
    }

    // ------------------------------------------------------------------
    // Worksharing loops
    // ------------------------------------------------------------------

    fn next_loop_seq(&self) -> u64 {
        self.loop_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The `__ompc_static_init_4` analogue: this thread's contiguous block
    /// of `lo..=hi` (stride `stride`) under the static-even schedule.
    /// Computing the schedule is runtime overhead, and is accounted as
    /// such in the thread state.
    pub fn static_init(&self, lo: i64, hi: i64, stride: i64) -> Option<Chunk> {
        let _frame = psx::enter(syms().static_init);
        let prev = self.desc.state.replace(ThreadState::Overhead);
        let chunk = static_even(lo, hi, stride, self.gtid, self.team.size);
        self.desc.state.set(prev);
        chunk
    }

    /// Run `body` over this thread's share of `lo..=hi` under `schedule`.
    /// All team threads must call this with the same loop. No implied
    /// barrier (compose with [`ParCtx::implicit_barrier`] for the
    /// non-`nowait` form).
    pub fn for_schedule(
        &self,
        schedule: Schedule,
        lo: i64,
        hi: i64,
        stride: i64,
        mut body: impl FnMut(i64),
    ) {
        let seq = self.next_loop_seq();
        // Extension events relating worksharing loops to their barriers:
        // the wait-ID field carries the loop sequence number (paper §VI
        // names this linkage as missing from ORA).
        self.fire(Event::LoopBegin, seq);
        match schedule {
            Schedule::StaticEven => {
                if let Some(chunk) = self.static_init(lo, hi, stride) {
                    for i in chunk.values(stride) {
                        body(i);
                    }
                }
            }
            Schedule::StaticChunk(chunk_size) => {
                let chunks = {
                    let _frame = psx::enter(syms().static_init);
                    let prev = self.desc.state.replace(ThreadState::Overhead);
                    let chunks =
                        static_chunks(lo, hi, stride, chunk_size, self.gtid, self.team.size);
                    self.desc.state.set(prev);
                    chunks
                };
                for chunk in chunks {
                    for i in chunk.values(stride) {
                        body(i);
                    }
                }
            }
            Schedule::Dynamic(_) | Schedule::Guided(_) => {
                let nthreads = self.team.size;
                let shared_loop = self
                    .team
                    .dynamic_loop(seq, || DynamicLoop::new(lo, hi, stride, schedule, nthreads));
                // Per-thread batched claimer: chunks are served from a
                // thread-local cache and the shared claim counter is only
                // touched once per batch (see `schedule::Claimer`).
                let mut claimer = shared_loop.claimer();
                loop {
                    let claimed = {
                        let _frame = psx::enter(syms().dispatch);
                        let prev = self.desc.state.replace(ThreadState::Overhead);
                        let claimed = claimer.next_chunk();
                        self.desc.state.set(prev);
                        claimed
                    };
                    let Some(chunk) = claimed else { break };
                    for i in chunk.values(stride) {
                        body(i);
                    }
                }
                self.team.finish_dynamic_loop(seq);
            }
        }
        self.fire(Event::LoopEnd, seq);
    }

    /// Worksharing loop with the runtime's default schedule; no implied
    /// barrier.
    pub fn for_each(&self, lo: i64, hi: i64, body: impl FnMut(i64)) {
        self.for_schedule(self.shared.config.schedule, lo, hi, 1, body);
    }

    /// Worksharing loop followed by the implicit barrier (the plain
    /// `#pragma omp for` form).
    pub fn for_each_barrier(&self, lo: i64, hi: i64, body: impl FnMut(i64)) {
        self.for_each(lo, hi, body);
        self.implicit_barrier();
    }

    // ------------------------------------------------------------------
    // Reductions — a dedicated runtime call, split from critical regions
    // just as the paper modified OpenUH's translation (§IV-C5).
    // ------------------------------------------------------------------

    /// Combine this thread's partial result into the shared accumulator:
    /// the `__ompc_reduction` / `__ompc_end_reduction` pair. The thread is
    /// in the reduction state for the duration, including any wait on the
    /// team's reduction lock.
    pub fn reduction(&self, combine: impl FnOnce()) {
        let _frame = psx::enter(syms().reduction);
        let prev = self.desc.state.replace(ThreadState::Reduction);
        self.team.reduction_lock.lock();
        combine();
        self.team.reduction_lock.unlock();
        self.desc.state.set(prev);
    }

    /// Worksharing sum-reduction over `lo..=hi`: each thread accumulates
    /// its share of `f(i)` locally, then combines under the reduction
    /// lock. Every thread returns the same total (an implicit barrier
    /// orders the combine before the read).
    pub fn for_reduce_sum(&self, lo: i64, hi: i64, f: impl Fn(i64) -> f64, acc: &AtomicU64) -> f64 {
        let mut local = 0.0f64;
        self.for_each(lo, hi, |i| local += f(i));
        self.reduction(|| {
            let cur = f64::from_bits(acc.load(Ordering::Relaxed));
            acc.store((cur + local).to_bits(), Ordering::Relaxed);
        });
        self.implicit_barrier();
        f64::from_bits(acc.load(Ordering::Relaxed))
    }

    /// Worksharing min-reduction over `lo..=hi` (`reduction(min:x)`).
    /// Every thread returns the minimum of `f` over the whole range.
    pub fn for_reduce_min(&self, lo: i64, hi: i64, f: impl Fn(i64) -> f64, acc: &AtomicU64) -> f64 {
        let mut local = f64::INFINITY;
        self.for_each(lo, hi, |i| local = local.min(f(i)));
        self.reduction(|| {
            let cur = f64::from_bits(acc.load(Ordering::Relaxed));
            acc.store(cur.min(local).to_bits(), Ordering::Relaxed);
        });
        self.implicit_barrier();
        f64::from_bits(acc.load(Ordering::Relaxed))
    }

    /// Worksharing max-reduction over `lo..=hi` (`reduction(max:x)`).
    pub fn for_reduce_max(&self, lo: i64, hi: i64, f: impl Fn(i64) -> f64, acc: &AtomicU64) -> f64 {
        let mut local = f64::NEG_INFINITY;
        self.for_each(lo, hi, |i| local = local.max(f(i)));
        self.reduction(|| {
            let cur = f64::from_bits(acc.load(Ordering::Relaxed));
            acc.store(cur.max(local).to_bits(), Ordering::Relaxed);
        });
        self.implicit_barrier();
        f64::from_bits(acc.load(Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Critical regions
    // ------------------------------------------------------------------

    /// A critical region guarded by `lock`, the lock word a compiler
    /// emits per critical name: callers declare one
    /// `static NAME: WordLock = WordLock::new();` per name and pass it from
    /// every site of that name. The probe is the construct's first shared
    /// access; the wait state/events fire only when it fails and the
    /// thread actually blocks (paper §IV-C4).
    pub fn critical(&self, lock: &WordLock, body: impl FnOnce()) {
        let _frame = psx::enter(syms().critical);
        if !lock.try_lock() {
            let wait_id = self.desc.critical_wait_id.next();
            let prev = self.desc.state.replace(ThreadState::CriticalWait);
            self.fire(Event::ThreadBeginCriticalWait, wait_id);
            lock.lock_slow();
            self.desc.state.set(prev);
            self.fire(Event::ThreadEndCriticalWait, wait_id);
        }
        body();
        lock.unlock();
    }

    // ------------------------------------------------------------------
    // Ordered sections
    // ------------------------------------------------------------------

    /// A worksharing loop whose whole body is an ordered section: bodies
    /// run in global iteration order. Threads that arrive before their
    /// turn enter the ordered-wait state and fire ODWT events.
    pub fn for_ordered(&self, lo: i64, hi: i64, stride: i64, mut body: impl FnMut(i64)) {
        let seq = self.next_loop_seq();
        self.fire(Event::LoopBegin, seq);
        let state = self.team.ordered_loop(seq, lo);
        let chunk = self.static_init(lo, hi, stride);
        if let Some(chunk) = chunk {
            for i in chunk.values(stride) {
                let _frame = psx::enter(syms().ordered);
                if !state.is_turn(i) {
                    let wait_id = self.desc.ordered_wait_id.next();
                    let prev = self.desc.state.replace(ThreadState::OrderedWait);
                    self.fire(Event::ThreadBeginOrderedWait, wait_id);
                    state.wait_turn(self.gtid, i);
                    self.desc.state.set(prev);
                    self.fire(Event::ThreadEndOrderedWait, wait_id);
                }
                body(i);
                state.advance(i + stride);
            }
        }
        self.team.finish_ordered_loop(seq);
        self.fire(Event::LoopEnd, seq);
    }

    // ------------------------------------------------------------------
    // Master and single
    // ------------------------------------------------------------------

    /// A `master` construct: two runtime calls bracket the body so both
    /// entry and exit events are observable (the paper had to add the
    /// second call, §IV-C6). Thread state defaults to work inside, as the
    /// paper chose.
    pub fn master(&self, body: impl FnOnce()) {
        if self.gtid != 0 {
            return;
        }
        let _frame = psx::enter(syms().master);
        self.fire(Event::ThreadBeginMaster, 0);
        self.desc.state.set(ThreadState::Working);
        body();
        self.fire(Event::ThreadEndMaster, 0);
    }

    /// A `single nowait` construct: exactly one team thread runs `body`.
    /// Returns whether this thread was the one.
    pub fn single_nowait(&self, body: impl FnOnce()) -> bool {
        let my_seq = self.single_seq.fetch_add(1, Ordering::Relaxed);
        let _frame = psx::enter(syms().single);
        if self.team.claim_single(my_seq) {
            self.fire(Event::ThreadBeginSingle, 0);
            self.desc.state.set(ThreadState::Working);
            body();
            self.fire(Event::ThreadEndSingle, 0);
            true
        } else {
            false
        }
    }

    /// A `single` construct with its implicit closing barrier.
    pub fn single(&self, body: impl FnOnce()) -> bool {
        let ran = self.single_nowait(body);
        self.implicit_barrier();
        ran
    }

    /// A `single copyprivate` construct: one thread computes a value, the
    /// construct's barrier publishes it, and every team thread returns a
    /// copy.
    pub fn single_copy<T: Clone + Send + 'static>(&self, body: impl FnOnce() -> T) -> T {
        self.single_nowait(|| {
            let value = body();
            self.team.set_broadcast(Box::new(value));
        });
        self.implicit_barrier();
        let value = self
            .team
            .read_broadcast::<T>()
            .expect("single executor published the copyprivate value");
        // Second barrier: no thread may race ahead and overwrite the
        // broadcast slot (as the next construct's executor) before every
        // teammate has read this one.
        self.implicit_barrier();
        value
    }

    // ------------------------------------------------------------------
    // Atomics
    // ------------------------------------------------------------------

    /// An atomic update of `cell` with `f`. When the runtime is configured
    /// with `atomic_events` (off by default — the paper's OpenUH leaves
    /// atomic wait events unimplemented because of their cost, §IV-C7), a
    /// contended update raises the atomic-wait state and ATWT events
    /// around the retry loop.
    pub fn atomic_update(&self, cell: &AtomicU64, f: impl Fn(u64) -> u64) {
        let mut cur = cell.load(Ordering::Relaxed);
        match cell.compare_exchange(cur, f(cur), Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
        // Contended path.
        let eventing = self.shared.config.atomic_events;
        let (wait_id, prev) = if eventing {
            let wait_id = self.desc.atomic_wait_id.next();
            let prev = self.desc.state.replace(ThreadState::AtomicWait);
            self.fire(Event::ThreadBeginAtomicWait, wait_id);
            (wait_id, prev)
        } else {
            (0, self.desc.state.get())
        };
        loop {
            match cell.compare_exchange_weak(cur, f(cur), Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => {
                    cur = seen;
                    std::hint::spin_loop();
                }
            }
        }
        if eventing {
            self.desc.state.set(prev);
            self.fire(Event::ThreadEndAtomicWait, wait_id);
        }
    }

    /// Atomic `+=` on an `f64` stored as bits in an `AtomicU64`.
    pub fn atomic_add_f64(&self, cell: &AtomicU64, v: f64) {
        self.atomic_update(cell, |bits| (f64::from_bits(bits) + v).to_bits());
    }

    // ------------------------------------------------------------------
    // Explicit tasks (OpenMP 3.0 extension — the paper's future work)
    // ------------------------------------------------------------------

    /// Create an explicit **tied** task: it is pinned to this thread's
    /// deque and only this thread executes it (see the scheduling notes
    /// in [`crate::task`]). Guaranteed complete by the next
    /// [`ParCtx::taskwait`] or barrier.
    ///
    /// The closure must be `'static` (move shared data in via `Arc`/
    /// atomics). For tasks that borrow region-lived data, see
    /// [`ParCtx::task_borrowed`].
    pub fn task<F: FnOnce() + Send + 'static>(&self, f: F) {
        // SAFETY: 'static captures trivially satisfy the drain contract.
        let task = unsafe {
            crate::task::ErasedTask::new(crate::task::TaskKind::Tied, self.gtid, move |_| f())
        };
        self.team.tasks.push(task);
    }

    /// Create an explicit **untied** task: any team thread may steal and
    /// execute it.
    pub fn task_untied<F: FnOnce() + Send + 'static>(&self, f: F) {
        // SAFETY: as for `task`.
        let task = unsafe {
            crate::task::ErasedTask::new(crate::task::TaskKind::Untied, self.gtid, move |_| f())
        };
        self.team.tasks.push(task);
    }

    /// Create a tied task whose body receives a [`TaskScope`] for
    /// spawning nested child tasks (task trees).
    ///
    /// [`TaskScope`]: crate::task::TaskScope
    pub fn task_scoped<F>(&self, f: F)
    where
        F: for<'s> FnOnce(&crate::task::TaskScope<'s>) + Send + 'static,
    {
        // SAFETY: as for `task`.
        let task =
            unsafe { crate::task::ErasedTask::new(crate::task::TaskKind::Tied, self.gtid, f) };
        self.team.tasks.push(task);
    }

    /// Create an explicit tied task whose closure borrows non-`'static`
    /// data.
    ///
    /// # Safety
    /// Every borrow captured by `f` must remain valid until the next
    /// [`ParCtx::taskwait`] or barrier *on this thread's control path*
    /// (tasks are guaranteed executed by then). In particular, do not
    /// capture references to loop-iteration locals that die before the
    /// wait — move such values into the closure instead.
    pub unsafe fn task_borrowed<F: FnOnce() + Send>(&self, f: F) {
        let task = unsafe {
            crate::task::ErasedTask::new(crate::task::TaskKind::Tied, self.gtid, move |_| f())
        };
        self.team.tasks.push(task);
    }

    /// Create an explicit **untied** borrowing task — the stealable
    /// variant of [`ParCtx::task_borrowed`].
    ///
    /// # Safety
    /// As for [`ParCtx::task_borrowed`], with the added caveat that any
    /// team thread may run the closure, so the captures must also be
    /// sound to touch from a stealing thread (the `Send` bound enforces
    /// this for the types; aliasing discipline is on the caller).
    pub unsafe fn task_borrowed_untied<F: FnOnce() + Send>(&self, f: F) {
        let task = unsafe {
            crate::task::ErasedTask::new(crate::task::TaskKind::Untied, self.gtid, move |_| f())
        };
        self.team.tasks.push(task);
    }

    /// Run one popped task, firing `TaskBegin`/`TaskEnd` with the task's
    /// ID in the wait-ID field and keeping the state word at `Working`
    /// for the duration. `TaskEnd` fires after the state is restored, as
    /// every other interval's End does.
    fn run_task(&self, task: crate::task::ErasedTask) {
        let pool = &self.team.tasks;
        let id = task.id();
        let prev = self.desc.state.replace(ThreadState::Working);
        self.fire(Event::TaskBegin, id);
        task.run(&crate::task::TaskScope::new(pool, self.gtid));
        self.desc.state.set(prev);
        self.fire(Event::TaskEnd, id);
        pool.complete();
    }

    /// Execute queued tasks until the team's task queue is quiescent —
    /// `#pragma omp taskwait` (with the stronger all-team-tasks semantics
    /// the implicit barrier needs). Fires the extension taskwait events
    /// and sets `THR_TSKWT_STATE` while waiting. A thread with no
    /// eligible task waits on the pool's event count instead of
    /// spinning, leaving the core to whichever thread holds runnable
    /// work.
    pub fn taskwait(&self) {
        let pool = &self.team.tasks;
        if pool.outstanding() == 0 {
            return;
        }
        let wait_id = self.desc.task_wait_id.next();
        let prev = self.desc.state.replace(ThreadState::TaskWait);
        self.fire(Event::TaskWaitBegin, wait_id);
        while let Some(task) = pool.next_task(self.gtid) {
            self.run_task(task);
        }
        self.desc.state.set(prev);
        self.fire(Event::TaskWaitEnd, wait_id);
    }

    // ------------------------------------------------------------------
    // Sections
    // ------------------------------------------------------------------

    /// A `sections` construct: each closure in `sections` runs exactly
    /// once, distributed over the team (single-style arbitration per
    /// section), followed by the implicit barrier.
    pub fn sections(&self, sections: &[&(dyn Fn() + Sync)]) {
        for section in sections {
            self.single_nowait(*section);
        }
        self.implicit_barrier();
    }

    /// The thread's descriptor (for tests and collectors running in-line).
    pub fn descriptor(&self) -> &ThreadDescriptor {
        self.desc
    }
}
