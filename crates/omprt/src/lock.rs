//! User-defined OpenMP locks (`omp_lock_t` / `omp_nest_lock_t`).
//!
//! "There are several places within our OpenMP runtime library where
//! implicit locks are used; however we trigger this state and the events
//! only for user-defined locks." (paper §IV-C3) — so these types, created
//! explicitly by the program, raise LKWT state/events on contention, while
//! the runtime's internal locks never do.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ora_core::event::Event;
use ora_core::state::ThreadState;
use ora_core::thread;

use crate::runtime::{syms, OpenMp, Shared};
use crate::tls;
use crate::wordlock::WordLock;

/// No owner sentinel for nested locks: never a thread slot, which names
/// a nested lock's owner ([`thread::slot`]: distinct between threads
/// alive at once).
const NO_OWNER: usize = usize::MAX;

/// A user lock (`omp_init_lock` / `omp_set_lock` / `omp_unset_lock`).
pub struct OmpLock {
    shared: Arc<Shared>,
    raw: WordLock,
}

impl OmpLock {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        OmpLock {
            shared,
            raw: WordLock::new(),
        }
    }

    /// `omp_set_lock`: acquire, raising the lock-wait state and LKWT
    /// events only if the initial probe fails (paper §IV-C3).
    pub fn set(&self) {
        let _frame = psx::enter(syms().lock);
        if self.raw.try_lock() {
            return;
        }
        let binding = tls::with_binding(self.shared.instance, |_, desc, team| {
            (desc.clone(), team.cloned())
        });
        match binding {
            Some((desc, team)) => {
                let gtid = desc.gtid;
                let wait_id = desc.lock_wait_id.next();
                let (rid, prid) = team
                    .as_ref()
                    .map(|t| (t.region_id, t.parent_region_id))
                    .unwrap_or((0, 0));
                let prev = desc.state.replace(ThreadState::LockWait);
                self.shared
                    .fire(Event::ThreadBeginLockWait, gtid, rid, prid, wait_id);
                self.raw.lock_slow();
                desc.state.set(prev);
                self.shared
                    .fire(Event::ThreadEndLockWait, gtid, rid, prid, wait_id);
            }
            // A thread unknown to the runtime still gets the lock, just
            // without state/event bookkeeping.
            None => self.raw.lock_slow(),
        }
    }

    /// `omp_test_lock`: acquire only if immediately available.
    pub fn test(&self) -> bool {
        self.raw.try_lock()
    }

    /// `omp_unset_lock`.
    pub fn unset(&self) {
        self.raw.unlock();
    }
}

/// A nestable user lock (`omp_nest_lock_t`): the owning thread may
/// re-acquire; each `set` must be matched by an `unset`.
pub struct OmpNestLock {
    inner: OmpLock,
    owner: AtomicUsize,
    depth: AtomicU64,
}

impl OmpNestLock {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        OmpNestLock {
            inner: OmpLock::new(shared),
            owner: AtomicUsize::new(NO_OWNER),
            depth: AtomicU64::new(0),
        }
    }

    /// `omp_set_nest_lock`: "the same procedure is applied for nested
    /// locks" (paper §IV-C3) — contention raises LKWT exactly like the
    /// plain lock; re-acquisition by the owner just bumps the depth.
    pub fn set(&self) -> u64 {
        let me = thread::slot();
        if self.owner.load(Ordering::Acquire) == me {
            return self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        }
        self.inner.set();
        self.owner.store(me, Ordering::Release);
        self.depth.store(1, Ordering::Relaxed);
        1
    }

    /// `omp_unset_nest_lock`: returns the remaining depth.
    pub fn unset(&self) -> u64 {
        assert_eq!(
            self.owner.load(Ordering::Acquire),
            thread::slot(),
            "omp_unset_nest_lock called by non-owner"
        );
        let remaining = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        if remaining == 0 {
            self.owner.store(NO_OWNER, Ordering::Release);
            self.inner.unset();
        }
        remaining
    }

    /// `omp_test_nest_lock`: non-blocking; returns the new depth or 0.
    pub fn test(&self) -> u64 {
        let me = thread::slot();
        if self.owner.load(Ordering::Acquire) == me {
            return self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        }
        if self.inner.test() {
            self.owner.store(me, Ordering::Release);
            self.depth.store(1, Ordering::Relaxed);
            1
        } else {
            0
        }
    }
}

impl OpenMp {
    /// `omp_init_lock`.
    pub fn new_lock(&self) -> OmpLock {
        OmpLock::new(self.shared_arc())
    }

    /// `omp_init_nest_lock`.
    pub fn new_nest_lock(&self) -> OmpNestLock {
        OmpNestLock::new(self.shared_arc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lock_provides_mutual_exclusion_in_regions() {
        let rt = OpenMp::with_threads(4);
        let lock = rt.new_lock();
        let counter = AtomicU64::new(0);
        rt.parallel(|ctx| {
            for _ in 0..1000 {
                lock.set();
                let v = counter.load(Ordering::Relaxed);
                counter.store(v + 1, Ordering::Relaxed);
                lock.unset();
            }
            let _ = ctx;
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn test_lock_does_not_block() {
        let rt = OpenMp::with_threads(2);
        let lock = rt.new_lock();
        assert!(lock.test());
        assert!(!lock.test());
        lock.unset();
        assert!(lock.test());
        lock.unset();
    }

    #[test]
    fn nest_lock_reenters_for_owner() {
        let rt = OpenMp::with_threads(2);
        let lock = rt.new_nest_lock();
        assert_eq!(lock.set(), 1);
        assert_eq!(lock.set(), 2);
        assert_eq!(lock.test(), 3);
        assert_eq!(lock.unset(), 2);
        assert_eq!(lock.unset(), 1);
        assert_eq!(lock.unset(), 0);
        // Fully released: acquirable again from scratch.
        assert_eq!(lock.set(), 1);
        assert_eq!(lock.unset(), 0);
    }

    #[test]
    fn nest_lock_excludes_other_threads() {
        let rt = OpenMp::with_threads(2);
        let lock = Arc::new(rt.new_nest_lock());
        lock.set();
        let l2 = lock.clone();
        let other = std::thread::spawn(move || l2.test());
        assert_eq!(other.join().unwrap(), 0);
        lock.unset();
    }

    #[test]
    fn contended_set_fires_lkwt_events() {
        use ora_core::request::Request;
        use std::sync::atomic::AtomicUsize;

        let rt = OpenMp::with_threads(4);
        let api = rt.collector_api();
        api.handle_request(Request::Start).unwrap();
        let begins = Arc::new(AtomicUsize::new(0));
        let b = begins.clone();
        api.register_callback(
            Event::ThreadBeginLockWait,
            Arc::new(move |_| {
                b.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();

        let lock = rt.new_lock();
        let attempting = AtomicUsize::new(0);
        rt.parallel(|ctx| {
            if ctx.is_master() {
                lock.set();
            }
            ctx.barrier();
            if ctx.is_master() {
                // Keep the lock held until every other thread is at its
                // acquire attempt, so their probes are guaranteed to fail.
                while attempting.load(Ordering::SeqCst) < ctx.num_threads() - 1 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                lock.unset();
            } else {
                attempting.fetch_add(1, Ordering::SeqCst);
                lock.set();
                lock.unset();
            }
        });
        assert!(
            begins.load(Ordering::SeqCst) >= 2,
            "threads acquiring a held lock must raise LKWT (saw {})",
            begins.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn uncontended_set_fires_no_events() {
        use ora_core::request::Request;
        use std::sync::atomic::AtomicUsize;

        let rt = OpenMp::with_threads(1);
        let api = rt.collector_api();
        api.handle_request(Request::Start).unwrap();
        let begins = Arc::new(AtomicUsize::new(0));
        let b = begins.clone();
        api.register_callback(
            Event::ThreadBeginLockWait,
            Arc::new(move |_| {
                b.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();

        let lock = rt.new_lock();
        for _ in 0..100 {
            lock.set();
            lock.unset();
        }
        assert_eq!(begins.load(Ordering::SeqCst), 0);
    }
}
