//! Epoch-based read-copy-update support for the lock-free callback table.
//!
//! The paper's requirement (§IV-C) is asymmetric: event dispatch happens
//! on every instrumented runtime operation and must be as close to free
//! as possible, while (un)registration happens a handful of times per run.
//! This module gives readers a wait-free *pin* — two plain stores to a
//! thread-private slot, no shared-cacheline read-modify-write, no lock —
//! and makes writers pay for memory reclamation instead.
//!
//! Protocol (classic epoch-based reclamation, specialized to this crate):
//!
//! * A process-global epoch counter only ever advances when a writer
//!   retires something.
//! * Each reading thread owns one slot in a global table. Pinning stores
//!   the current epoch into the slot; unpinning stores 0 (quiescent).
//!   Pins nest (a callback may re-enter the registry).
//! * A writer that unlinks a published pointer bumps the epoch to `r` and
//!   stamps the garbage with it. The garbage may be freed once every slot
//!   is quiescent or pinned at an epoch `>= r`: such readers pinned after
//!   the unlink was globally visible, so they cannot have loaded the old
//!   pointer. Readers pinned at an older epoch keep the garbage alive.
//! * Nothing blocks: writers that cannot free yet leave the garbage in
//!   the bag; a later retire (or the bag's drop) reclaims it.
//!
//! All protocol accesses use `SeqCst`: the reader's slot-store →
//! pointer-load and the writer's pointer-unlink → slot-scan are a
//! store/load (Dekker) race that weaker orderings do not close. On the
//! dispatch fast path this costs one fenced store, still far below the
//! uncontended lock + `Arc` clone it replaces.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::pad::CachePadded;
use crate::sync::Mutex;

/// Number of reader slots. Threads beyond this many *concurrently live*
/// readers briefly spin waiting for an exiting thread to release a slot.
const MAX_READERS: usize = 1024;

/// The epoch value meaning "not in a read-side critical section".
const QUIESCENT: u64 = 0;

struct ReaderSlot {
    /// Pinned epoch, or [`QUIESCENT`].
    epoch: AtomicU64,
    /// Whether some live thread owns this slot.
    claimed: AtomicBool,
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: CachePadded<ReaderSlot> = CachePadded::new(ReaderSlot {
    epoch: AtomicU64::new(QUIESCENT),
    claimed: AtomicBool::new(false),
});

/// One line per slot: a pin is two stores to the owner's slot on every
/// monitored event, and slots are claimed in index order, so unpadded
/// neighbours (a master and its first worker) would trade one cache line
/// back and forth per event — or not, depending on where the linker
/// happened to start the array.
static SLOTS: [CachePadded<ReaderSlot>; MAX_READERS] = [SLOT_INIT; MAX_READERS];

/// Global epoch. Starts at 1 so no retire stamp is ever [`QUIESCENT`].
/// Read by every pin, so it gets a line no other static can write into.
static EPOCH: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(1));

/// A thread's claim on one reader slot, released when the thread exits.
struct ReaderHandle {
    idx: usize,
    depth: Cell<usize>,
}

impl ReaderHandle {
    fn acquire() -> ReaderHandle {
        loop {
            for (idx, slot) in SLOTS.iter().enumerate() {
                if slot
                    .claimed
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return ReaderHandle {
                        idx,
                        depth: Cell::new(0),
                    };
                }
            }
            // All slots claimed by live threads; wait for one to exit.
            std::thread::yield_now();
        }
    }
}

impl Drop for ReaderHandle {
    fn drop(&mut self) {
        let slot = &SLOTS[self.idx];
        slot.epoch.store(QUIESCENT, Ordering::SeqCst);
        slot.claimed.store(false, Ordering::Release);
    }
}

thread_local! {
    static READER: ReaderHandle = ReaderHandle::acquire();
}

/// An active read-side critical section. While any `Pin` is alive on any
/// thread, pointers unlinked *after* it was created are not reclaimed.
///
/// Created by [`pin`]; ends when dropped. Cheap to nest.
#[must_use = "a Pin only protects reads while it is alive"]
pub struct Pin {
    slot: usize,
}

/// Enter a read-side critical section.
pub fn pin() -> Pin {
    READER.with(|r| {
        let depth = r.depth.get();
        r.depth.set(depth + 1);
        if depth == 0 {
            let e = EPOCH.load(Ordering::SeqCst);
            SLOTS[r.idx].epoch.store(e, Ordering::SeqCst);
        }
        Pin { slot: r.idx }
    })
}

impl Drop for Pin {
    fn drop(&mut self) {
        READER.with(|r| {
            debug_assert_eq!(r.idx, self.slot);
            let depth = r.depth.get() - 1;
            r.depth.set(depth);
            if depth == 0 {
                SLOTS[r.idx].epoch.store(QUIESCENT, Ordering::SeqCst);
            }
        });
    }
}

/// The earliest epoch any currently pinned reader holds, or `u64::MAX`
/// if every slot is quiescent.
fn min_pinned_epoch() -> u64 {
    SLOTS
        .iter()
        .map(|s| match s.epoch.load(Ordering::SeqCst) {
            QUIESCENT => u64::MAX,
            e => e,
        })
        .min()
        .unwrap_or(u64::MAX)
}

struct Retired {
    stamp: u64,
    /// Dropping the box reclaims the retired object; the field is never
    /// read, it exists to own the allocation until the epoch expires.
    _item: Box<dyn Send>,
}

/// A container of unlinked-but-not-yet-free objects.
///
/// Owned by the writer-side structure (one per [`CallbackRegistry`]
/// (crate::registry::CallbackRegistry)); its `Drop` reclaims everything
/// left, which is safe because dropping the owner requires exclusive
/// access, so no reader can still be inside it.
#[derive(Default)]
pub struct GarbageBag {
    retired: Mutex<Vec<Retired>>,
}

impl GarbageBag {
    /// An empty bag.
    pub fn new() -> GarbageBag {
        GarbageBag::default()
    }

    /// Hand an unlinked object to the bag. The object is freed on this or
    /// a later call, once no pinned reader can still observe it.
    ///
    /// The caller must have already made the object unreachable for *new*
    /// readers (e.g. swapped the published pointer away) before calling.
    pub fn retire(&self, item: Box<dyn Send>) {
        let stamp = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
        let mut retired = self.retired.lock();
        retired.push(Retired { stamp, _item: item });
        Self::collect_in(&mut retired);
    }

    /// Opportunistically free everything no reader can still observe.
    pub fn collect(&self) {
        Self::collect_in(&mut self.retired.lock());
    }

    fn collect_in(retired: &mut Vec<Retired>) {
        if retired.is_empty() {
            return;
        }
        let horizon = min_pinned_epoch();
        // Keep an item while some reader is pinned at an epoch older than
        // its retire stamp (that reader may have loaded it pre-unlink).
        retired.retain(|r| r.stamp > horizon);
    }

    /// How many retired objects are still awaiting reclamation.
    pub fn pending(&self) -> usize {
        self.retired.lock().len()
    }
}

#[cfg(test)]
impl GarbageBag {
    /// Collect until nothing is pending. The epoch and the reader slots
    /// are process-global, so sibling tests' pinned readers legitimately
    /// hold a bag's garbage past any single round; what a test can
    /// assert is that it is reclaimed within a bounded number of rounds
    /// once they move on, and never lost.
    pub(crate) fn collect_until_quiescent(&self) {
        for _ in 0..2_000 {
            self.collect();
            if self.pending() == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("{} retired object(s) never reclaimed", self.pending());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Increments a counter when dropped, to observe reclamation.
    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unpinned_garbage_is_freed_on_retire() {
        let drops = Arc::new(AtomicUsize::new(0));
        let bag = GarbageBag::new();
        bag.retire(Box::new(DropProbe(drops.clone())));
        // No pinned reader on this thread or others started by this test:
        // the retire itself may not free (stamp == its own epoch), but a
        // follow-up retire or collect reclaims it.
        bag.retire(Box::new(DropProbe(drops.clone())));
        bag.collect_until_quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let bag = GarbageBag::new();
        let guard = pin();
        bag.retire(Box::new(DropProbe(drops.clone())));
        bag.collect();
        // This thread pinned *before* the retire, so the item must live.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(bag.pending(), 1);
        drop(guard);
        bag.collect_until_quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn readers_pinned_after_retire_do_not_block_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let bag = GarbageBag::new();
        bag.retire(Box::new(DropProbe(drops.clone())));
        let _guard = pin(); // pinned at an epoch >= the retire stamp
        bag.collect_until_quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pins_nest() {
        let a = pin();
        let b = pin();
        drop(a);
        // Still pinned: a retire from another thread must not free what
        // this thread could hold. We can at least assert slot state via
        // another nested pin/unpin round trip not panicking.
        drop(b);
        let c = pin();
        drop(c);
    }

    #[test]
    fn bag_drop_reclaims_leftovers() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let bag = GarbageBag::new();
            let _guard = pin();
            bag.retire(Box::new(DropProbe(drops.clone())));
            // Pinned: nothing freed yet; dropping the bag frees anyway
            // (exclusive ownership of the bag implies no reader inside
            // the structure that published the item).
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_threads_pin_concurrently() {
        let handles: Vec<_> = (0..32)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        let _p = pin();
                        std::hint::black_box(&_p);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
