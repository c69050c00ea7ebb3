//! One identity per live thread: its slot, and the tables keyed by it.
//!
//! A thread claims a slot below [`THREAD_SLOTS`] on its first call to
//! [`slot`] and holds it until it exits. Every per-thread structure is a
//! [`SlotTable`] indexed by the slot (RCU's readers, the governor's
//! lanes, the collectors' accounts), so each entry has one writer, even
//! for two OS threads under one gtid (paper §IV-B, §IV-C). The claim is
//! an acquiring CAS and the release at exit a release store, so what a
//! holder wrote under the slot happens before the next holder's first
//! access; an entry that must not pass one holder's state on records
//! [`owner`].

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::pad::CachePadded;

/// Number of thread slots. Threads beyond this many *concurrently live*
/// ones briefly spin waiting for an exiting thread to release a slot.
pub const THREAD_SLOTS: usize = 1024;

/// Per slot: twice the claims so far, plus one while a thread holds it.
static CLAIMS: [AtomicU64; THREAD_SLOTS] = [const { AtomicU64::new(0) }; THREAD_SLOTS];

/// A thread's claim on one slot, released when the thread exits.
struct Claim {
    slot: usize,
    /// The claim word while held: odd, and never the same twice per slot.
    owner: u64,
}

fn claim() -> Claim {
    loop {
        for (slot, word) in CLAIMS.iter().enumerate() {
            let free = word.load(Ordering::Relaxed);
            if free % 2 == 0
                && word
                    .compare_exchange(free, free + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                let owner = free + 1;
                return Claim { slot, owner };
            }
        }
        // All slots claimed by live threads; wait for one to exit.
        std::thread::yield_now();
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        CLAIMS[self.slot].store(self.owner + 1, Ordering::Release);
    }
}

thread_local! {
    static CLAIM: Claim = claim();
}

/// The calling thread's slot: below [`THREAD_SLOTS`], held by no other
/// live thread, and handed on at exit (module docs).
#[inline]
pub fn slot() -> usize {
    CLAIM.with(|c| c.slot)
}

/// Which claim of its slot the calling thread holds: nonzero, and
/// different for every thread that holds the same slot.
#[inline]
pub fn owner() -> u64 {
    CLAIM.with(|c| c.owner)
}

/// Add `n` to a word only the calling thread writes, such as a word of
/// its own [`SlotTable`] entry: a relaxed load and store, no locked
/// instruction. Returns the new value.
#[inline(always)]
pub fn add(word: &AtomicU64, n: u64) -> u64 {
    let next = word.load(Ordering::Relaxed) + n;
    word.store(next, Ordering::Relaxed);
    next
}

/// One `T` per thread slot, boxed on a cache line of its own at the
/// holder's first [`SlotTable::local`] and freed when the table drops
/// (so `T: Send`). Only the holder writes an entry, with relaxed loads
/// and stores; any thread reads them all ([`SlotTable::iter`], `T: Sync`).
pub struct SlotTable<T: Send + Sync> {
    entries: [AtomicPtr<CachePadded<T>>; THREAD_SLOTS],
    /// One past the highest slot with an entry: iteration stops here.
    high: AtomicUsize,
}

impl<T: Send + Sync> SlotTable<T> {
    /// A table with no entries.
    pub const fn new() -> Self {
        SlotTable {
            entries: [const { AtomicPtr::new(ptr::null_mut()) }; THREAD_SLOTS],
            high: AtomicUsize::new(0),
        }
    }

    /// The calling thread's entry, allocated on its slot's first use.
    #[inline]
    pub fn local(&self) -> &T
    where
        T: Default,
    {
        let slot = slot();
        // Relaxed: this thread stored the pointer, or an earlier holder
        // of the slot did and handed it on through the slot's claim.
        let entry = self.entries[slot].load(Ordering::Relaxed);
        if entry.is_null() {
            return self.first_use(slot);
        }
        // SAFETY: a non-null entry came from `Box::into_raw` in
        // `first_use` and is freed only when the table drops.
        unsafe { &*entry }
    }

    #[cold]
    fn first_use(&self, slot: usize) -> &T
    where
        T: Default,
    {
        let entry = Box::into_raw(Box::<CachePadded<T>>::default());
        self.entries[slot].store(entry, Ordering::Release);
        self.high.fetch_max(slot + 1, Ordering::Release);
        // SAFETY: just allocated; freed only when the table drops.
        unsafe { &*entry }
    }

    /// Every entry allocated so far, in slot order, with its slot.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let high = self.high.load(Ordering::Acquire);
        self.entries[..high]
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| {
                let entry = entry.load(Ordering::Acquire);
                // SAFETY: as in `local`.
                (!entry.is_null()).then(|| (slot, unsafe { &**entry }))
            })
    }
}

impl<T: Send + Sync> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> Drop for SlotTable<T> {
    fn drop(&mut self) {
        for entry in &mut self.entries {
            if !entry.get_mut().is_null() {
                // SAFETY: from `Box::into_raw` in `first_use`; `&mut self`
                // means no thread still holds a reference into the table.
                drop(unsafe { Box::from_raw(*entry.get_mut()) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn live_threads_hold_distinct_slots_and_owners() {
        let barrier = Barrier::new(8);
        let claims: Vec<(usize, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let claim = (slot(), owner());
                        // Hold the slot until every thread has one.
                        barrier.wait();
                        claim
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, a) in claims.iter().enumerate() {
            assert!(a.0 < THREAD_SLOTS && a.1 % 2 == 1, "{a:?}");
            assert!(claims[i + 1..].iter().all(|b| b.0 != a.0), "{claims:?}");
        }
    }

    #[test]
    fn entries_are_per_thread_allocated_on_first_use_and_iterated() {
        let table = SlotTable::<AtomicU64>::new();
        assert_eq!(table.iter().count(), 0, "a fresh table has no entry");
        let barrier = Barrier::new(3);
        std::thread::scope(|s| {
            for n in 1..=3u64 {
                let (table, barrier) = (&table, &barrier);
                s.spawn(move || {
                    let mine = table.local();
                    mine.store(n, Ordering::Relaxed);
                    assert!(std::ptr::eq(mine, table.local()), "one entry per thread");
                    barrier.wait();
                });
            }
        });
        let mut values: Vec<u64> = table
            .iter()
            .map(|(_, entry)| entry.load(Ordering::Relaxed))
            .collect();
        values.sort_unstable();
        assert_eq!(values, [1, 2, 3]);
        assert!(table.high.load(Ordering::Relaxed) <= THREAD_SLOTS);
    }
}
