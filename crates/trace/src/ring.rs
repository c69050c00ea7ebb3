//! Lock-free bounded rings for the event hot path.
//!
//! Each OpenMP thread records into "its" ring (rings are assigned by
//! `gtid % lanes`), so the common case is a single producer per ring and
//! the drainer thread is the single consumer. The slots carry their own
//! sequence numbers (Vyukov's bounded-queue discipline), which keeps the
//! ring correct even when two threads collide on a lane and — more
//! importantly — lets the *producer* reclaim a slot under the
//! drop-oldest policy without ever taking a lock.
//!
//! A slot stores its sequence *relative to its index* (the logical
//! sequence minus the index, wrapping), so the all-zero slot is exactly
//! Vyukov's initial state, "free for lap 0". A ring's slot array is
//! therefore an anonymous mapping of its own, never written at
//! construction: the kernel hands out zero pages on first touch, so a
//! fresh ring is untouched memory until a producer records into it, and
//! a lane nobody records into costs address space only. (Zeroed memory
//! from the allocator is not enough: once a freed ring raises glibc's
//! mmap threshold, later rings come from the heap and `calloc` zeroes
//! them by writing.) On its first lap a producer
//! reserves a slot without reading the slot's sequence, so its first
//! touch of each page is a write: a read first would map the shared
//! zero page and turn the commit into a copy-on-write fault that
//! flushes every core's TLB.
//!
//! The record path is exactly one **reserve/commit pair**: a
//! compare-and-swap on the enqueue cursor reserves a slot (uncontended in
//! the per-thread case), a release store of the slot sequence commits
//! it. No mutex, no allocation, no `Arc` traffic — the same discipline
//! as the RCU dispatch path in `ora_core::registry`.
//!
//! The reserved cursor is the record's identity. The producer writes it
//! into the record as its [`RawRecord::seq`], so a lane's seqs are dense
//! and in commit order under every policy (a record dropped by `Newest`
//! or `Block` never reserves a cursor, so it takes no seq), and the
//! enqueue cursor is the lane's count of written records: every
//! successful CAS writes exactly one record, and consumers — the
//! drainer, and a drop-oldest producer reclaiming — move only the
//! dequeue cursor. No read-modify-write beyond the reservation is paid
//! per record.
//!
//! ## The drainer's doorbell
//!
//! The lanes of a [`RingSet`] share one [`Doorbell`], bound to the
//! drainer thread by `Recorder::start`. A [`DropPolicy::Block`] producer
//! rings it in two places, both off the per-record path:
//!
//! * a reservation that completes a quarter lap reads the consumer
//!   cursor once and rings if the lane is at least half undrained, so
//!   the drainer sweeps before the lane fills;
//! * a record that finds its lane full rings once before it waits.
//!
//! So a Block lane is drained at the rate it fills, not at the drainer's
//! epoch. Newest and Oldest producers never wait and never ring: their
//! lanes are swept on the epoch alone, so what they lose does not depend
//! on when the drainer gets a core.

use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::clock;
use ora_core::pad::CachePadded;
use ora_core::park::Doorbell;

/// What a producer does when its ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Discard the incoming record and count it. The OpenMP worker is
    /// never delayed; the newest data is lost. (Default.)
    Newest,
    /// Reclaim the oldest unconsumed record to make room, count it, and
    /// record the incoming one. The worker pays one extra CAS; the
    /// oldest data is lost.
    Oldest,
    /// Ring the drainer's doorbell once, then spin (with `yield_now`)
    /// until the drainer frees a slot, but never forever: a ring whose
    /// consumer is gone (its [`Ring::shutdown`] flag is set) or stalled
    /// past the yield budget degrades to a counted drop instead of
    /// livelocking the worker inside an event callback. Lossless while
    /// the drainer is healthy. A Block lane also rings the doorbell when
    /// it is half undrained (module docs), so a healthy drainer usually
    /// sweeps it before it fills.
    Block,
}

/// Yields a blocked producer spends waiting on a live-but-slow drainer
/// before giving up and counting a drop. Overridden per recording by
/// [`crate::drain::TraceConfig`]'s `block_yield_limit`.
pub const DEFAULT_BLOCK_YIELD_LIMIT: u64 = 1 << 16;

/// A fixed-size trace record as it travels through the ring. Plain data
/// so the hot path is a handful of stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawRecord {
    /// Event time in clock ticks.
    pub tick: u64,
    /// The ring cursor the record was committed at: dense and in commit
    /// order within its lane (module docs), and the third component of
    /// the stable merge key. Whatever the producer passes is overwritten.
    pub seq: u64,
    /// Event discriminant (`ora_core::event::Event as u32`).
    pub event: u32,
    /// Global thread ID of the recording thread.
    pub gtid: u32,
    /// Parallel-region ID (0 outside regions).
    pub region_id: u64,
    /// Wait ID for wait events, else 0.
    pub wait_id: u64,
}

struct Slot {
    /// Vyukov sequence, stored relative to the slot's index `i`: the
    /// logical value is `pos` when free for the producer at cursor `pos`,
    /// `pos + 1` once the record at `pos` is committed, and the word
    /// holds that minus `i`. Read and written only through
    /// [`Slot::seq`] and [`Slot::set_seq`].
    seq: AtomicU64,
    rec: UnsafeCell<RawRecord>,
}

impl Slot {
    /// The logical sequence of this slot, which sits at index `i`. A
    /// zeroed slot reads `i`: free for the producer's first lap.
    #[inline]
    fn seq(&self, i: u64) -> u64 {
        self.seq.load(Ordering::Acquire).wrapping_add(i)
    }

    /// Publish logical sequence `seq` for this slot at index `i`.
    #[inline]
    fn set_seq(&self, i: u64, seq: u64) {
        self.seq.store(seq.wrapping_sub(i), Ordering::Release);
    }
}

/// Per-ring counters, all updated with relaxed atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Records successfully committed into the ring: the enqueue cursor.
    pub written: u64,
    /// Incoming records discarded by [`DropPolicy::Newest`].
    pub dropped_newest: u64,
    /// Buffered records reclaimed by [`DropPolicy::Oldest`].
    pub dropped_oldest: u64,
    /// Records dropped by [`DropPolicy::Block`] producers whose bounded
    /// wait expired (dead or stalled drainer). Zero on healthy runs.
    pub dropped_blocked: u64,
    /// [`DropPolicy::Block`] records that found their lane full and
    /// waited for a slot, including those whose wait expired into a drop.
    pub blocked_waits: u64,
    /// Clock ticks those waits took in total, read on the wait path only.
    pub blocked_wait_ticks: u64,
}

impl RingStats {
    /// Total records lost to backpressure.
    pub fn dropped(&self) -> u64 {
        self.dropped_newest + self.dropped_oldest + self.dropped_blocked
    }

    /// Add another ring's counters to these.
    pub(crate) fn add(&mut self, s: &RingStats) {
        self.written += s.written;
        self.dropped_newest += s.dropped_newest;
        self.dropped_oldest += s.dropped_oldest;
        self.dropped_blocked += s.dropped_blocked;
        self.blocked_waits += s.blocked_waits;
        self.blocked_wait_ticks += s.blocked_wait_ticks;
    }
}

/// A ring's slot array: an anonymous private mapping (module docs), so
/// every slot starts as zero pages the kernel faults in on first touch.
struct Slots {
    ptr: NonNull<Slot>,
    len: usize,
}

impl Slots {
    /// `len` zeroed slots, none of them touched.
    fn zeroed(len: usize) -> Slots {
        let layout = Layout::array::<Slot>(len).expect("ring size overflows");
        match NonNull::new(map_zeroed(layout).cast::<Slot>()) {
            Some(ptr) => Slots { ptr, len },
            None => std::alloc::handle_alloc_error(layout),
        }
    }
}

impl std::ops::Deref for Slots {
    type Target = [Slot];

    fn deref(&self) -> &[Slot] {
        // SAFETY: `ptr` maps `len` slots for the life of `self`, and
        // all-zero is a valid `Slot`: a zero `AtomicU64` (relative
        // sequence 0, free for lap 0) and an all-zero `RawRecord` (plain
        // integers).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Slots {
    fn drop(&mut self) {
        let layout = Layout::array::<Slot>(self.len).expect("ring size overflows");
        unmap(self.ptr.as_ptr().cast(), layout);
    }
}

/// Where the kernel's constants below are the generic ones, slots are
/// mapped with `mmap`, declared against the C library std already links
/// (as `ora_core::clock` declares `clock_gettime`; DESIGN.md §4).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod os {
    use std::alloc::Layout;
    use std::ffi::c_void;

    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: isize,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A fresh anonymous mapping of `layout.size()` bytes, or null.
    pub(super) fn map_zeroed(layout: Layout) -> *mut u8 {
        // SAFETY: a new private anonymous mapping aliases nothing; the
        // kernel picks the (page-aligned) address.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                layout.size(),
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        if p as isize == -1 {
            std::ptr::null_mut()
        } else {
            p.cast()
        }
    }

    /// Unmap what [`map_zeroed`] mapped for `layout`.
    pub(super) fn unmap(ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` is a live mapping of `layout.size()` bytes that
        // nothing refers to any more (its `Slots` is being dropped).
        unsafe { munmap(ptr.cast(), layout.size()) };
    }
}

/// Elsewhere, zeroed memory from the global allocator.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    use std::alloc::Layout;

    pub(super) fn map_zeroed(layout: Layout) -> *mut u8 {
        // SAFETY: a slot array has a non-zero size (at least two slots).
        unsafe { std::alloc::alloc_zeroed(layout) }
    }

    pub(super) fn unmap(ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc_zeroed(layout)` above.
        unsafe { std::alloc::dealloc(ptr, layout) }
    }
}

use os::{map_zeroed, unmap};

/// One bounded lock-free ring (a lane of the [`RingSet`]).
pub struct Ring {
    slots: Slots,
    mask: u64,
    /// A quarter lap minus one: a [`DropPolicy::Block`] reservation of
    /// cursor `pos` with `(pos + 1) & quarter_mask == 0` completes a
    /// quarter lap and checks whether to ring the doorbell.
    quarter_mask: u64,
    /// Producer cursor. Producers CAS this on every record while the
    /// drainer CASes `dequeue`; each cursor gets its own cache line so
    /// the always-on record fast path never false-shares with draining.
    /// A cursor taken is a record written (module docs).
    enqueue: CachePadded<AtomicU64>,
    /// Consumer cursor (see `enqueue`).
    dequeue: CachePadded<AtomicU64>,
    dropped_newest: AtomicU64,
    dropped_oldest: AtomicU64,
    dropped_blocked: AtomicU64,
    blocked_waits: AtomicU64,
    blocked_wait_ticks: AtomicU64,
    /// Raised when the consumer is gone (drainer stopped or died);
    /// blocked producers observe it and degrade to counted drops.
    shutdown: AtomicBool,
    /// Yield budget for [`DropPolicy::Block`] waits.
    block_yield_limit: u64,
    /// The drainer's doorbell, shared by every lane of a [`RingSet`].
    doorbell: Arc<Doorbell>,
}

// SAFETY: the slot array is owned by the ring (mapped by `Slots::zeroed`,
// unmapped only when the ring drops), and its slots are only written by
// the producer that reserved them via the enqueue CAS and only read by
// the consumer that claimed them via the dequeue CAS; the slot `seq`
// acquire/release handoff orders the record data between the two. Every
// other field is an atomic, an `Arc` of a `Sync` doorbell, or set before
// the ring is shared.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring holding up to `capacity` records (rounded up to a power of
    /// two, minimum 2), with a doorbell of its own that nobody waits on.
    ///
    /// The slots are mapped and not written: with sequences stored
    /// relative to the slot index, zero is every slot's initial state,
    /// so the fresh pages stay untouched until the producer's first lap
    /// writes them.
    pub fn new(capacity: usize) -> Ring {
        Ring::with_doorbell(capacity, Arc::default())
    }

    fn with_doorbell(capacity: usize, doorbell: Arc<Doorbell>) -> Ring {
        let cap = capacity.max(2).next_power_of_two();
        Ring {
            slots: Slots::zeroed(cap),
            mask: cap as u64 - 1,
            quarter_mask: (cap as u64 / 4).max(1) - 1,
            enqueue: CachePadded::new(AtomicU64::new(0)),
            dequeue: CachePadded::new(AtomicU64::new(0)),
            dropped_newest: AtomicU64::new(0),
            dropped_oldest: AtomicU64::new(0),
            dropped_blocked: AtomicU64::new(0),
            blocked_waits: AtomicU64::new(0),
            blocked_wait_ticks: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            block_yield_limit: DEFAULT_BLOCK_YIELD_LIMIT,
            doorbell,
        }
    }

    /// Override the [`DropPolicy::Block`] yield budget (builder-style,
    /// before the ring is shared).
    pub fn with_block_yield_limit(mut self, limit: u64) -> Ring {
        self.block_yield_limit = limit.max(1);
        self
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tell producers the consumer is gone: [`DropPolicy::Block`] stops
    /// waiting immediately and counts drops instead. Irreversible for
    /// the life of the ring.
    pub fn set_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether the consumer has been declared gone.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Try to commit one record, with the cursor it took as its seq, and
    /// return that cursor; `Err(rec)` means the ring is full.
    #[inline]
    fn try_push(&self, rec: RawRecord) -> Result<u64, RawRecord> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let i = pos & self.mask;
            let slot = &self.slots[i as usize];
            // On the first lap the slot is free by construction: only the
            // producer whose CAS takes `pos` will ever use it, and nobody
            // has consumed it yet. Skipping the read keeps the first touch
            // of each page a write (see the module docs).
            let diff = if pos <= self.mask {
                0
            } else {
                slot.seq(i) as i64 - pos as i64
            };
            if diff == 0 {
                // Reserve: claim cursor `pos`.
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave us exclusive write access
                        // to this slot until the commit below publishes it.
                        unsafe { *slot.rec.get() = RawRecord { seq: pos, ..rec } };
                        // Commit: publish the record to the consumer.
                        slot.set_seq(i, pos + 1);
                        return Ok(pos);
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return Err(rec); // full: slot not yet consumed
            } else {
                // Another producer on this lane raced past us.
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop one record if available.
    #[inline]
    pub fn try_pop(&self) -> Option<RawRecord> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let i = pos & self.mask;
            let slot = &self.slots[i as usize];
            let diff = slot.seq(i) as i64 - (pos + 1) as i64;
            if diff == 0 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave us exclusive read access.
                        let rec = unsafe { *slot.rec.get() };
                        // Mark the slot free for the producer one lap on.
                        slot.set_seq(i, pos + self.mask + 1);
                        return Some(rec);
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Record one event under `policy`. Never allocates; never blocks
    /// unless `policy` is [`DropPolicy::Block`].
    #[inline]
    pub fn record(&self, rec: RawRecord, policy: DropPolicy) {
        match policy {
            DropPolicy::Newest => {
                if self.try_push(rec).is_err() {
                    self.dropped_newest.fetch_add(1, Ordering::Relaxed);
                }
            }
            DropPolicy::Oldest => {
                while self.try_push(rec).is_err() {
                    // Reclaim the oldest unconsumed record (racing the
                    // drainer is fine: whoever wins, a slot frees up).
                    if self.try_pop().is_some() {
                        self.dropped_oldest.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            DropPolicy::Block => {
                let pos = match self.try_push(rec) {
                    Ok(pos) => pos,
                    Err(rec) => match self.wait_to_push(rec) {
                        Some(pos) => pos,
                        None => return,
                    },
                };
                // One read of the consumer cursor per quarter lap, never
                // per record: wake the drainer while half the lane is
                // still free.
                if (pos + 1) & self.quarter_mask == 0
                    && (pos + 1).saturating_sub(self.dequeue.load(Ordering::Relaxed))
                        > self.mask / 2
                {
                    self.doorbell.ring();
                }
            }
        }
    }

    /// A [`DropPolicy::Block`] record found its lane full: ring the
    /// doorbell once, then wait for a free slot and return the cursor
    /// taken, or `None` for a counted drop. The wait is bounded: a
    /// producer is inside an event callback on an application thread, so
    /// it must never be hostage to a consumer that died (shutdown flag)
    /// or wedged (yield budget). Its two clock reads are the only ones on
    /// the record path.
    #[cold]
    #[inline(never)]
    fn wait_to_push(&self, rec: RawRecord) -> Option<u64> {
        let start = clock::ticks();
        self.doorbell.ring();
        let mut spins = 0u32;
        let mut yields = 0u64;
        let pushed = loop {
            if self.shutdown.load(Ordering::Acquire) || yields >= self.block_yield_limit {
                self.dropped_blocked.fetch_add(1, Ordering::Relaxed);
                break None;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                yields += 1;
                std::thread::yield_now();
            }
            if let Ok(pos) = self.try_push(rec) {
                break Some(pos);
            }
        };
        self.blocked_waits.fetch_add(1, Ordering::Relaxed);
        self.blocked_wait_ticks
            .fetch_add(clock::ticks().saturating_sub(start), Ordering::Relaxed);
        pushed
    }

    /// Drain up to `max` records into `out`. Returns how many were popped.
    ///
    /// One claim per batch, not per record: count the committed run from
    /// the dequeue cursor forward, claim all of it with a single CAS on
    /// `dequeue`, then copy and release each slot. A drop-oldest
    /// producer's [`Ring::try_pop`] racing the claim moves the cursor and
    /// fails the CAS, and the scan starts again from the new cursor. The
    /// cursor only grows, so a successful CAS proves nobody claimed any
    /// position of the run in between (no ABA).
    pub fn drain_into(&self, out: &mut Vec<RawRecord>, max: usize) -> usize {
        let limit = max.min(self.slots.len()) as u64;
        loop {
            let start = self.dequeue.load(Ordering::Relaxed);
            // Acquire on each committed seq orders that slot's record
            // before the copy below.
            let mut n = 0u64;
            while n < limit {
                let i = (start + n) & self.mask;
                if self.slots[i as usize].seq(i) != start + n + 1 {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                return 0;
            }
            // Relaxed, as in `try_pop`: the claim publishes no data. The
            // records travel through the slot seqs' release/acquire pairs.
            if self
                .dequeue
                .compare_exchange(start, start + n, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            out.extend((start..start + n).map(|pos| {
                let i = pos & self.mask;
                let slot = &self.slots[i as usize];
                // SAFETY: the CAS gave us exclusive read access to every
                // position of the run until its release store below.
                let rec = unsafe { *slot.rec.get() };
                // Mark the slot free for the producer one lap on.
                slot.set_seq(i, pos + self.mask + 1);
                rec
            }));
            return n as usize;
        }
    }

    /// Snapshot of this ring's counters.
    pub fn stats(&self) -> RingStats {
        RingStats {
            written: self.enqueue.load(Ordering::Relaxed),
            dropped_newest: self.dropped_newest.load(Ordering::Relaxed),
            dropped_oldest: self.dropped_oldest.load(Ordering::Relaxed),
            dropped_blocked: self.dropped_blocked.load(Ordering::Relaxed),
            blocked_waits: self.blocked_waits.load(Ordering::Relaxed),
            blocked_wait_ticks: self.blocked_wait_ticks.load(Ordering::Relaxed),
        }
    }
}

/// The set of rings the collector records into: one lane per
/// `gtid % lanes`, all ringing one drainer's [`Doorbell`].
pub struct RingSet {
    lanes: Vec<Ring>,
    policy: DropPolicy,
}

impl RingSet {
    /// `lanes` rings of `capacity_per_lane` records each.
    pub fn new(lanes: usize, capacity_per_lane: usize, policy: DropPolicy) -> RingSet {
        RingSet::with_block_yield_limit(lanes, capacity_per_lane, policy, DEFAULT_BLOCK_YIELD_LIMIT)
    }

    /// Like [`RingSet::new`] with an explicit [`DropPolicy::Block`] yield
    /// budget per lane.
    pub fn with_block_yield_limit(
        lanes: usize,
        capacity_per_lane: usize,
        policy: DropPolicy,
        block_yield_limit: u64,
    ) -> RingSet {
        let doorbell = Arc::new(Doorbell::default());
        RingSet {
            lanes: (0..lanes.max(1))
                .map(|_| {
                    Ring::with_doorbell(capacity_per_lane, doorbell.clone())
                        .with_block_yield_limit(block_yield_limit)
                })
                .collect(),
            policy,
        }
    }

    /// The doorbell every lane rings for the drainer (module docs).
    pub fn doorbell(&self) -> &Doorbell {
        &self.lanes[0].doorbell
    }

    /// Declare the consumer gone on every lane (see [`Ring::set_shutdown`]).
    pub fn set_shutdown(&self) {
        for lane in &self.lanes {
            lane.set_shutdown();
        }
    }

    /// Whether the consumer has been declared gone.
    pub fn is_shutdown(&self) -> bool {
        self.lanes[0].is_shutdown()
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The lane thread `gtid` records into.
    #[inline]
    pub fn lane_of(&self, gtid: usize) -> usize {
        gtid % self.lanes.len()
    }

    /// The ring for lane `lane`.
    pub fn lane(&self, lane: usize) -> &Ring {
        &self.lanes[lane]
    }

    /// The configured backpressure policy.
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Record one event from thread `rec.gtid`.
    #[inline]
    pub fn record(&self, rec: RawRecord) {
        self.lanes[rec.gtid as usize % self.lanes.len()].record(rec, self.policy);
    }

    /// Counters summed over all lanes.
    pub fn total_stats(&self) -> RingStats {
        let mut total = RingStats::default();
        for l in &self.lanes {
            total.add(&l.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tick: u64, gtid: u32) -> RawRecord {
        RawRecord {
            tick,
            gtid,
            event: 1,
            ..RawRecord::default()
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let r = Ring::new(8);
        for i in 0..8 {
            r.record(rec(i, 0), DropPolicy::Newest);
        }
        for i in 0..8 {
            let got = r.try_pop().unwrap();
            assert_eq!(got.tick, i);
            assert_eq!(got.seq, i);
        }
        assert!(r.try_pop().is_none());
        assert_eq!(r.stats().written, 8);
        assert_eq!(r.stats().dropped(), 0);
    }

    #[test]
    fn zeroed_ring_keeps_fifo_across_many_laps() {
        // Every slot starts as the all-zero word; a lap later each one
        // holds a sequence relative to its index. Mix the single-slot and
        // the batch consumer over a dozen laps at varying fill levels:
        // every record comes out exactly once, in order.
        let r = Ring::new(4);
        let mut out = Vec::new();
        let mut next = 0u64;
        for step in 0..48u64 {
            let fill = 1 + step % 4;
            for _ in 0..fill {
                r.record(rec(next, 0), DropPolicy::Newest);
                next += 1;
            }
            if step % 3 == 0 {
                while let Some(got) = r.try_pop() {
                    out.push(got);
                }
            } else {
                let max = 1 + (step % 2) as usize;
                while r.drain_into(&mut out, max) > 0 {}
            }
        }
        assert!(next >= 10 * 4, "{next} records is fewer than ten laps");
        assert_eq!(r.stats().dropped(), 0);
        assert_eq!(out.len() as u64, next);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got.seq, i as u64);
            assert_eq!(got.tick, i as u64);
        }
    }

    #[test]
    fn written_is_the_pushes_that_succeeded_and_seq_their_cursor() {
        // No consumer but a sparse one, so every policy meets a full
        // ring: a push succeeds unless its record is counted dropped, and
        // the k-th successful push carries seq k.
        for policy in [DropPolicy::Newest, DropPolicy::Oldest, DropPolicy::Block] {
            let r = Ring::new(8).with_block_yield_limit(4);
            let mut seq_of_tick = std::collections::HashMap::new();
            let mut out = Vec::new();
            for tick in 0..300u64 {
                let lost = |s: RingStats| s.dropped_newest + s.dropped_blocked;
                let before = lost(r.stats());
                r.record(rec(tick, 0), policy);
                if lost(r.stats()) == before {
                    seq_of_tick.insert(tick, seq_of_tick.len() as u64);
                }
                if tick % 11 == 0 {
                    r.drain_into(&mut out, 1 + tick as usize % 5);
                }
            }
            while r.drain_into(&mut out, usize::MAX) > 0 {}
            let s = r.stats();
            let pushed = seq_of_tick.len() as u64;
            assert_eq!(s.written, pushed, "{policy:?}");
            assert!(s.dropped() > 0, "{policy:?}: the ring never filled");
            assert_eq!(out.len() as u64 + s.dropped_oldest, pushed, "{policy:?}");
            for got in &out {
                assert_eq!(Some(&got.seq), seq_of_tick.get(&got.tick), "{policy:?}");
            }
            if policy != DropPolicy::Oldest {
                // Nothing reclaimed: the drained seqs are every cursor.
                let seqs: Vec<u64> = out.iter().map(|g| g.seq).collect();
                assert_eq!(seqs, (0..pushed).collect::<Vec<_>>(), "{policy:?}");
            }
        }
    }

    #[test]
    fn racing_producers_and_reclaims_keep_seq_equal_to_the_cursor() {
        // Three producers race a draining consumer over many laps of a
        // small ring. The consumer claims cursors in order, so under Block
        // it must see seqs 0, 1, 2, ... exactly; under Oldest, producers'
        // reclaims take some cursors, so each batch is a run of
        // consecutive seqs and the batches only move forward.
        const PRODUCERS: u32 = 3;
        const PER: u64 = 4_000;
        for policy in [DropPolicy::Block, DropPolicy::Oldest] {
            let r = Ring::new(16);
            let producing = AtomicU64::new(u64::from(PRODUCERS));
            let mut batches = Vec::new();
            std::thread::scope(|s| {
                for gtid in 0..PRODUCERS {
                    let (r, producing) = (&r, &producing);
                    s.spawn(move || {
                        for tick in 0..PER {
                            r.record(rec(tick, gtid), policy);
                            if tick % 64 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        producing.fetch_sub(1, Ordering::Release);
                    });
                }
                loop {
                    let done = producing.load(Ordering::Acquire) == 0;
                    let mut batch = Vec::new();
                    if r.drain_into(&mut batch, 8) > 0 {
                        batches.push(batch);
                    } else if done {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            let s = r.stats();
            let total = u64::from(PRODUCERS) * PER;
            assert_eq!(s.written, total, "{policy:?}");
            let drained: Vec<RawRecord> = batches.iter().flatten().copied().collect();
            assert_eq!(drained.len() as u64 + s.dropped_oldest, total, "{policy:?}");
            for batch in &batches {
                assert!(
                    batch.windows(2).all(|w| w[1].seq == w[0].seq + 1),
                    "{policy:?}"
                );
            }
            assert!(
                drained.windows(2).all(|w| w[0].seq < w[1].seq),
                "{policy:?}"
            );
            for gtid in 0..PRODUCERS {
                let ticks: Vec<u64> = drained
                    .iter()
                    .filter(|g| g.gtid == gtid)
                    .map(|g| g.tick)
                    .collect();
                assert!(
                    ticks.windows(2).all(|w| w[0] < w[1]),
                    "{policy:?}: gtid {gtid} reordered"
                );
            }
            if policy == DropPolicy::Block {
                assert_eq!(s.dropped(), 0);
                let seqs: Vec<u64> = drained.iter().map(|g| g.seq).collect();
                assert_eq!(seqs, (0..total).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn racing_producers_share_the_first_lap_exactly() {
        // The first lap reserves without reading slot sequences: four
        // producers filling a fresh ring to the brim must each get
        // distinct slots, and nothing is dropped or lost.
        const PER: u64 = 256;
        let r = Ring::new(4 * PER as usize);
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..PER {
                        r.record(rec(i, t), DropPolicy::Newest);
                    }
                });
            }
        });
        assert_eq!(r.stats().written, 4 * PER);
        assert_eq!(r.stats().dropped(), 0);
        let mut got = Vec::new();
        r.drain_into(&mut got, usize::MAX);
        let mut seqs: Vec<u64> = got.iter().map(|g| g.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..4 * PER).collect::<Vec<_>>());
        r.record(rec(0, 0), DropPolicy::Newest);
        assert_eq!(r.try_pop().map(|g| g.seq), Some(4 * PER));
    }

    #[test]
    fn drop_newest_counts_and_keeps_oldest() {
        let r = Ring::new(4);
        for i in 0..10 {
            r.record(rec(i, 0), DropPolicy::Newest);
        }
        let s = r.stats();
        assert_eq!(s.written, 4);
        assert_eq!(s.dropped_newest, 6);
        // The *first* four records survived.
        assert_eq!(r.try_pop().unwrap().tick, 0);
    }

    #[test]
    fn drop_oldest_counts_and_keeps_newest() {
        let r = Ring::new(4);
        for i in 0..10 {
            r.record(rec(i, 0), DropPolicy::Oldest);
        }
        let s = r.stats();
        assert_eq!(s.written, 10);
        assert_eq!(s.dropped_oldest, 6);
        // The *last* four records survived, in order.
        assert_eq!(r.try_pop().unwrap().tick, 6);
        assert_eq!(r.try_pop().unwrap().tick, 7);
    }

    #[test]
    fn block_policy_waits_for_consumer() {
        let r = std::sync::Arc::new(Ring::new(4));
        let producer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..1000 {
                    r.record(rec(i, 0), DropPolicy::Block);
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 1000 {
            r.drain_into(&mut got, 64);
        }
        producer.join().unwrap();
        assert_eq!(r.stats().dropped(), 0);
        assert!(got.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn block_policy_drops_immediately_after_shutdown() {
        let r = Ring::new(4);
        for i in 0..4 {
            r.record(rec(i, 0), DropPolicy::Block);
        }
        r.set_shutdown();
        // Full ring, dead consumer: must return promptly, counting drops.
        for i in 4..10 {
            r.record(rec(i, 0), DropPolicy::Block);
        }
        let s = r.stats();
        assert_eq!(s.written, 4);
        assert_eq!(s.dropped_blocked, 6);
        assert_eq!(s.dropped(), 6);
    }

    #[test]
    fn block_policy_yield_budget_bounds_a_stalled_consumer() {
        // Consumer alive in principle but never draining: the producer
        // must come back after the yield budget, not livelock.
        let r = Ring::new(2).with_block_yield_limit(8);
        r.record(rec(0, 0), DropPolicy::Block);
        r.record(rec(1, 0), DropPolicy::Block);
        r.record(rec(2, 0), DropPolicy::Block); // would spin forever before
        assert_eq!(r.stats().dropped_blocked, 1);
        assert!(!r.is_shutdown());
    }

    #[test]
    fn tiny_block_rings_record_and_wake() {
        // A quarter lap of a 2- or 4-slot ring is one slot: each record
        // checks the consumer cursor, and the first record that leaves
        // half the lane undrained rings the bell.
        for cap in [2, 4] {
            let set = RingSet::new(1, cap, DropPolicy::Block);
            set.doorbell().bind(std::thread::current());
            let mut out = Vec::new();
            for lap in 0..3u64 {
                for i in 0..cap as u64 {
                    set.record(rec(lap * cap as u64 + i, 0));
                    let rang = set.doorbell().wait(std::time::Duration::ZERO);
                    assert_eq!(rang, 2 * (i + 1) >= cap as u64, "cap {cap}, record {i}");
                }
                assert_eq!(set.lane(0).drain_into(&mut out, cap), cap);
            }
            let s = set.total_stats();
            assert_eq!(
                (s.written, s.dropped(), s.blocked_waits),
                (3 * cap as u64, 0, 0)
            );
            assert_eq!(out.len(), 3 * cap);
        }
    }

    #[test]
    fn a_full_block_lane_rings_once_and_counts_its_wait() {
        let set = RingSet::with_block_yield_limit(1, 2, DropPolicy::Block, 8);
        set.record(rec(0, 0));
        set.record(rec(1, 0));
        assert!(set.doorbell().wait(std::time::Duration::ZERO));
        set.record(rec(2, 0)); // full, no consumer: waits, then drops
        assert!(set.doorbell().wait(std::time::Duration::ZERO));
        let s = set.total_stats();
        assert_eq!((s.written, s.dropped_blocked, s.blocked_waits), (2, 1, 1));
    }

    #[test]
    fn ringset_shutdown_reaches_every_lane() {
        let set = RingSet::new(4, 8, DropPolicy::Block);
        assert!(!set.is_shutdown());
        set.set_shutdown();
        assert!(set.is_shutdown());
        for lane in 0..set.lane_count() {
            assert!(set.lane(lane).is_shutdown());
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::new(0).capacity(), 2);
        assert_eq!(Ring::new(3).capacity(), 4);
        assert_eq!(Ring::new(64).capacity(), 64);
    }

    #[test]
    fn lanes_route_by_gtid_modulo() {
        let set = RingSet::new(4, 8, DropPolicy::Newest);
        assert_eq!(set.lane_of(0), 0);
        assert_eq!(set.lane_of(5), 1);
        set.record(rec(1, 6));
        assert_eq!(set.lane(2).stats().written, 1);
        assert_eq!(set.total_stats().written, 1);
    }
}
