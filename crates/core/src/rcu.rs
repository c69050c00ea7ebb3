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
//! * Each reading thread owns one entry of a [`SlotTable`], at its
//!   [`crate::thread::slot`]. Pinning stores the current epoch into the
//!   entry; unpinning stores 0 (quiescent). Pins nest (a callback may
//!   re-enter the registry): the entry keeps the depth, so a pin costs
//!   one thread-local lookup and an unpin none.
//! * A writer that unlinks a published pointer bumps the epoch to `r` and
//!   stamps the garbage with it. The garbage may be freed once every
//!   entry is quiescent or pinned at an epoch `>= r`: such readers pinned
//!   after the unlink was globally visible, so they cannot have loaded the
//!   old pointer. Readers pinned at an older epoch keep the garbage alive.
//! * Nothing blocks: writers that cannot free yet leave the garbage in
//!   the bag; a later retire (or the bag's drop) reclaims it.
//!
//! # Fences: the writer pays them
//!
//! The reader's slot-store → pointer-load and the writer's pointer-unlink
//! → slot-scan are a store/load (Dekker) race: unless something orders
//! each side's store before its load, a reader's pin can still sit in
//! its core's store buffer while the writer's scan reads the slot as
//! quiescent and frees the pointer the reader just loaded. Which side
//! pays for that order is chosen once per process, at [`settle`] (which a
//! runtime calls before it starts a thread) or else the first retire, as
//! `clock` chooses its counter:
//!
//! * **membarrier** (liburcu's "memb" flavour; Desnoyers et al., "User-Level
//!   Implementations of Read-Copy Update", IEEE TPDS 2012). A pin stores
//!   its epoch `Relaxed` behind a compiler fence, so the compiler cannot
//!   move the pointer load above it; an unpin is a `Release` store. The
//!   writer, after the unlink and before the scan, calls
//!   `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`, which runs a full
//!   barrier on every CPU running a thread of this process: a reader's
//!   pin that precedes that barrier is visible to the scan, and a pin
//!   after it loads the unlinked pointer's replacement. The process
//!   registers for it (`MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED`) at
//!   that choice.
//! * **`SeqCst`**, wherever the kernel refuses either call or no syscall
//!   is declared (anything but x86_64 and aarch64 Linux): a pin's store is
//!   followed by a `SeqCst` fence, as crossbeam-epoch pins, and the writer's
//!   unlink is a `SeqCst` operation followed by a `SeqCst` fence before
//!   its scan, so the fences' total order closes the race on both sides:
//!   the scan sees the pin (and the entry it sits in), or the reader sees
//!   the unlink. Readers that pin before the choice run this side too,
//!   whichever protocol it then picks.
//!
//! Under membarrier a monitored event's pin and unpin are plain stores;
//! the system call (about 0.1 µs alone, 1.5 µs with another thread of
//! the process running, on the 2-core reference VM) is paid once per
//! retire or collect, which registration does a handful of times per
//! run. The registration itself waits for a kernel RCU grace period in a
//! process with more than one thread: milliseconds, once, which is why
//! [`settle`] makes it while the process has one.
//! `GarbageBag::retire_all` hands a whole batch of unlinks to one
//! barrier, so the registry's `clear` pays one however many entries it
//! empties.
//!
//! A reader's epoch load is `Acquire`: a reader that sees a writer's
//! epoch bump also sees the unlink sequenced before it, which is what
//! lets the scan treat a slot pinned at an epoch `>= r` as harmless.

#[cfg(test)]
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{compiler_fence, fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::pad::CachePadded;
use crate::sync::Mutex;
use crate::thread::SlotTable;

/// The epoch value meaning "not in a read-side critical section".
const QUIESCENT: u64 = 0;

/// Global epoch. Starts at 1 so no retire stamp is ever [`QUIESCENT`].
/// Read by every pin, so it gets a line no other static can write into.
static EPOCH: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(1));

/// Which side pays for ordering a pin before its pointer load (module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    /// Readers pin with plain stores; writers call `membarrier`.
    Membarrier,
    /// Readers fence each pin; writers fence before their scan.
    SeqCst,
}

/// Raised once the process has registered for expedited membarriers,
/// before any writer relies on them: from then on every writer barriers,
/// so a reader that reads it set may pin without a fence.
static READERS_UNFENCED: AtomicBool = AtomicBool::new(false);

static CHOSEN: OnceLock<Protocol> = OnceLock::new();

/// The process's protocol, chosen at the first call: [`settle`], or else
/// the first retire.
fn chosen() -> Protocol {
    *CHOSEN.get_or_init(|| match membarrier::register() {
        Ok(()) => {
            READERS_UNFENCED.store(true, Ordering::Relaxed);
            Protocol::Membarrier
        }
        Err(_) => Protocol::SeqCst,
    })
}

/// Choose the process's protocol now. Registering for expedited
/// membarriers costs under a microsecond while the process has one
/// thread, and waits for a kernel RCU grace period (milliseconds) once it
/// has two, so a runtime settles this before it starts its first worker
/// rather than leaving it to the first retire, which may be a quarantine
/// on an application thread inside event dispatch. Idempotent.
pub fn settle() {
    chosen();
}

/// Whether the process's protocol has been chosen ([`settle`]).
pub fn settled() -> bool {
    CHOSEN.get().is_some()
}

/// The protocol a writer on this thread runs.
fn writer_protocol() -> Protocol {
    #[cfg(test)]
    if let Some(forced) = FORCED.with(Cell::get) {
        return forced;
    }
    chosen()
}

/// Whether a pin on this thread may skip its fence.
#[inline]
fn readers_unfenced() -> bool {
    #[cfg(test)]
    if let Some(forced) = FORCED.with(Cell::get) {
        return forced == Protocol::Membarrier;
    }
    READERS_UNFENCED.load(Ordering::Relaxed)
}

#[cfg(test)]
thread_local! {
    /// The protocol this test thread's pins and retires run, whatever the
    /// process chose (see `tests::under`).
    static FORCED: Cell<Option<Protocol>> = const { Cell::new(None) };
}

/// `membarrier(2)`, declared against the C library std already links
/// (as `clock` declares `clock_gettime`; DESIGN.md §4).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod membarrier {
    use std::ffi::c_long;

    #[cfg(target_arch = "x86_64")]
    const SYS_MEMBARRIER: c_long = 324;
    #[cfg(target_arch = "aarch64")]
    const SYS_MEMBARRIER: c_long = 283;

    const CMD_QUERY: i32 = 0;
    const CMD_PRIVATE_EXPEDITED: i32 = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: i32 = 1 << 4;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    /// Why the process runs the `SeqCst` protocol.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) enum Refusal {
        /// The query failed with this errno: a kernel without the call,
        /// or a seccomp filter that denies it.
        Query(i32),
        /// The query's command mask (here) lacks the private expedited
        /// barrier.
        NotOffered(i64),
        /// Registering for it failed with this errno.
        Register(i32),
    }

    fn membarrier(cmd: i32) -> Result<i64, i32> {
        // SAFETY: `membarrier(cmd, flags = 0, cpu_id = 0)` reads and
        // writes no memory of the caller; every argument is passed at the
        // width the kernel reads it.
        let rc = unsafe { syscall(SYS_MEMBARRIER, cmd, 0u32, 0i32) };
        if rc < 0 {
            Err(std::io::Error::last_os_error().raw_os_error().unwrap_or(0))
        } else {
            Ok(rc as i64)
        }
    }

    /// The kernel's gate: does it offer the private expedited barrier?
    pub(super) fn gate() -> Result<(), Refusal> {
        let mask = membarrier(CMD_QUERY).map_err(Refusal::Query)?;
        if mask & i64::from(CMD_PRIVATE_EXPEDITED) == 0 {
            return Err(Refusal::NotOffered(mask));
        }
        Ok(())
    }

    /// Pass the gate and register the process. Idempotent.
    pub(super) fn register() -> Result<(), Refusal> {
        gate()?;
        membarrier(CMD_REGISTER_PRIVATE_EXPEDITED).map_err(Refusal::Register)?;
        Ok(())
    }

    /// A full memory barrier on every CPU running a thread of this
    /// process. Only called once [`register`] succeeded, after which the
    /// kernel documents no failure; a failure here would leave unfenced
    /// pins unordered, so it is fatal rather than ignored.
    pub(super) fn barrier() {
        if let Err(errno) = membarrier(CMD_PRIVATE_EXPEDITED) {
            panic!("membarrier(PRIVATE_EXPEDITED) failed after registration: errno {errno}");
        }
    }
}

/// Elsewhere no syscall is declared, and the gate refuses.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod membarrier {
    /// Why the process runs the `SeqCst` protocol.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) enum Refusal {
        /// Not x86_64 or aarch64 Linux: no `membarrier` is declared.
        NoSyscall,
    }

    pub(super) fn gate() -> Result<(), Refusal> {
        Err(Refusal::NoSyscall)
    }

    pub(super) fn register() -> Result<(), Refusal> {
        gate()
    }

    pub(super) fn barrier() {
        unreachable!("the gate refuses every target without membarrier")
    }
}

/// A thread's reader state, its slot's entry of [`READERS`]: only the
/// slot's holder writes it, writers' scans only load it.
#[derive(Default)]
struct Reader {
    /// Pinned epoch, or [`QUIESCENT`].
    epoch: AtomicU64,
    /// Pins alive on the thread: only the outermost stores the epoch.
    depth: AtomicUsize,
}

/// One reader entry per thread slot, each on its own line: a pin is two
/// stores to the owner's entry on every monitored event, so neighbouring
/// threads' entries must not share one.
static READERS: SlotTable<Reader> = SlotTable::new();

/// An active read-side critical section. While any `Pin` is alive on any
/// thread, pointers unlinked *after* it was created are not reclaimed.
///
/// Created by [`pin`]; ends when dropped, on the thread that made it.
/// Cheap to nest. Loads of published pointers made under it must be
/// `Acquire` (or stronger).
#[must_use = "a Pin only protects reads while it is alive"]
pub struct Pin {
    reader: &'static Reader,
    /// Not `Send`: only its thread writes the reader entry.
    _here: PhantomData<*const ()>,
}

/// Enter a read-side critical section.
pub fn pin() -> Pin {
    let reader = READERS.local();
    let depth = reader.depth.load(Ordering::Relaxed);
    reader.depth.store(depth + 1, Ordering::Relaxed);
    if depth == 0 {
        let e = EPOCH.load(Ordering::Acquire);
        reader.epoch.store(e, Ordering::Relaxed);
        if readers_unfenced() {
            // The writer's membarrier orders the store at run time;
            // this only keeps the compiler from hoisting the
            // caller's pointer load above it.
            compiler_fence(Ordering::SeqCst);
        } else {
            fenced_pin();
        }
    }
    Pin {
        reader,
        _here: PhantomData,
    }
}

/// The `SeqCst` protocol's half of a pin: the fence that orders the slot
/// store before every later load, which the writer's `SeqCst` unlink and
/// scan pair with (module docs).
#[inline]
fn fenced_pin() {
    fence(Ordering::SeqCst);
}

impl Drop for Pin {
    fn drop(&mut self) {
        let depth = self.reader.depth.load(Ordering::Relaxed) - 1;
        self.reader.depth.store(depth, Ordering::Relaxed);
        if depth == 0 {
            // Release: everything the section read happens before a
            // writer's scan that sees the entry quiescent.
            self.reader.epoch.store(QUIESCENT, Ordering::Release);
        }
    }
}

/// The earliest epoch any currently pinned reader holds, or `u64::MAX`
/// if every reader is quiescent. The caller has fenced (module docs).
fn min_pinned_epoch() -> u64 {
    READERS
        .iter()
        .map(|(_, r)| match r.epoch.load(Ordering::Acquire) {
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
        self.retire_all([item]);
    }

    /// [`GarbageBag::retire`] for a batch of objects, all unlinked before
    /// the call: one epoch bump and one barrier for the whole batch.
    pub fn retire_all(&self, items: impl IntoIterator<Item = Box<dyn Send>>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        let protocol = writer_protocol();
        let stamp = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
        let mut retired = self.retired.lock();
        retired.extend(items.map(|item| Retired { stamp, _item: item }));
        Self::collect_in(&mut retired, protocol);
    }

    /// Opportunistically free everything no reader can still observe.
    pub fn collect(&self) {
        Self::collect_in(&mut self.retired.lock(), writer_protocol());
    }

    fn collect_in(retired: &mut Vec<Retired>, protocol: Protocol) {
        if retired.is_empty() {
            return;
        }
        match protocol {
            // Every unlink before this point against every unfenced pin.
            Protocol::Membarrier => membarrier::barrier(),
            // Pairs with each pin's fence: the scan sees the pin, or the
            // pinned reader sees the unlink.
            Protocol::SeqCst => fence(Ordering::SeqCst),
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
    use std::sync::atomic::{AtomicPtr, AtomicUsize};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Run `f` with this thread's pins and retires under `protocol`.
    fn under<R>(protocol: Protocol, f: impl FnOnce() -> R) -> R {
        let before = FORCED.with(|c| c.replace(Some(protocol)));
        let out = f();
        FORCED.with(|c| c.set(before));
        out
    }

    /// The membarrier protocol if this host runs it, or — where the gate
    /// refuses it — proof that the refusal is the kernel's answer, so no
    /// membarrier test passes by silently testing nothing.
    fn membarrier_or_explained_refusal() -> Option<Protocol> {
        match membarrier::gate() {
            Ok(()) => {
                assert_eq!(chosen(), Protocol::Membarrier);
                Some(Protocol::Membarrier)
            }
            Err(why) => {
                assert_eq!(chosen(), Protocol::SeqCst, "refused: {why:?}");
                // Ask again: the refusal is the kernel's answer (or the
                // target's), not a slip of this module's.
                assert_eq!(membarrier::register(), Err(why));
                None
            }
        }
    }

    /// Run `f` under the `SeqCst` protocol, then under membarrier unless
    /// the host refuses it.
    fn under_each_protocol(f: impl Fn()) {
        under(Protocol::SeqCst, &f);
        if let Some(membarrier) = membarrier_or_explained_refusal() {
            under(membarrier, &f);
        }
    }

    /// The process runs membarrier exactly when the kernel's gate passes,
    /// and readers skip their fence exactly then.
    #[test]
    fn the_process_runs_membarrier_exactly_when_the_gate_passes() {
        let gate = membarrier::gate();
        assert_eq!(
            chosen() == Protocol::Membarrier,
            gate.is_ok(),
            "gate: {gate:?}"
        );
        assert_eq!(READERS_UNFENCED.load(Ordering::Relaxed), gate.is_ok());
    }

    /// Increments a counter when dropped, to observe reclamation.
    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unpinned_garbage_is_freed_on_retire() {
        under_each_protocol(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let bag = GarbageBag::new();
            bag.retire(Box::new(DropProbe(drops.clone())));
            // No pinned reader on this thread or others started by this
            // test: the retire itself may not free (stamp == its own
            // epoch), but a follow-up retire or collect reclaims it.
            bag.retire(Box::new(DropProbe(drops.clone())));
            bag.collect_until_quiescent();
            assert_eq!(drops.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        under_each_protocol(|| {
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
        });
    }

    #[test]
    fn readers_pinned_after_retire_do_not_block_it() {
        under_each_protocol(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let bag = GarbageBag::new();
            bag.retire(Box::new(DropProbe(drops.clone())));
            let _guard = pin(); // pinned at an epoch >= the retire stamp
            bag.collect_until_quiescent();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn a_batch_retire_frees_all_of_it() {
        under_each_protocol(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let bag = GarbageBag::new();
            let guard = pin();
            bag.retire_all((0..5).map(|_| Box::new(DropProbe(drops.clone())) as Box<dyn Send>));
            assert_eq!(bag.pending(), 5);
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            drop(guard);
            bag.collect_until_quiescent();
            assert_eq!(drops.load(Ordering::SeqCst), 5);
        });
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
        under_each_protocol(|| {
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
        });
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

    /// A published object that marks its entry of the side table when
    /// it is freed.
    struct Probe {
        id: usize,
        freed: Arc<[AtomicBool]>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.freed[self.id].store(true, Ordering::Release);
        }
    }

    /// One reader loads the published probe under a pin, reads its id,
    /// works a little, and counts every read of a probe whose entry is
    /// already marked freed; the test thread republishes and retires as
    /// fast as it can. Any such read is a protocol hole: a pin the scan
    /// missed. Before each pin the reader stores to a line the writer
    /// stores to before each swap, so the pin's store waits in the store
    /// buffer behind a cache miss while the pointer load runs ahead — the
    /// reorder only the writer's barrier (or the pin's fence) forbids.
    /// With the membarrier protocol's barrier taken out this fails within
    /// its budget in an optimized build (a handful to hundreds of late
    /// reads a run);
    /// an unoptimized build spaces the pin and the load too far apart for
    /// the store buffer to hide it, which is why `scripts/tier1.sh` also
    /// runs this module's tests with `--release`.
    #[test]
    fn a_retired_pointer_is_never_read_after_its_free() {
        const PUBLISHES: usize = 1_000_000;
        const BUDGET: Duration = Duration::from_secs(1);
        under_each_protocol(|| {
            let protocol = FORCED.with(Cell::get).expect("forced");
            let freed: Arc<[AtomicBool]> =
                (0..=PUBLISHES).map(|_| AtomicBool::new(false)).collect();
            let probe = |id| {
                Box::into_raw(Box::new(Probe {
                    id,
                    freed: freed.clone(),
                }))
            };
            let published = AtomicPtr::new(probe(0));
            let stop = AtomicBool::new(false);
            let traffic = CachePadded::new(AtomicU64::new(0));
            let bag = GarbageBag::new();
            let (late_reads, reads) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    under(protocol, || {
                        let (mut late, mut reads) = (0u64, 0u64);
                        while !stop.load(Ordering::Relaxed) {
                            traffic.store(reads, Ordering::Relaxed);
                            let _pin = pin();
                            let p = published.load(Ordering::Acquire);
                            // SAFETY: loaded under the pin; only a protocol
                            // hole frees it meanwhile, which is what this
                            // test counts.
                            let id = std::hint::black_box(unsafe { (*p).id });
                            for _ in 0..32 {
                                std::hint::spin_loop();
                            }
                            late += u64::from(freed[id].load(Ordering::Acquire));
                            reads += 1;
                        }
                        (late, reads)
                    })
                });
                let start = Instant::now();
                for id in 1..=PUBLISHES {
                    let next = probe(id);
                    traffic.store(id as u64, Ordering::Relaxed);
                    let old = published.swap(next, Ordering::SeqCst);
                    // SAFETY: `old` came from Box::into_raw and was just
                    // unlinked.
                    bag.retire(unsafe { Box::from_raw(old) });
                    if start.elapsed() > BUDGET {
                        break;
                    }
                }
                stop.store(true, Ordering::Relaxed);
                reader.join().unwrap()
            });
            assert!(reads > 0, "{protocol:?}: no reader ran");
            assert_eq!(
                late_reads, 0,
                "{protocol:?}: {late_reads} of {reads} reads hit a freed probe"
            );
            // SAFETY: every reader has joined; the last probe was never
            // retired.
            drop(unsafe { Box::from_raw(published.load(Ordering::Relaxed)) });
        });
    }
}
