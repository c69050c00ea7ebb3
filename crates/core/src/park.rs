//! The runtime's one wait primitive: [`EventCount`].
//!
//! Every "sleep until something changes" in the runtime has the same
//! shape: a task waiter with nothing to run, an idle worker between
//! regions, a barrier waiter, an out-of-turn ordered iteration. Each
//! *tries* something, and when the try fails it sleeps until whatever
//! could make the next try succeed has happened. An [`EventCount`] owns
//! that shape once:
//!
//! * a waiter calls [`EventCount::wait_until`] with its *attempt*, a
//!   closure returning `Some(result)` when it is done;
//! * a notifier makes its change visible (pushes a task, passes an
//!   ordered turn, publishes work) and then calls
//!   [`EventCount::notify_all`].
//!
//! There is no public key. `wait_until` reads the key itself, before
//! every attempt, so no caller can sample it too late.
//!
//! ## Waiting
//!
//! Between attempts a waiter polls one padded key word, not the attempt,
//! so a task waiter does not re-lock victim deques while it spins. The
//! poll is a three-phase ladder:
//!
//! 1. *Spin* with exponential backoff for the caller's budget (0 on
//!    single-core hosts, see `omprt::spin`: spinning against a thread
//!    that cannot run is pure waste).
//! 2. *Yield* for [`YIELD_BUDGET`] rounds. When the thread being waited
//!    on is runnable but not running (oversubscription), `yield_now`
//!    hands it the CPU, which resolves short waits for one cheap syscall
//!    instead of a park/unpark futex round trip.
//! 3. *Park* on the waiter's own slot until a notify moves the key.
//!
//! ## Why no wakeup can be missed
//!
//! The key is the high half of one word; the low half counts waiters
//! that registered to park. Both halves change only by read-modify-write.
//!
//! **Key before attempt.** A notifier's change happens before its key
//! bump (a release RMW). The waiter reads the key (acquire) *before* its
//! attempt. So if the attempt missed the change, the key it holds is
//! older than the bump, and the bump ends its wait. A key read *after*
//! the attempt could already include the bump of the very change the
//! attempt missed, and the waiter would sleep past it. That is why the
//! read lives inside `wait_until`.
//!
//! **Parking (Dekker).** A waiter that exhausted its spin and yield
//! phases (1) registers with an RMW on the word, (2) swaps its slot to
//! `PARKED`, (3) re-reads the key, and blocks in `thread::park` only if
//! the key has still not moved. A notifier (a) bumps the key with an RMW
//! on the same word, which also returns the waiter count, and only if
//! that count is non-zero (b) unparks each slot that reads `PARKED`.
//! All of these are sequentially consistent, so they fall in one total
//! order:
//!
//! * if (a) precedes (3), the waiter's re-read sees the moved key and it
//!   never sleeps;
//! * otherwise (1) precedes (a) (both are RMWs on one word), so the
//!   notifier sees a registered waiter, and (2) precedes (b), so it sees
//!   `PARKED` and delivers an unpark token, which `thread::park`
//!   consumes even if it arrives before the park call.
//!
//! A notifier can at worst deliver a stale token to a waiter that has
//! already left, which makes one later park return early; every park
//! re-reads the key around `thread::park`, so that costs one loop.
//!
//! **Cost.** With nobody parked, `notify_all` is one RMW and reads
//! nothing else. Wakes go only to slots whose owner actually parked; a
//! spinning or running owner costs the notifier nothing.
//!
//! ## A timed wait for one sleeper: [`Doorbell`]
//!
//! The trace drainer is the one waiter with no attempt to retry: it has
//! work on a timer *and* on demand. It sleeps for at most its epoch, and
//! a producer whose ring lane needs draining wakes it sooner. A
//! [`Doorbell`] is bound to that one thread; [`Doorbell::ring`] raises a
//! flag and unparks it, and [`Doorbell::wait`] returns once it takes the
//! flag down or its timeout passes. The flag is what the wait returns
//! on, so neither a spurious wake nor a stale unpark token cuts a timed
//! wait short, and a ring that arrives while the sleeper is awake makes
//! its next wait return at once.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::pad::CachePadded;
use crate::sync::Mutex;

/// One key step: the key is the word's high half.
const KEY_ONE: u64 = 1 << 32;
/// The word's low half: waiters registered to park.
const WAITERS: u64 = KEY_ONE - 1;

/// Timeslice donations attempted before parking. Sized so that a full
/// team of waiters on one core (the worst oversubscription the stress
/// suite drives) cycles the run queue several times, enough for every
/// short wait to resolve, while a worker idling between parallel regions
/// still reaches `park` within microseconds.
const YIELD_BUDGET: u32 = 32;

/// Longest burst of `spin_loop` hints between two polls of the key.
const MAX_BURST: u32 = 64;

/// A key word plus one parking slot per waiter (module docs).
///
/// `who` in [`EventCount::wait_until`] names the caller's slot and must
/// be below the `waiters` the count was built with; two threads must not
/// wait on one slot at the same time. Any thread may notify.
#[derive(Debug)]
pub struct EventCount {
    /// Key (high half) and registered-waiter count (low half). Polled by
    /// every spinning waiter, so it has its own line pair.
    word: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<ParkSlot>]>,
}

impl EventCount {
    /// An event count for up to `waiters` concurrent waiters, named
    /// `0..waiters`.
    pub fn new(waiters: usize) -> Self {
        EventCount {
            word: CachePadded::new(AtomicU64::new(0)),
            slots: (0..waiters)
                .map(|_| CachePadded::new(ParkSlot::default()))
                .collect(),
        }
    }

    /// Runs `attempt` until it returns `Some`, and returns that value.
    ///
    /// The key is read before every attempt; after a failed attempt the
    /// caller spins for `spin_budget` backoff iterations, yields, then
    /// parks in slot `who`, until a [`notify_all`](Self::notify_all)
    /// moves the key. Only then is the attempt run again.
    pub fn wait_until<T>(
        &self,
        who: usize,
        spin_budget: u32,
        mut attempt: impl FnMut() -> Option<T>,
    ) -> T {
        debug_assert!(who < self.slots.len(), "waiter {who} has no slot");
        loop {
            let seen = self.key(Ordering::Acquire);
            if let Some(done) = attempt() {
                return done;
            }
            self.await_move(who, spin_budget, seen);
        }
    }

    /// Moves the key, waking every waiter that parked on the old one.
    /// Call it after making the change waiters attempt to observe.
    pub fn notify_all(&self) {
        if self.word.fetch_add(KEY_ONE, Ordering::SeqCst) & WAITERS == 0 {
            return;
        }
        for slot in self.slots.iter() {
            slot.unpark();
        }
    }

    fn key(&self, order: Ordering) -> u64 {
        self.word.load(order) >> 32
    }

    /// Returns once the key differs from `seen`: spin in bursts of
    /// `spin_loop` hints doubling up to [`MAX_BURST`] (waiters that just
    /// missed the key re-poll quickly, long waiters rarely), yield, park.
    fn await_move(&self, who: usize, spin_budget: u32, seen: u64) {
        let moved = |order| self.key(order) != seen;
        let (mut burst, mut spent) = (1, 0);
        while spent < spin_budget {
            if moved(Ordering::Acquire) {
                return;
            }
            (0..burst).for_each(|_| std::hint::spin_loop());
            spent += burst;
            burst = (burst * 2).min(MAX_BURST);
        }
        for _ in 0..YIELD_BUDGET {
            if moved(Ordering::Acquire) {
                return;
            }
            thread::yield_now();
        }
        self.word.fetch_add(1, Ordering::SeqCst);
        self.slots[who].park_until(|| moved(Ordering::SeqCst));
        self.word.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A wake-up call for one bound thread, with a timeout (module docs).
#[derive(Debug, Default)]
pub struct Doorbell {
    /// The thread [`Doorbell::wait`]s on this bell; set once.
    sleeper: OnceLock<Thread>,
    /// Raised by a ring (release), taken down by the wait that returns on
    /// it (acquire), so the sleeper sees what the ringer wrote before.
    rung: AtomicBool,
}

impl Doorbell {
    /// Names the one thread that waits on this bell. The first call
    /// wins; a ring before it only raises the flag.
    pub fn bind(&self, sleeper: Thread) {
        let _ = self.sleeper.set(sleeper);
    }

    /// Wakes the sleeper, or makes its next wait return at once.
    pub fn ring(&self) {
        self.rung.store(true, Ordering::Release);
        if let Some(sleeper) = self.sleeper.get() {
            sleeper.unpark();
        }
    }

    /// Sleeps until the bell rings or `timeout` passes, and returns
    /// whether it rang. Only the bound thread may wait: a ring unparks
    /// that thread and no other.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if self.rung.swap(false, Ordering::Acquire) {
                return true;
            }
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return false;
            }
            thread::park_timeout(left);
        }
    }
}

/// Slot word: owner is awake (or has consumed its notification).
const IDLE: u32 = 0;
/// Slot word: owner is about to block (or did) and needs an unpark.
const PARKED: u32 = 1;
/// Slot word: a notifier has claimed the wake; no further unpark needed.
const NOTIFIED: u32 = 2;

/// One waiter's parking spot.
#[derive(Debug, Default)]
struct ParkSlot {
    state: AtomicU32,
    /// Owner's handle, published before each park. Touched only on the
    /// slow path (an actual park or unpark), so a plain mutex costs
    /// nothing while waiters spin.
    owner: Mutex<Option<Thread>>,
}

impl ParkSlot {
    /// Parks the calling thread until `moved` returns true, re-checking
    /// after announcing `PARKED` and after every (possibly spurious)
    /// wakeup.
    fn park_until(&self, moved: impl Fn() -> bool) {
        *self.owner.lock() = Some(thread::current());
        loop {
            self.state.swap(PARKED, Ordering::SeqCst);
            if moved() {
                break;
            }
            thread::park();
        }
        self.state.swap(IDLE, Ordering::SeqCst);
    }

    /// Wakes the owner iff it announced it was parking.
    fn unpark(&self) {
        if self.state.load(Ordering::SeqCst) == PARKED
            && self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED
        {
            if let Some(owner) = self.owner.lock().as_ref() {
                owner.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// How long the lost-wakeup watchdog lets a wait run before it rescues
    /// it. A correct wait never blocks at all, so this only bounds how
    /// long a regression takes to fail.
    const RESCUE_AFTER: Duration = Duration::from_secs(2);

    #[test]
    fn done_on_the_first_attempt_never_waits() {
        let count = EventCount::new(1);
        assert_eq!(count.wait_until(0, 0, || Some(7)), 7);
    }

    #[test]
    fn notify_with_nobody_parked_only_moves_the_key() {
        let count = EventCount::new(2);
        count.notify_all();
        count.notify_all();
        assert_eq!(count.word.load(Ordering::SeqCst), 2 * KEY_ONE);
        assert!(count
            .slots
            .iter()
            .all(|s| s.state.load(Ordering::SeqCst) == IDLE));
    }

    /// The lost-wakeup interleaving, forced with no timing: the attempt
    /// itself notifies on its first failing call, after it has missed the
    /// change and before the wait decides to sleep. A key read before the
    /// attempt already differs from the bumped one, so the wait must run
    /// the attempt again at once. A key read after the attempt would
    /// include the bump and sleep; the watchdog then notifies after
    /// [`RESCUE_AFTER`] and records that it had to.
    #[test]
    fn a_notify_racing_the_failed_attempt_is_never_lost() {
        let count = EventCount::new(1);
        let rescued = AtomicBool::new(false);
        let (done, finished) = channel::<()>();
        let mut attempts = 0;
        thread::scope(|s| {
            let (count, rescued) = (&count, &rescued);
            s.spawn(move || {
                if finished.recv_timeout(RESCUE_AFTER).is_err() {
                    rescued.store(true, Ordering::SeqCst);
                    count.notify_all();
                }
            });
            count.wait_until(0, 0, || {
                attempts += 1;
                if attempts == 1 {
                    count.notify_all();
                    return None;
                }
                Some(())
            });
            let _ = done.send(()); // the watchdog is gone if it rescued
        });
        assert!(
            !rescued.load(Ordering::SeqCst),
            "the wait slept past a notify that raced its failed attempt"
        );
        assert_eq!(attempts, 2, "the wait returns on the next attempt");
    }

    #[test]
    fn producer_consumer_ping_pong() {
        const ROUNDS: u64 = 2_000;
        let count = EventCount::new(1);
        let level = AtomicU64::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                for target in 1..=ROUNDS {
                    count.wait_until(0, 0, || {
                        (level.load(Ordering::SeqCst) >= target).then_some(())
                    });
                }
            });
            for _ in 0..ROUNDS {
                level.fetch_add(1, Ordering::SeqCst);
                count.notify_all();
            }
        });
        assert_eq!(level.load(Ordering::SeqCst), ROUNDS);
    }

    #[test]
    fn a_doorbell_wait_returns_on_the_ring_not_the_timeout() {
        let bell = Doorbell::default();
        assert!(!bell.wait(Duration::ZERO), "an unrung bell times out");
        bell.ring(); // before bind: the flag alone
        assert!(bell.wait(Duration::from_secs(3600)));
        bell.bind(thread::current());
        thread::current().unpark(); // a stale token is not a ring
        assert!(!bell.wait(Duration::from_millis(1)));
        let (rang, took) = thread::scope(|s| {
            s.spawn(|| {
                thread::sleep(Duration::from_millis(5));
                bell.ring();
            });
            let start = Instant::now();
            (bell.wait(Duration::from_secs(3600)), start.elapsed())
        });
        assert!(rang);
        assert!(took < Duration::from_secs(60), "woke after {took:?}");
    }

    /// A waiter that really parks, holding a stale unpark token that
    /// makes its first park return early, still waits for the notify,
    /// is woken by it, and leaves no registration behind.
    #[test]
    fn a_parked_waiter_is_woken_and_deregisters() {
        let count = EventCount::new(2);
        let flag = AtomicBool::new(false);
        thread::current().unpark(); // a token for a park that never came
        thread::scope(|s| {
            s.spawn(|| {
                while count.word.load(Ordering::SeqCst) & WAITERS == 0 {
                    thread::yield_now();
                }
                flag.store(true, Ordering::SeqCst);
                count.notify_all();
            });
            count.wait_until(1, 0, || flag.load(Ordering::SeqCst).then_some(()));
        });
        assert_eq!(count.word.load(Ordering::SeqCst) & WAITERS, 0);
    }
}
