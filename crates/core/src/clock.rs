//! The hardware time counter abstraction.
//!
//! The paper's prototype tool "stores a sample of a hardware-based time
//! counter" in each event callback. This module provides that counter: a
//! monotonic tick source read with one call and no allocation, plus
//! conversions for reporting. It is the process's one time base: the
//! collector's callbacks, the governor's default clock, the runtime's
//! `omp_get_wtime` and the POMP baseline all read [`ticks`].
//!
//! # Monotonicity and cross-thread comparability
//!
//! All threads read the **same** process-wide clock: [`ticks`] is the
//! elapsed time since one shared [`Instant`] epoch (initialized on first
//! use). `Instant` is documented to be monotonic and, on every platform
//! std supports, measures against a single system-wide monotonic clock
//! (`CLOCK_MONOTONIC` on Linux), not a per-CPU or per-thread counter.
//! Two guarantees follow, and the trace pipeline leans on both:
//!
//! 1. **Per-thread monotonicity** — successive [`ticks`] calls on one
//!    thread never decrease, so each thread's trace records carry
//!    non-decreasing ticks and per-ring streams are near-sorted.
//! 2. **Cross-thread comparability** — ticks taken on different threads
//!    are samples of the same clock, so merging per-thread records by
//!    `(tick, gtid, seq)` yields a globally meaningful order: if thread
//!    A observably happened-before thread B (e.g. via a message), A's
//!    tick is ≤ B's.
//!
//! Ties are possible (the clock is sampled at nanosecond granularity
//! but successive events can land on the same nanosecond); consumers
//! must break them with `(gtid, seq)`, which is exactly what
//! `ora-trace`'s merge key does.
//!
//! # CPU time
//!
//! [`thread_cpu_ns`] and [`process_cpu_ns`] read the CPU time the calling
//! thread and the whole process have used, not wall time: on a shared
//! host a wall-clock difference also counts the time a thread waited for
//! a core, while its CPU time does not. They are read through the
//! `clock_gettime` of the C library std already links (one `unsafe`
//! call, no crate; see DESIGN.md's dependency policy).

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Tick rate of this clock: one tick per nanosecond. Carried in the
/// fleet protocol's HELLO so an aggregator can interpret ranks' ticks
/// without sharing the producer's build.
pub const TICKS_PER_SEC: u64 = 1_000_000_000;

/// Current tick count (nanoseconds since the process-local epoch).
#[inline]
pub fn ticks() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Convert ticks to seconds.
#[inline]
pub fn to_secs(ticks: u64) -> f64 {
    ticks as f64 * 1e-9
}

/// Convert ticks to microseconds.
#[inline]
pub fn to_micros(ticks: u64) -> f64 {
    ticks as f64 * 1e-3
}

/// Measure the wall-clock duration of `f`, in ticks, alongside its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = ticks();
    let result = f();
    (result, ticks() - t0)
}

/// CPU time the calling thread has used, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `None` where that clock is not read
/// (anything but 64-bit Linux).
pub fn thread_cpu_ns() -> Option<u64> {
    cpu_ns(CpuClock::Thread)
}

/// CPU time all threads of the process have used, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`); `None` where that clock is not read
/// (anything but 64-bit Linux).
pub fn process_cpu_ns() -> Option<u64> {
    cpu_ns(CpuClock::Process)
}

/// Linux's clock ids for the two CPU-time clocks.
#[derive(Clone, Copy)]
enum CpuClock {
    Process = 2,
    Thread = 3,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_ns(clock: CpuClock) -> Option<u64> {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // `Timespec` matches on this target, through a pointer to a live,
    // exclusively borrowed local, and reads nothing else.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_ns(_clock: CpuClock) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic() {
        let a = ticks();
        let b = ticks();
        assert!(b >= a);
    }

    #[test]
    fn time_measures_elapsed_work() {
        let ((), t) = time(|| std::thread::sleep(std::time::Duration::from_millis(10)));
        assert!(t >= 9_000_000, "slept 10ms but measured {t} ticks");
    }

    /// A spinning thread's CPU time grows about as fast as the wall
    /// clock and a sleeping one's hardly at all. A spin can lose its
    /// core to other work on a loaded host, so it gets a few attempts.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let spin = std::time::Duration::from_millis(20);
        let spun = (0..10)
            .map(|_| {
                let before = thread_cpu_ns().unwrap();
                let start = Instant::now();
                while start.elapsed() < spin {
                    std::hint::spin_loop();
                }
                thread_cpu_ns().unwrap() - before
            })
            .find(|&ns| ns >= 15_000_000);
        assert!(spun.is_some(), "no 20 ms spin used 15 ms of CPU");
        let before = thread_cpu_ns().unwrap();
        std::thread::sleep(spin);
        let slept = thread_cpu_ns().unwrap() - before;
        assert!(slept < 5_000_000, "a 20 ms sleep used {slept} ns of CPU");
        let thread = thread_cpu_ns().unwrap();
        assert!(process_cpu_ns().unwrap() >= thread);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(to_secs(1_000_000_000), 1.0);
        assert_eq!(to_micros(1_000), 1.0);
        assert!((to_secs(500_000_000) - 0.5).abs() < 1e-12);
    }

    /// Ticks sampled on many threads doing seeded, randomly-sized bursts
    /// of work are (a) non-decreasing within each thread and (b) safely
    /// comparable across threads after a merge — the property the trace
    /// merge key `(tick, gtid, seq)` depends on.
    #[test]
    fn per_thread_tick_sequences_are_non_decreasing_and_mergeable() {
        use crate::testutil::XorShift64;

        let threads = 8;
        let samples_per_thread = 500;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut rng = XorShift64::new(0xc10c_4000 + t as u64);
                    let mut out = Vec::with_capacity(samples_per_thread);
                    let mut sink = 0u64;
                    for _ in 0..samples_per_thread {
                        out.push(ticks());
                        // Seeded, variable-length busywork between samples.
                        for _ in 0..rng.range_usize(0, 64) {
                            sink = sink.wrapping_add(rng.next_u64());
                        }
                    }
                    std::hint::black_box(sink);
                    out
                })
            })
            .collect();
        let sequences: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for (t, seq) in sequences.iter().enumerate() {
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "thread {t}: tick sequence decreased"
            );
        }
        // Merged across threads, every tick stays within the bounds the
        // spawning thread observed: samples taken after all threads
        // joined dominate every in-thread sample.
        let after = ticks();
        let all_max = sequences.iter().flatten().copied().max().unwrap();
        assert!(all_max <= after, "cross-thread ticks are one clock");
    }

    /// Happens-before across threads implies tick order: a tick taken
    /// before sending a message is ≤ any tick taken after receiving it.
    #[test]
    fn cross_thread_causality_preserves_tick_order() {
        for _ in 0..100 {
            let (tx, rx) = std::sync::mpsc::channel();
            let sender = std::thread::spawn(move || {
                tx.send(ticks()).unwrap();
            });
            let sent_at = rx.recv().unwrap();
            let received_at = ticks();
            sender.join().unwrap();
            assert!(sent_at <= received_at);
        }
    }
}
