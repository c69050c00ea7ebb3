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
