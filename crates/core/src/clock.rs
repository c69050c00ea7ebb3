//! The hardware time counter abstraction.
//!
//! The paper's prototype tool "stores a sample of a hardware-based time
//! counter" in each event callback. This module provides that counter: a
//! monotonic tick source read with one call and no allocation, plus
//! conversions for reporting. It is the process's one time base: the
//! collector's callbacks, the governor's default clock, the runtime's
//! `omp_get_wtime` and the POMP baseline all read [`ticks`].
//!
//! # The source
//!
//! A tick is one nanosecond since the process epoch, whichever source
//! backs it. The source is chosen once, at the first [`ticks`] call:
//!
//! - **The invariant TSC**, on x86_64, when CPUID leaf `0x8000_0007`
//!   reports an invariant TSC (EDX bit 8) *and* the kernel's current
//!   clocksource is `tsc` — the kernel's verdict that the counters of
//!   all CPUs run at one rate and agree. A read is `lfence; rdtsc`, the
//!   ordered read the kernel's own vDSO uses, scaled to nanoseconds by
//!   one 64×64→128-bit multiply and a shift. The factor is calibrated
//!   once against [`Instant`] in a 1 ms spin; the counter value at the
//!   start of that spin is tick zero.
//! - **[`Instant`]** otherwise: the elapsed time since one shared
//!   `Instant` epoch (`CLOCK_MONOTONIC` on Linux), read through the vDSO.
//!
//! The ordered TSC read costs about two thirds of an `Instant` read, and
//! the state and trace rungs read the clock once per event.
//!
//! # Monotonicity and cross-thread comparability
//!
//! All threads read the **same** process-wide clock, not a per-thread
//! one. Two guarantees follow, and the trace pipeline leans on both:
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
//! The second is why the TSC read is ordered. A bare `rdtsc` may execute
//! before an earlier load completes, so a thread that has just received
//! a message could sample the counter before the load that received it,
//! and stamp its event earlier than the sender's. The `lfence` makes the
//! read wait for every earlier instruction; the kernel's synchronised
//! clocksource makes counters on different CPUs comparable. A counter
//! read below tick zero (a CPU a few cycles behind the calibrating one)
//! saturates to zero rather than wrapping.
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
#[cfg(target_arch = "x86_64")]
use std::time::Duration;
use std::time::Instant;

/// Tick rate of this clock: one tick per nanosecond. Carried in the
/// fleet protocol's HELLO so an aggregator can interpret ranks' ticks
/// without sharing the producer's build.
pub const TICKS_PER_SEC: u64 = 1_000_000_000;

/// Current tick count (nanoseconds since the process-local epoch).
#[inline]
pub fn ticks() -> u64 {
    clock().now()
}

/// The process's clock, chosen and calibrated at first use.
fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| Clock::tsc().unwrap_or_else(|_| Clock::Instant(Instant::now())))
}

/// A nanosecond tick source and its tick zero.
enum Clock {
    /// The invariant TSC, scaled to nanoseconds.
    #[cfg(target_arch = "x86_64")]
    Tsc(Tsc),
    /// Elapsed time since an `Instant` epoch.
    Instant(Instant),
}

impl Clock {
    /// The TSC source, calibrated now, if both gates pass.
    fn tsc() -> Result<Clock, Refusal> {
        tsc_gate()?;
        #[cfg(target_arch = "x86_64")]
        return Ok(Clock::Tsc(Tsc::calibrate()));
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("the gate refuses every other architecture")
    }

    /// The fallback source, with its epoch now.
    #[cfg(test)]
    fn instant() -> Clock {
        Clock::Instant(Instant::now())
    }

    #[inline]
    fn now(&self) -> u64 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Clock::Tsc(tsc) => tsc.now(),
            Clock::Instant(epoch) => epoch.elapsed().as_nanos() as u64,
        }
    }
}

/// Why the TSC does not back [`ticks`] on this host.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Refusal {
    /// Not an x86_64 build: there is no TSC to read.
    NotX86_64,
    /// CPUID leaf `0x8000_0007` does not report an invariant TSC, so the
    /// counter's rate may follow frequency changes or stop in sleep
    /// states.
    NotInvariant,
    /// The kernel's current clocksource is not `tsc` (it holds what the
    /// file read, or why it could not be read): the kernel has not
    /// found the CPUs' counters synchronised.
    ClockSource(String),
}

/// The kernel's choice of clocksource, `tsc` once it has checked the
/// CPUs' counters against each other.
const CLOCKSOURCE: &str = "/sys/devices/system/clocksource/clocksource0/current_clocksource";

/// Both conditions under which the TSC backs [`ticks`].
fn tsc_gate() -> Result<(), Refusal> {
    if !cfg!(target_arch = "x86_64") {
        return Err(Refusal::NotX86_64);
    }
    if !invariant_tsc() {
        return Err(Refusal::NotInvariant);
    }
    match std::fs::read_to_string(CLOCKSOURCE) {
        Ok(source) if source.trim() == "tsc" => Ok(()),
        Ok(source) => Err(Refusal::ClockSource(source.trim().to_string())),
        Err(e) => Err(Refusal::ClockSource(format!("unreadable: {e}"))),
    }
}

/// Whether CPUID reports an invariant TSC (leaf `0x8000_0007`, EDX bit 8).
#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

/// The invariant TSC scaled to nanoseconds since `origin`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Tsc {
    /// Counter value at tick zero.
    origin: u64,
    /// Nanoseconds per counter increment, fixed point with
    /// [`Tsc::SHIFT`] fraction bits.
    ns_per_count: u64,
}

#[cfg(target_arch = "x86_64")]
impl Tsc {
    /// How long [`Tsc::calibrate`] spins between its two reference points.
    const CALIBRATION: Duration = Duration::from_millis(1);

    /// Fraction bits of `ns_per_count`.
    const SHIFT: u32 = 32;

    /// Measure the counter's rate against `Instant` over a
    /// [`Tsc::CALIBRATION`] spin (no sleep: the thread keeps its core).
    fn calibrate() -> Tsc {
        let (c0, i0) = Tsc::paired_read();
        while i0.elapsed() < Tsc::CALIBRATION {
            std::hint::spin_loop();
        }
        let (c1, i1) = Tsc::paired_read();
        let ns = i1.duration_since(i0).as_nanos();
        let counts = u128::from(c1.saturating_sub(c0).max(1));
        Tsc {
            origin: c0,
            ns_per_count: ((ns << Tsc::SHIFT) / counts) as u64,
        }
    }

    /// One `Instant` and the counter value at the same moment: the
    /// midpoint of the two counter reads around it, from the tightest of
    /// a few tries, so a preemption inside one try costs nothing.
    fn paired_read() -> (u64, Instant) {
        (0..5)
            .map(|_| {
                let before = read_tsc();
                let instant = Instant::now();
                let after = read_tsc();
                let width = after.saturating_sub(before);
                (width, before + width / 2, instant)
            })
            .min_by_key(|&(width, ..)| width)
            .map(|(_, count, instant)| (count, instant))
            .expect("five tries")
    }

    #[inline]
    fn now(&self) -> u64 {
        let counts = read_tsc().saturating_sub(self.origin);
        ((u128::from(counts) * u128::from(self.ns_per_count)) >> Tsc::SHIFT) as u64
    }
}

/// `lfence; rdtsc`: the counter, read once every earlier instruction
/// has completed (see the module doc for why the fence matters).
#[cfg(target_arch = "x86_64")]
#[inline]
fn read_tsc() -> u64 {
    use std::arch::x86_64::{_mm_lfence, _rdtsc};
    // SAFETY: `lfence` (SSE2, part of the x86_64 baseline) and `rdtsc`
    // (present on every x86_64 CPU) touch no memory and have no
    // preconditions.
    unsafe {
        _mm_lfence();
        _rdtsc()
    }
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

    /// The process clock is the TSC exactly when both gates pass, and
    /// the `Instant` fallback otherwise.
    #[test]
    fn the_process_clock_is_the_tsc_exactly_when_both_gates_pass() {
        let on_tsc = !matches!(clock(), Clock::Instant(_));
        assert_eq!(on_tsc, tsc_gate().is_ok(), "gate: {:?}", tsc_gate());
    }

    /// The TSC source, or — on a host where a gate refuses it — proof
    /// that the refusal is the host's answer, so no TSC test passes by
    /// silently testing nothing.
    fn tsc_or_explained_refusal() -> Option<Clock> {
        match Clock::tsc() {
            Ok(clock) => Some(clock),
            Err(why) => {
                match &why {
                    Refusal::NotX86_64 => assert_ne!(std::env::consts::ARCH, "x86_64"),
                    Refusal::NotInvariant => assert!(!invariant_tsc()),
                    Refusal::ClockSource(source) => {
                        assert!(invariant_tsc());
                        assert_ne!(source, "tsc");
                    }
                }
                assert!(matches!(clock(), Clock::Instant(_)), "refused: {why:?}");
                None
            }
        }
    }

    /// A reading of `clock` and an `Instant` taken at the same moment:
    /// the tightest of a few brackets, so a preemption between the two
    /// reads cannot skew the comparison.
    fn paired(clock: &Clock) -> (u64, Instant) {
        (0..20)
            .map(|_| {
                let before = Instant::now();
                let ticks = clock.now();
                let after = Instant::now();
                (after - before, ticks, before + (after - before) / 2)
            })
            .min_by_key(|&(width, ..)| width)
            .map(|(_, ticks, instant)| (ticks, instant))
            .unwrap()
    }

    /// Over 60 ms, TSC-derived ticks advance within 1 % of `Instant`:
    /// the 1 ms calibration found the counter's rate.
    #[test]
    fn tsc_ticks_track_instant_within_one_percent() {
        let Some(tsc) = tsc_or_explained_refusal() else {
            return;
        };
        let (t0, i0) = paired(&tsc);
        while i0.elapsed() < std::time::Duration::from_millis(60) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (t1, i1) = paired(&tsc);
        let ticks = (t1 - t0) as f64;
        let ns = i1.duration_since(i0).as_nanos() as f64;
        assert!(
            (ticks - ns).abs() <= 0.01 * ns,
            "TSC ticks advanced {ticks} over {ns} ns of Instant"
        );
    }

    /// Ticks sampled on many threads doing seeded, randomly-sized bursts
    /// of work are (a) non-decreasing within each thread and (b) safely
    /// comparable across threads after a merge — the property the trace
    /// merge key `(tick, gtid, seq)` depends on.
    fn assert_per_thread_monotone_and_mergeable(clock: &Clock) {
        use crate::testutil::XorShift64;

        let threads = 8;
        let samples_per_thread = 500;
        let sequences: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut rng = XorShift64::new(0xc10c_4000 + t as u64);
                        let mut out = Vec::with_capacity(samples_per_thread);
                        let mut sink = 0u64;
                        for _ in 0..samples_per_thread {
                            out.push(clock.now());
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
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (t, seq) in sequences.iter().enumerate() {
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "thread {t}: tick sequence decreased"
            );
        }
        // Merged across threads, every tick stays within the bounds the
        // spawning thread observed: samples taken after all threads
        // joined dominate every in-thread sample.
        let after = clock.now();
        let all_max = sequences.iter().flatten().copied().max().unwrap();
        assert!(all_max <= after, "cross-thread ticks are one clock");
    }

    /// Happens-before across threads implies tick order: a tick taken
    /// before sending a message is ≤ any tick taken after receiving it.
    fn assert_cross_thread_causality(clock: &Clock) {
        for _ in 0..100 {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                s.spawn(|| tx.send(clock.now()).unwrap());
                let sent_at = rx.recv().unwrap();
                let received_at = clock.now();
                assert!(sent_at <= received_at);
            });
        }
    }

    #[test]
    fn per_thread_tick_sequences_are_non_decreasing_and_mergeable() {
        assert_per_thread_monotone_and_mergeable(clock());
        assert_per_thread_monotone_and_mergeable(&Clock::instant());
        if let Some(tsc) = tsc_or_explained_refusal() {
            assert_per_thread_monotone_and_mergeable(&tsc);
        }
    }

    #[test]
    fn cross_thread_causality_preserves_tick_order() {
        assert_cross_thread_causality(clock());
        assert_cross_thread_causality(&Clock::instant());
        if let Some(tsc) = tsc_or_explained_refusal() {
            assert_cross_thread_causality(&tsc);
        }
    }
}
