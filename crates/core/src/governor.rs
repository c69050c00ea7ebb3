//! The adaptive overhead governor: budgeted monitored dispatch.
//!
//! The registered-event path costs tens of nanoseconds where the
//! unmonitored path costs ~1 ns; at millions of events per second that
//! difference is the product's tax. This module attacks it the way a
//! production continuous profiler does — by measuring its own overhead
//! online and adapting until it fits a configured budget:
//!
//! 1. **One mask word, one lane per thread.** One cache-padded `mask`
//!    word caches "this event is registered AND collection is active" as
//!    one bit per [`Event`]. [`CollectorApi::event`] tests that bit
//!    before anything else, so a fully unsubscribed event kind costs one
//!    load of a line nobody writes between transitions, and a branch.
//!    The serve path republishes the mask on every lifecycle or
//!    registration transition (the RCU analogue of the registry's own
//!    publication); a stale *set* bit is harmless — the monitored path
//!    re-checks the registry — while clear bits are exact at every
//!    republish point. Past the mask, every thread counts on a
//!    [`DispatchLane`] of its own, its entry of a [`SlotTable`]: only
//!    that thread writes the lane, so each count is a relaxed load and
//!    store, no locked instruction, and exact for any number of threads
//!    and for two threads under one gtid. Sums read every lane the table
//!    holds. The lane also counts the thread's served requests (paper
//!    §IV-B's per-thread request queue).
//! 2. **The feedback loop.** When installed (collector rung
//!    "governed"), the governor times every [`CAL_STRIDE`]-th sampled
//!    dispatch with an injectable clock, reduces the measurements to
//!    their [`crate::stats::robust_median`] (MAD rejection, then a
//!    median), and at the end of each calibration window solves for
//!    per-event-pair sampling shifts ([`plan_shifts`]) so the projected
//!    monitoring cost fits the budget (`OMP_ORA_BUDGET`, e.g. `2%`).
//!    Timings carry over into the next window until at least
//!    [`stats::MIN_KEEP`] have been collected. Decisions are
//!    exposed three ways: the [`GovernorStatus`] snapshot, read
//!    in-process by whoever armed the governor; sampled/skipped
//!    counters in `ApiHealth`, the byte protocol's one status reply;
//!    and a decision log the governed collector rung writes into the
//!    trace so `trace report` can show sampling-rate timelines.
//!
//! Sampling is per *event pair*: the begin of a pair decides (a local
//! power-of-two pace counter) and pushes its fate on a lane-local LIFO
//! stack; the matching end pops it. Both halves of a construct instance
//! are therefore always kept or skipped together — rate changes can
//! never split a begin from its end, which the fuzzer's governed rung
//! and the trace pairing property tests rely on. Admission bumps exactly
//! one of `sampled` / `skipped`; while armed it also bumps the event's
//! `observed` word, so over an interval the governor stays armed the
//! observed words grow by sampled + skipped
//! ([`GovernorStatus::reconciles_since`]). Disarmed, every monitored
//! event is sampled and nothing else is counted.
//!
//! [`CollectorApi::event`]: crate::api::CollectorApi::event

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock;
use crate::event::{Event, ALL_EVENTS, EVENT_COUNT};
use crate::pad::CachePadded;
use crate::stats;
use crate::sync::{Mutex, RwLock};
use crate::thread::{add, SlotTable};

/// Number of begin/end event pairs (sampling decisions are per pair).
pub const PAIR_COUNT: usize = EVENT_COUNT / 2;

/// Maximum per-pair sampling shift: keep 1 in 2^15 events at most.
pub const MAX_SHIFT: u32 = 15;

/// Default overhead budget: 2% (in parts-per-million).
pub const DEFAULT_BUDGET_PPM: u64 = 20_000;

/// Every `CAL_STRIDE`-th *sampled* event on a lane is timed with the
/// governor clock and fed to the calibration window.
pub const CAL_STRIDE: u64 = 64;

/// Every `RETUNE_STRIDE`-th observation of an event kind on a lane
/// attempts a retune (which then gates on the calibration window
/// length). Paced per lane × event index — the admission path keeps no
/// lane-wide total, so a skipped event's bookkeeping stays within the
/// counters planning needs anyway.
pub const RETUNE_STRIDE: u64 = 256;

const COST_SAMPLE_CAP: usize = 512;
const DECISION_CAP: usize = 4096;
const FATE_DEPTH_MAX: u32 = 64;

/// Monotonic tick source injected into the governor. The governed
/// collector rung passes the collector's trace clock so decision ticks
/// share the trace's time domain; tests pass deterministic virtual
/// clocks to make convergence reproducible.
pub type GovernorClock = Arc<dyn Fn() -> u64 + Send + Sync>;

fn default_clock() -> GovernorClock {
    Arc::new(clock::ticks)
}

/// Parse a budget string (`OMP_ORA_BUDGET`) into parts-per-million.
///
/// Accepted forms: `"2%"`, `"0.5%"`, `"2500ppm"`, and a bare number
/// which reads as percent (`"2"` == `"2%"`). Returns `None` for
/// malformed or negative input.
pub fn parse_budget(raw: &str) -> Option<u64> {
    let trimmed = raw.trim();
    let (digits, scale) = if let Some(rest) = trimmed.strip_suffix("ppm") {
        (rest.trim(), 1.0)
    } else if let Some(rest) = trimmed.strip_suffix('%') {
        (rest.trim(), 10_000.0)
    } else {
        (trimmed, 10_000.0)
    };
    let value: f64 = digits.parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    Some((value * scale).round() as u64)
}

/// Hot-path admission verdict for one monitored event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Skip the callback (sampled out); only lane counters were touched.
    Skip,
    /// Run the callback.
    Sample,
    /// Run the callback and time it with the governor clock, feeding
    /// the measurement into the current calibration window.
    SampleTimed,
}

/// One thread's slice of governor hot state ([`Governor::local_lane`]).
///
/// Only the thread that fetched a lane writes it: every word is a
/// single-writer atomic that the thread updates with a relaxed load and
/// store, and that sums read from any thread. Its table entry has a cache
/// line of its own, so one thread's counters never false-share with
/// another's.
#[derive(Default)]
pub struct DispatchLane {
    /// Events admitted to their callback: the one count of deliveries.
    sampled: AtomicU64,
    /// Sampled-out events.
    skipped: AtomicU64,
    /// Requests served on this thread (`ApiHealth::requests`).
    requests: AtomicU64,
    /// Per-event observation counts (window deltas drive planning).
    observed: [AtomicU64; EVENT_COUNT],
    /// Per-pair pace counters driving the power-of-two keep decision.
    pace: [AtomicU32; PAIR_COUNT],
    /// Per-pair LIFO fate stacks (bit per nesting level) so a pair's
    /// end inherits its begin's keep/skip decision.
    fate_bits: [AtomicU64; PAIR_COUNT],
    /// Current depth of each fate stack.
    fate_depth: [AtomicU32; PAIR_COUNT],
}

impl DispatchLane {
    #[inline]
    fn push_fate(&self, slot: usize, keep: bool) {
        let depth = self.fate_depth[slot].load(Ordering::Relaxed);
        if depth < FATE_DEPTH_MAX {
            let bit = 1u64 << depth;
            let bits = self.fate_bits[slot].load(Ordering::Relaxed);
            let next = if keep { bits | bit } else { bits & !bit };
            self.fate_bits[slot].store(next, Ordering::Relaxed);
        }
        self.fate_depth[slot].store(depth.wrapping_add(1), Ordering::Relaxed);
    }

    /// Pop the matching begin's fate; `None` when the stack is empty
    /// (an end observed without its begin, e.g. registration raced the
    /// construct) — the caller then decides independently. Depths past
    /// [`FATE_DEPTH_MAX`] degrade to "keep" on both sides, symmetric.
    #[inline]
    fn pop_fate(&self, slot: usize) -> Option<bool> {
        let depth = self.fate_depth[slot].load(Ordering::Relaxed);
        if depth == 0 {
            return None;
        }
        let top = depth - 1;
        self.fate_depth[slot].store(top, Ordering::Relaxed);
        if top >= FATE_DEPTH_MAX {
            return Some(true);
        }
        Some(self.fate_bits[slot].load(Ordering::Relaxed) & (1u64 << top) != 0)
    }
}

/// One sampling-rate change from a retune, for the trace decision log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorDecision {
    /// Governor-clock tick at which the retune ran.
    pub tick: u64,
    /// The begin event of the pair whose rate changed.
    pub event: Event,
    /// Shift before the change (sampling period `2^old_shift`).
    pub old_shift: u32,
    /// Shift after the change (sampling period `2^new_shift`).
    pub new_shift: u32,
    /// Overhead measured over the window that triggered the change, ppm.
    pub overhead_ppm: u64,
}

/// Snapshot of the governor ([`Governor::status`]), read in-process: a
/// governor is armed only by a caller in the same process (its clock
/// closure cannot cross the byte protocol), so only such a caller reads
/// this. Tick costs are in **milliticks** (ticks × 1000) to keep sub-tick
/// medians representable as integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct GovernorStatus {
    /// 1 when the governor is installed and armed, else 0.
    pub enabled: u64,
    /// Configured overhead budget, parts-per-million.
    pub budget_ppm: u64,
    /// Monitored events admitted while the governor was armed (all
    /// lanes, lifetime): the sum of the per-event `observed` words.
    pub events_observed: u64,
    /// Events admitted to their callback. A callback unlinked between
    /// admission and invoke (an unregister, Stop or quarantine racing
    /// the dispatch) does not run, but its event still counts here.
    pub events_sampled: u64,
    /// Events sampled out by the governor.
    pub events_skipped: u64,
    /// Completed retunes.
    pub retunes: u64,
    /// Overhead measured over the most recent calibration window, ppm.
    pub overhead_ppm: u64,
    /// Calibrated unmonitored dispatch cost, milliticks per event.
    pub baseline_milliticks: u64,
    /// Measured monitored dispatch cost, milliticks per event.
    pub monitored_milliticks: u64,
}

impl GovernorStatus {
    /// Whether every event observed between `armed` and this snapshot
    /// was either sampled or skipped: Δobserved == Δsampled + Δskipped.
    /// Holds over an interval the governor stayed armed throughout (a
    /// disarmed admission counts as sampled only), at rest at both ends.
    pub fn reconciles_since(&self, armed: &GovernorStatus) -> bool {
        self.events_observed - armed.events_observed
            == (self.events_sampled - armed.events_sampled)
                + (self.events_skipped - armed.events_skipped)
    }
}

/// Controller state touched only under the `ctl` mutex (retunes and
/// calibration bookkeeping — never the per-event hot path).
#[derive(Default)]
struct Control {
    min_window_ticks: u64,
    window_start: u64,
    snap_observed: [u64; EVENT_COUNT],
    snap_sampled: u64,
    cost_samples: Vec<f64>,
    decisions: Vec<GovernorDecision>,
}

/// Configuration for installing the governor on a [`crate::api::CollectorApi`].
#[derive(Clone)]
pub struct GovernorConfig {
    /// Overhead budget in parts-per-million (see [`parse_budget`]).
    pub budget_ppm: u64,
    /// Minimum calibration-window length in governor-clock ticks; retune
    /// attempts inside a shorter window are deferred.
    pub min_window_ticks: u64,
    /// Tick source; `None` keeps the process-local nanosecond clock.
    pub clock: Option<GovernorClock>,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            budget_ppm: DEFAULT_BUDGET_PPM,
            min_window_ticks: 2_000_000, // 2 ms at nanosecond ticks
            clock: None,
        }
    }
}

impl std::fmt::Debug for GovernorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernorConfig")
            .field("budget_ppm", &self.budget_ppm)
            .field("min_window_ticks", &self.min_window_ticks)
            .field("clock", &self.clock.as_ref().map(|_| "<injected>"))
            .finish()
    }
}

/// The adaptive overhead governor (module docs). One per
/// [`crate::api::CollectorApi`]; always present (its mask is the fast
/// path's first check, its lanes count deliveries and requests) but only
/// *armed* under the governed collector rung.
pub struct Governor {
    /// Bit `i` set ⇔ event with index `i` is registered AND collection
    /// is active. Republished (never incrementally updated) on every
    /// transition; read with a single relaxed load on the fast path.
    mask: CachePadded<AtomicU64>,
    /// One lane per thread slot, allocated on its thread's first event
    /// or request.
    lanes: SlotTable<DispatchLane>,
    enabled: AtomicBool,
    budget_ppm: AtomicU64,
    /// Per-event sampling shifts; both halves of a pair always hold the
    /// same value (written pair-wise at retune).
    shifts: [AtomicU32; EVENT_COUNT],
    /// Learned plan stashed at [`Governor::uninstall`] so a re-attach
    /// starts from the converged rates instead of re-learning from
    /// scratch (short collections would otherwise spend their whole
    /// life in the transient).
    saved_shifts: [AtomicU32; EVENT_COUNT],
    has_saved: AtomicBool,
    retunes: AtomicU64,
    overhead_ppm: AtomicU64,
    baseline_milliticks: AtomicU64,
    monitored_milliticks: AtomicU64,
    clock: RwLock<GovernorClock>,
    ctl: Mutex<Control>,
}

impl Default for Governor {
    fn default() -> Self {
        Self::new()
    }
}

impl Governor {
    /// A disarmed governor with zeroed masks and counters.
    pub fn new() -> Self {
        Governor {
            mask: CachePadded::new(AtomicU64::new(0)),
            lanes: SlotTable::new(),
            enabled: AtomicBool::new(false),
            budget_ppm: AtomicU64::new(DEFAULT_BUDGET_PPM),
            shifts: Default::default(),
            saved_shifts: Default::default(),
            has_saved: AtomicBool::new(false),
            retunes: AtomicU64::new(0),
            overhead_ppm: AtomicU64::new(0),
            baseline_milliticks: AtomicU64::new(0),
            monitored_milliticks: AtomicU64::new(0),
            clock: RwLock::new(default_clock()),
            ctl: Mutex::new(Control {
                min_window_ticks: GovernorConfig::default().min_window_ticks,
                ..Control::default()
            }),
        }
    }

    /// The calling thread's dispatch lane, allocated on its first use:
    /// two OS threads under one gtid count apart, and no two live threads
    /// share one.
    #[inline]
    pub fn local_lane(&self) -> &DispatchLane {
        self.lanes.local()
    }

    /// [`Governor::local_lane`], under the signature the benchmark's
    /// admission probe calls; the argument names no lane.
    #[inline]
    pub fn lane(&self, _gtid: usize) -> &DispatchLane {
        self.local_lane()
    }

    /// Sum one single-writer word over every lane.
    fn sum(&self, word: impl Fn(&DispatchLane) -> &AtomicU64) -> u64 {
        self.lanes
            .iter()
            .map(|(_, lane)| word(lane).load(Ordering::Relaxed))
            .sum()
    }

    /// Store `mask` as the published mask (serve-path republication).
    pub fn publish_mask(&self, mask: u64) {
        self.mask.store(mask, Ordering::SeqCst);
    }

    /// The currently published mask. One relaxed load — this is the
    /// whole cost of an unsubscribed event.
    #[inline(always)]
    pub fn current_mask(&self) -> u64 {
        self.mask.load(Ordering::Relaxed)
    }

    /// Count `n` requests served on the calling thread.
    pub fn count_requests(&self, n: u64) {
        add(&self.local_lane().requests, n);
    }

    /// Requests served per thread slot, up to the highest slot with a
    /// lane; a slot without one reads 0.
    pub fn requests_per_slot(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for (slot, lane) in self.lanes.iter() {
            counts.resize(slot, 0);
            counts.push(lane.requests.load(Ordering::Relaxed));
        }
        counts
    }

    /// Total requests served, over every thread.
    pub fn requests(&self) -> u64 {
        self.sum(|lane| &lane.requests)
    }

    /// Clone the tick source (two calls bracket a timed dispatch).
    pub fn clock(&self) -> GovernorClock {
        self.clock.read().clone()
    }

    fn now(&self) -> u64 {
        (self.clock.read())()
    }

    /// Stage 1 of installation: adopt clock/budget/window config and
    /// reset the plan, while still disarmed — the caller calibrates the
    /// baseline fast path next, then [`Governor::arm`]s.
    ///
    /// When an earlier attachment stashed a converged plan at
    /// [`Governor::uninstall`], the shifts are re-seeded
    /// from it instead of zeroed: the event mix rarely changes between
    /// collections of the same process, and starting from the learned
    /// rates spares a short collection the whole re-learning transient.
    /// (A mix or budget change is corrected by the first retune, same
    /// as any other drift.)
    pub fn prepare(&self, config: GovernorConfig) {
        self.enabled.store(false, Ordering::SeqCst);
        if let Some(clock) = config.clock {
            *self.clock.write() = clock;
        }
        self.budget_ppm.store(config.budget_ppm, Ordering::Relaxed);
        let reseed = self.has_saved.load(Ordering::Acquire);
        for (shift, saved) in self.shifts.iter().zip(self.saved_shifts.iter()) {
            let seed = saved.load(Ordering::Relaxed);
            shift.store(if reseed { seed } else { 0 }, Ordering::Relaxed);
        }
        let mut ctl = self.ctl.lock();
        ctl.min_window_ticks = config.min_window_ticks;
        ctl.cost_samples.clear();
        ctl.decisions.clear();
    }

    /// Stage 2 of installation: record the calibrated unmonitored cost
    /// (ticks per event) and start governing from a fresh window.
    pub fn arm(&self, baseline_ticks: f64) {
        self.baseline_milliticks
            .store(to_milliticks(baseline_ticks), Ordering::Relaxed);
        let now = self.now();
        {
            let mut ctl = self.ctl.lock();
            ctl.window_start = now;
            ctl.snap_observed = self.observed_per_event();
            ctl.snap_sampled = self.events_sampled();
        }
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Disarm: sampling stops (every monitored event is again kept) and
    /// shifts reset. Lifetime counters are preserved so
    /// health remains monotonic, and the learned plan is stashed so the
    /// next [`Governor::prepare`] re-seeds from it (see there).
    pub fn uninstall(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        for (shift, saved) in self.shifts.iter().zip(self.saved_shifts.iter()) {
            saved.store(shift.load(Ordering::Relaxed), Ordering::Relaxed);
            shift.store(0, Ordering::Relaxed);
        }
        self.has_saved.store(true, Ordering::Release);
    }

    /// Current sampling shift for `event` (period `2^shift`).
    pub fn shift_for(&self, event: Event) -> u32 {
        self.shifts[event.index()].load(Ordering::Relaxed)
    }

    /// Admit one monitored event on `lane`. Called after the registry
    /// and active checks pass; bumps exactly one of sampled/skipped, and
    /// while armed the event's `observed` word as well.
    ///
    /// The bookkeeping is deliberately minimal: disarmed admission is one
    /// load and store of the lane's `sampled`, and a skipped (sampled-out)
    /// event touches only the lane counters planning consumes — no
    /// lane-wide total. Every count is the lane thread's own, so none
    /// takes a locked instruction. `sampled` is the one count of
    /// delivered events.
    #[inline]
    pub fn admit(&self, lane: &DispatchLane, event: Event) -> Admit {
        if !self.enabled.load(Ordering::Relaxed) {
            add(&lane.sampled, 1);
            return Admit::Sample;
        }
        let index = event.index();
        let seen = add(&lane.observed[index], 1);
        if seen.is_multiple_of(RETUNE_STRIDE) {
            self.try_retune();
        }
        let slot = index / 2;
        let keep = if event.is_begin() {
            let keep = self.decide(lane, index, slot);
            lane.push_fate(slot, keep);
            keep
        } else {
            match lane.pop_fate(slot) {
                Some(inherited) => inherited,
                None => self.decide(lane, index, slot),
            }
        };
        if keep {
            if add(&lane.sampled, 1).is_multiple_of(CAL_STRIDE) {
                Admit::SampleTimed
            } else {
                Admit::Sample
            }
        } else {
            add(&lane.skipped, 1);
            Admit::Skip
        }
    }

    #[inline]
    fn decide(&self, lane: &DispatchLane, index: usize, slot: usize) -> bool {
        let shift = self.shifts[index].load(Ordering::Relaxed);
        if shift == 0 {
            return true;
        }
        let pace = lane.pace[slot].load(Ordering::Relaxed);
        lane.pace[slot].store(pace.wrapping_add(1), Ordering::Relaxed);
        pace & ((1u32 << shift) - 1) == 0
    }

    /// Record one timed monitored dispatch (ticks). Lock-free callers
    /// only *try* to reach the window; a contended retune drops the
    /// sample rather than stalling dispatch.
    pub fn record_cost(&self, ticks: u64) {
        if let Some(mut ctl) = self.ctl.try_lock() {
            if ctl.cost_samples.len() < COST_SAMPLE_CAP {
                ctl.cost_samples.push(ticks as f64);
            }
        }
    }

    /// Attempt a retune: measure the closing calibration window, update
    /// the overhead estimate, and re-plan sampling shifts. Non-blocking
    /// (skips when another thread holds the controller or the window is
    /// still too short).
    pub fn try_retune(&self) {
        let Some(mut ctl) = self.ctl.try_lock() else {
            return;
        };
        let now = self.now();
        let elapsed = now.saturating_sub(ctl.window_start);
        if elapsed < ctl.min_window_ticks {
            return;
        }
        let measured = ctl.cost_samples.len() >= stats::MIN_KEEP;
        let cost_ticks = if measured {
            let median = stats::robust_median(&ctl.cost_samples, stats::MAD_K, stats::MIN_KEEP);
            self.monitored_milliticks
                .store(to_milliticks(median), Ordering::Relaxed);
            median
        } else {
            self.monitored_milliticks.load(Ordering::Relaxed) as f64 / 1000.0
        };
        let totals = self.observed_per_event();
        let window: [u64; EVENT_COUNT] = std::array::from_fn(|i| totals[i] - ctl.snap_observed[i]);
        let sampled_total = self.events_sampled();
        let window_sampled = sampled_total - ctl.snap_sampled;
        let measured_ppm = if cost_ticks > 0.0 && elapsed > 0 {
            (window_sampled as f64 * cost_ticks * 1e6 / elapsed as f64) as u64
        } else {
            0
        };
        self.overhead_ppm.store(measured_ppm, Ordering::Relaxed);
        let plan = plan_shifts(
            self.budget_ppm.load(Ordering::Relaxed),
            elapsed,
            cost_ticks,
            &window,
        );
        for pair in 0..PAIR_COUNT {
            let begin = pair * 2;
            let old = self.shifts[begin].load(Ordering::Relaxed);
            let new = plan[begin];
            if new != old {
                self.shifts[begin].store(new, Ordering::Relaxed);
                self.shifts[begin + 1].store(new, Ordering::Relaxed);
                if ctl.decisions.len() < DECISION_CAP {
                    ctl.decisions.push(GovernorDecision {
                        tick: now,
                        event: ALL_EVENTS[begin],
                        old_shift: old,
                        new_shift: new,
                        overhead_ppm: measured_ppm,
                    });
                }
            }
        }
        ctl.window_start = now;
        ctl.snap_observed = totals;
        ctl.snap_sampled = sampled_total;
        // Too few timings to measure: keep them for the next window, or a
        // run whose windows each see fewer than MIN_KEEP never learns a
        // cost and never throttles.
        if measured {
            ctl.cost_samples.clear();
        }
        self.retunes.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the decision log (the governed rung writes these into the
    /// trace as governor records).
    pub fn take_decisions(&self) -> Vec<GovernorDecision> {
        std::mem::take(&mut self.ctl.lock().decisions)
    }

    /// Total events admitted to their callback across lanes (surfaces
    /// in `GovernorStatus` and `ApiHealth`).
    pub fn events_sampled(&self) -> u64 {
        self.sum(|lane| &lane.sampled)
    }

    /// Total sampled-out events across lanes (surfaces in `ApiHealth`).
    pub fn events_skipped(&self) -> u64 {
        self.sum(|lane| &lane.skipped)
    }

    /// Per-event observation totals across lanes.
    pub fn observed_per_event(&self) -> [u64; EVENT_COUNT] {
        let mut totals = [0u64; EVENT_COUNT];
        for (_, lane) in self.lanes.iter() {
            for (total, count) in totals.iter_mut().zip(lane.observed.iter()) {
                *total += count.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Snapshot of budget, counters and measured costs.
    pub fn status(&self) -> GovernorStatus {
        GovernorStatus {
            enabled: u64::from(self.enabled.load(Ordering::SeqCst)),
            budget_ppm: self.budget_ppm.load(Ordering::Relaxed),
            events_observed: self.observed_per_event().iter().sum(),
            events_sampled: self.events_sampled(),
            events_skipped: self.events_skipped(),
            retunes: self.retunes.load(Ordering::Relaxed),
            overhead_ppm: self.overhead_ppm.load(Ordering::Relaxed),
            baseline_milliticks: self.baseline_milliticks.load(Ordering::Relaxed),
            monitored_milliticks: self.monitored_milliticks.load(Ordering::Relaxed),
        }
    }
}

fn to_milliticks(ticks: f64) -> u64 {
    if !ticks.is_finite() || ticks <= 0.0 {
        return 0;
    }
    (ticks * 1000.0).round() as u64
}

/// Solve for per-event sampling shifts so the projected monitoring cost
/// of the *next* window fits the budget, assuming it observes the same
/// per-event mix as the closing one.
///
/// Pure and deterministic (greedy: repeatedly halve the rate of the
/// costliest pair until the projection fits or every pair is at
/// [`MAX_SHIFT`]); both halves of each pair share a shift. A zero or
/// unknown cost plans no throttling — the governor never throttles on
/// data it does not have.
pub fn plan_shifts(
    budget_ppm: u64,
    elapsed_ticks: u64,
    cost_ticks: f64,
    observed: &[u64; EVENT_COUNT],
) -> [u32; EVENT_COUNT] {
    let mut shifts = [0u32; EVENT_COUNT];
    if cost_ticks <= 0.0 || !cost_ticks.is_finite() || elapsed_ticks == 0 {
        return shifts;
    }
    let mut pair_observed = [0u64; PAIR_COUNT];
    for (index, &count) in observed.iter().enumerate() {
        pair_observed[index / 2] += count;
    }
    let budget_ticks = elapsed_ticks as f64 * budget_ppm as f64 / 1e6;
    let cost_of = |pair: usize, shift: u32| -> f64 {
        pair_observed[pair] as f64 * cost_ticks / (1u64 << shift) as f64
    };
    let mut pair_shift = [0u32; PAIR_COUNT];
    loop {
        let projected: f64 = (0..PAIR_COUNT)
            .map(|pair| cost_of(pair, pair_shift[pair]))
            .sum();
        if projected <= budget_ticks {
            break;
        }
        // Halve the rate of the pair currently costing the most; on a
        // tie the highest pair index wins, keeping the plan stable.
        let Some((pair, _)) = (0..PAIR_COUNT)
            .filter(|&pair| pair_shift[pair] < MAX_SHIFT)
            .map(|pair| (pair, cost_of(pair, pair_shift[pair])))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break; // everything already at MAX_SHIFT
        };
        pair_shift[pair] += 1;
    }
    for (index, shift) in shifts.iter_mut().enumerate() {
        *shift = pair_shift[index / 2];
    }
    shifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn budget_strings_parse_to_ppm() {
        assert_eq!(parse_budget("2%"), Some(20_000));
        assert_eq!(parse_budget("0.5%"), Some(5_000));
        assert_eq!(parse_budget(" 10 % "), Some(100_000));
        assert_eq!(parse_budget("2500ppm"), Some(2_500));
        assert_eq!(parse_budget("2"), Some(20_000));
        assert_eq!(parse_budget("0"), Some(0));
        assert_eq!(parse_budget("-1%"), None);
        assert_eq!(parse_budget("lots"), None);
        assert_eq!(parse_budget(""), None);
    }

    #[test]
    fn plan_is_empty_without_cost_knowledge() {
        let mut observed = [0u64; EVENT_COUNT];
        observed[Event::ThreadBeginExplicitBarrier.index()] = 1_000_000;
        assert_eq!(
            plan_shifts(20_000, 1_000_000, 0.0, &observed),
            [0u32; EVENT_COUNT]
        );
        assert_eq!(plan_shifts(20_000, 0, 30.0, &observed), [0u32; EVENT_COUNT]);
    }

    #[test]
    fn plan_fits_the_budget_and_is_pairwise() {
        // 1M barrier events at 30 ticks each over 10M ticks = 300% load;
        // a 2% budget (200k ticks) needs a shift of ceil(log2(150)) = 8.
        let mut observed = [0u64; EVENT_COUNT];
        observed[Event::ThreadBeginExplicitBarrier.index()] = 500_000;
        observed[Event::ThreadEndExplicitBarrier.index()] = 500_000;
        let plan = plan_shifts(20_000, 10_000_000, 30.0, &observed);
        let begin = plan[Event::ThreadBeginExplicitBarrier.index()];
        assert_eq!(
            begin,
            plan[Event::ThreadEndExplicitBarrier.index()],
            "pairs share a shift"
        );
        assert_eq!(begin, 8);
        // Unobserved pairs stay untouched.
        assert_eq!(plan[Event::Fork.index()], 0);
        // The projection at the planned shifts fits the budget.
        let projected = 1_000_000f64 * 30.0 / f64::from(1u32 << begin);
        assert!(projected <= 200_000.0);
    }

    #[test]
    fn plan_throttles_the_costliest_pair_first() {
        let mut observed = [0u64; EVENT_COUNT];
        observed[Event::ThreadBeginExplicitBarrier.index()] = 1_000_000;
        observed[Event::ThreadBeginLockWait.index()] = 1_000;
        // Budget fits the lock traffic alone; barriers must take (all)
        // the throttling.
        let plan = plan_shifts(10_000, 10_000_000, 30.0, &observed);
        assert!(plan[Event::ThreadBeginExplicitBarrier.index()] > 0);
        assert_eq!(plan[Event::ThreadBeginLockWait.index()], 0);
    }

    #[test]
    fn plan_caps_at_max_shift_under_impossible_budgets() {
        let mut observed = [0u64; EVENT_COUNT];
        for count in observed.iter_mut() {
            *count = u64::MAX / EVENT_COUNT as u64 / 2;
        }
        let plan = plan_shifts(0, 1, 1e9, &observed);
        assert!(plan.iter().all(|&s| s == MAX_SHIFT));
    }

    #[test]
    fn fate_stack_pairs_nested_decisions() {
        let lane = DispatchLane::default();
        // Nested: begin(keep) begin(skip) begin(keep) end end end.
        lane.push_fate(0, true);
        lane.push_fate(0, false);
        lane.push_fate(0, true);
        assert_eq!(lane.pop_fate(0), Some(true));
        assert_eq!(lane.pop_fate(0), Some(false));
        assert_eq!(lane.pop_fate(0), Some(true));
        assert_eq!(lane.pop_fate(0), None, "orphan end sees an empty stack");
    }

    #[test]
    fn fate_stack_overflow_degrades_to_keep_symmetrically() {
        let lane = DispatchLane::default();
        for depth in 0..(FATE_DEPTH_MAX + 10) {
            lane.push_fate(3, depth.is_multiple_of(2));
        }
        // The overflowed levels all pop as "keep"...
        for _ in 0..10 {
            assert_eq!(lane.pop_fate(3), Some(true));
        }
        // ...and the stored levels pop their true fates in LIFO order.
        for depth in (0..FATE_DEPTH_MAX).rev() {
            assert_eq!(lane.pop_fate(3), Some(depth.is_multiple_of(2)));
        }
    }

    #[test]
    fn disabled_governor_samples_everything() {
        let governor = Governor::new();
        let lane = governor.local_lane();
        let mut delivered = 0u64;
        for _ in 0..1_000 {
            for event in [
                Event::ThreadBeginExplicitBarrier,
                Event::ThreadEndExplicitBarrier,
            ] {
                assert_eq!(governor.admit(lane, event), Admit::Sample);
                delivered += 1;
            }
        }
        // Disarmed: every event is delivered, none skipped, none observed.
        let status = governor.status();
        assert_eq!(status.events_sampled, delivered);
        assert_eq!(status.events_skipped, 0);
        assert_eq!(status.events_observed, 0);
    }

    #[test]
    fn armed_governor_keeps_begin_end_fates_together() {
        let governor = Governor::new();
        governor.prepare(GovernorConfig {
            budget_ppm: 20_000,
            min_window_ticks: u64::MAX, // never retune in this test
            clock: Some(Arc::new(|| 0)),
        });
        governor.arm(1.0);
        let armed = governor.status();
        // Force a shift directly so sampling is active.
        governor.shifts[Event::ThreadBeginExplicitBarrier.index()].store(3, Ordering::Relaxed);
        governor.shifts[Event::ThreadEndExplicitBarrier.index()].store(3, Ordering::Relaxed);
        let lane = governor.local_lane();
        let mut kept = 0u64;
        for _ in 0..800 {
            let begin = governor.admit(lane, Event::ThreadBeginExplicitBarrier);
            let end = governor.admit(lane, Event::ThreadEndExplicitBarrier);
            assert_eq!(
                begin == Admit::Skip,
                end == Admit::Skip,
                "a begin and its end must share a fate"
            );
            if begin != Admit::Skip {
                kept += 1;
            }
        }
        assert_eq!(kept, 100, "shift 3 keeps exactly 1 in 8");
        let status = governor.status();
        assert!(status.reconciles_since(&armed));
        assert_eq!(status.events_observed, 1_600);
        assert_eq!(status.events_skipped, 1_400);
    }

    #[test]
    fn retune_measures_and_throttles_with_a_virtual_clock() {
        // Deterministic virtual clock: 1 tick per reading.
        let ticks = Arc::new(TestCounter::new(0));
        let clock_ticks = Arc::clone(&ticks);
        let governor = Arc::new(Governor::new());
        governor.prepare(GovernorConfig {
            budget_ppm: 20_000,
            min_window_ticks: 10_000,
            clock: Some(Arc::new(move || {
                clock_ticks.fetch_add(1, Ordering::Relaxed)
            })),
        });
        governor.arm(1.0);
        let armed = governor.status();
        // Simulate windows: dispatch storms punctuated by big clock
        // jumps (idle application time the governor's cost is amortized
        // over).
        let lane = governor.local_lane();
        for _ in 0..4 {
            for _ in 0..10_000 {
                for event in [
                    Event::ThreadBeginExplicitBarrier,
                    Event::ThreadEndExplicitBarrier,
                ] {
                    // Mirror the API's monitored path: time whichever
                    // admit asks to be timed, begin or end.
                    if governor.admit(lane, event) == Admit::SampleTimed {
                        let clock = governor.clock();
                        let t0 = clock();
                        let t1 = clock();
                        governor.record_cost(t1 - t0);
                    }
                }
            }
            ticks.fetch_add(50_000, Ordering::Relaxed);
            governor.try_retune();
        }
        let status = governor.status();
        assert!(status.retunes >= 2, "retunes: {}", status.retunes);
        assert!(
            governor.shift_for(Event::ThreadBeginExplicitBarrier) > 0,
            "unthrottled load far above budget must raise the shift"
        );
        assert!(status.reconciles_since(&armed));
        assert_eq!(status.events_observed, 80_000);
        assert!(status.events_skipped > 0);
        assert!(status.monitored_milliticks > 0);
        // The last measured window must come in at or under ~budget
        // (quantized by power-of-two rates, so allow the next halving up).
        assert!(
            status.overhead_ppm <= 2 * status.budget_ppm,
            "overhead {} ppm vs budget {} ppm",
            status.overhead_ppm,
            status.budget_ppm
        );
    }

    #[test]
    fn decisions_record_rate_changes_and_drain() {
        // Settable virtual clock: time stands still while the window is
        // planted, then jumps so the retune sees a full window.
        let ticks = Arc::new(TestCounter::new(0));
        let clock_ticks = Arc::clone(&ticks);
        let governor = Governor::new();
        governor.prepare(GovernorConfig {
            budget_ppm: 1_000,
            min_window_ticks: 1,
            clock: Some(Arc::new(move || clock_ticks.load(Ordering::Relaxed))),
        });
        governor.arm(1.0);
        // Plant a window: heavy barrier traffic and a known cost.
        let lane = governor.local_lane();
        for _ in 0..5_000 {
            governor.admit(lane, Event::ThreadBeginExplicitBarrier);
            governor.admit(lane, Event::ThreadEndExplicitBarrier);
        }
        for _ in 0..8 {
            governor.record_cost(30);
        }
        ticks.store(1_000_000, Ordering::Relaxed);
        governor.try_retune();
        let decisions = governor.take_decisions();
        assert!(!decisions.is_empty());
        let d = decisions
            .iter()
            .find(|d| d.event == Event::ThreadBeginExplicitBarrier)
            .expect("barrier pair must be retuned");
        assert_eq!(d.old_shift, 0);
        assert!(d.new_shift > 0);
        assert_eq!(
            d.new_shift,
            governor.shift_for(Event::ThreadEndExplicitBarrier)
        );
        assert!(
            governor.take_decisions().is_empty(),
            "drain empties the log"
        );
    }

    #[test]
    fn windows_short_of_min_keep_pool_their_timings_instead_of_starving() {
        let ticks = Arc::new(TestCounter::new(0));
        let clock_ticks = Arc::clone(&ticks);
        let governor = Governor::new();
        governor.prepare(GovernorConfig {
            budget_ppm: 20_000,
            min_window_ticks: 1,
            clock: Some(Arc::new(move || clock_ticks.load(Ordering::Relaxed))),
        });
        governor.arm(1.0);
        // Each window: dense barrier traffic far over budget, but only
        // four timed dispatches, one short of MIN_KEEP.
        let lane = governor.local_lane();
        for window in 1..=3u64 {
            for _ in 0..5_000 {
                governor.admit(lane, Event::ThreadBeginExplicitBarrier);
                governor.admit(lane, Event::ThreadEndExplicitBarrier);
            }
            for _ in 0..stats::MIN_KEEP - 1 {
                governor.record_cost(30);
            }
            ticks.store(window * 1_000_000, Ordering::Relaxed);
            governor.try_retune();
        }
        let status = governor.status();
        assert_eq!(status.retunes, 3);
        assert_eq!(
            status.monitored_milliticks, 30_000,
            "pooled windows measure the cost"
        );
        assert!(status.overhead_ppm > 0);
        assert!(
            governor.shift_for(Event::ThreadBeginExplicitBarrier) > 0,
            "a known cost over budget must throttle"
        );
    }

    #[test]
    fn uninstall_stashes_and_prepare_reseeds_learned_shifts() {
        let governor = Governor::new();
        let config = GovernorConfig {
            budget_ppm: 20_000,
            min_window_ticks: u64::MAX,
            clock: Some(Arc::new(|| 0)),
        };
        // First attachment starts from scratch.
        governor.prepare(config.clone());
        governor.arm(1.0);
        assert_eq!(governor.shift_for(Event::ThreadBeginExplicitBarrier), 0);
        // "Learn" a plan (stand-in for retune convergence).
        governor.shifts[Event::ThreadBeginExplicitBarrier.index()].store(5, Ordering::Relaxed);
        governor.shifts[Event::ThreadEndExplicitBarrier.index()].store(5, Ordering::Relaxed);

        governor.uninstall();
        // Disarmed: every event is kept regardless of the stashed plan.
        assert_eq!(governor.status().enabled, 0);
        let lane = governor.local_lane();
        assert_eq!(
            governor.admit(lane, Event::ThreadBeginExplicitBarrier),
            Admit::Sample
        );

        // Re-attach: the learned rates come back without a transient.
        governor.prepare(config);
        governor.arm(1.0);
        assert_eq!(governor.shift_for(Event::ThreadBeginExplicitBarrier), 5);
        assert_eq!(governor.shift_for(Event::ThreadEndExplicitBarrier), 5);
        let mut kept = 0;
        for _ in 0..320 {
            if governor.admit(lane, Event::ThreadBeginExplicitBarrier) != Admit::Skip {
                kept += 1;
            }
            let _ = governor.admit(lane, Event::ThreadEndExplicitBarrier);
        }
        assert_eq!(kept, 10, "shift 5 keeps exactly 1 in 32 from the start");
    }

    #[test]
    fn disarmed_admission_touches_only_the_sampled_counter() {
        let governor = Governor::new();
        let lane = governor.local_lane();
        for _ in 0..100 {
            assert_eq!(governor.admit(lane, Event::Fork), Admit::Sample);
        }
        assert_eq!(governor.events_sampled(), 100);
        assert_eq!(governor.events_skipped(), 0);
        // The per-event window counters are a governed-path concern; the
        // disarmed fast path leaves them alone.
        assert_eq!(governor.observed_per_event(), [0; EVENT_COUNT]);
    }

    #[test]
    fn the_mask_is_one_word_every_thread_reads() {
        let governor = Governor::new();
        governor.publish_mask(0b1011);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(governor.current_mask(), 0b1011));
        });
        governor.publish_mask(0);
        assert_eq!(governor.current_mask(), 0);
    }

    #[test]
    fn lanes_are_per_thread_and_allocated_on_first_use() {
        let governor = Governor::new();
        assert_eq!(
            governor.lanes.iter().count(),
            0,
            "a fresh governor has no lane"
        );
        // Three threads name the same gtid; each counts on its own lane.
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for n in 1..=3u64 {
                let (governor, barrier) = (&governor, &barrier);
                s.spawn(move || {
                    for _ in 0..n {
                        governor.admit(governor.local_lane(), Event::Fork);
                    }
                    // Hold the slot until every thread has its lane.
                    barrier.wait();
                });
            }
        });
        let mut sampled: Vec<u64> = governor
            .lanes
            .iter()
            .map(|(_, lane)| lane.sampled.load(Ordering::Relaxed))
            .collect();
        sampled.sort_unstable();
        assert_eq!(sampled, [1, 2, 3]);
        assert_eq!(governor.events_sampled(), 6);
    }
}
