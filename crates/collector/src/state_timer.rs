//! Per-thread time-in-state accounting.
//!
//! The introduction's motivation for thread states is telling "when a
//! thread performs a fork/join operation and goes from a serial state to
//! another state (i.e. parallel overhead state or parallel work state)".
//! This collector turns the state machinery into a profile: it registers
//! for every event the runtime supports, and at each event (which runs on
//! the firing thread) issues an `OMP_REQ_STATE` query, attributing the
//! time since the thread's previous event to the previously observed
//! state. The result is a per-thread breakdown of work / overhead /
//! barrier / wait / idle time — the classic OpenMP efficiency report.
//! Threads are told apart by their slot (`ora_core::thread`), not their
//! gtid: two OS threads firing under one gtid are two rows, each charged
//! its own time, and every gtid the runtime hands out is charged.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::OraResult;
use ora_core::state::{ThreadState, ALL_STATES, STATE_COUNT};
use ora_core::thread::{self, SlotTable};

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::lane::{Collector, Lane};
use crate::report;

/// One thread's accounting, its slot's entry of the timer's table. Only
/// the thread holding the slot writes it, with plain loads and stores;
/// [`TimerState::profile`] only loads. Every access is `Relaxed`: no
/// field publishes other data, a reader needs each counter only on its
/// own, and the writer reads back its own stores in program order.
#[derive(Default)]
struct ThreadSlot {
    /// [`thread::owner`] of the thread that wrote the entry last; 0
    /// before the first event. A slot's next holder adds to the same row
    /// from its own first event on: it is never charged the gap since the
    /// last holder's.
    owner: AtomicU64,
    /// The gtid the thread fires under.
    gtid: AtomicUsize,
    /// Events charged.
    events: AtomicU64,
    /// Tick of the thread's previous event.
    last_tick: AtomicU64,
    /// `index + 1` of the state the thread was in at its previous event.
    last_state: AtomicU32,
    /// Ticks charged to each state, indexed by [`ThreadState::index`].
    per_state: [AtomicU64; STATE_COUNT],
}

pub(crate) struct TimerState {
    handle: RuntimeHandle,
    threads: SlotTable<ThreadSlot>,
}

impl TimerState {
    pub(crate) fn new(handle: RuntimeHandle) -> TimerState {
        TimerState {
            handle,
            threads: SlotTable::new(),
        }
    }

    /// The per-thread state-time profile accumulated so far, one row per
    /// thread slot in gtid order. Each slot's counters only grow, so a
    /// later call never reports less.
    pub(crate) fn profile(&self) -> StateProfile {
        let mut threads: Vec<ThreadStateTimes> = self
            .threads
            .iter()
            .filter(|(_, slot)| slot.owner.load(Relaxed) != 0)
            .map(|(_, slot)| ThreadStateTimes {
                gtid: slot.gtid.load(Relaxed),
                events: slot.events.load(Relaxed),
                secs_per_state: std::array::from_fn(|i| {
                    clock::to_secs(slot.per_state[i].load(Relaxed))
                }),
            })
            .collect();
        threads.sort_by_key(|t| t.gtid);
        StateProfile { threads }
    }
}

impl Lane for TimerState {
    fn wants(&self, _: Event) -> bool {
        true
    }

    /// The event callback: query the firing thread's state and charge
    /// the time since its previous event to the state it was in then.
    #[inline]
    fn on_event(&self, d: &EventData) {
        let Ok((now_state, _)) = self.handle.query_state() else {
            return;
        };
        let now = clock::ticks();
        let slot = self.threads.local();
        let owner = thread::owner();
        if slot.owner.load(Relaxed) == owner {
            let elapsed = now.saturating_sub(slot.last_tick.load(Relaxed));
            thread::add(
                &slot.per_state[slot.last_state.load(Relaxed) as usize - 1],
                elapsed,
            );
        } else {
            slot.owner.store(owner, Relaxed);
            slot.gtid.store(d.gtid, Relaxed);
        }
        thread::add(&slot.events, 1);
        slot.last_tick.store(now, Relaxed);
        slot.last_state.store(now_state.index() as u32 + 1, Relaxed);
    }
}

/// An attached state-time profiler.
pub struct StateTimer {
    collector: Collector<TimerState>,
}

impl StateTimer {
    /// Attach: send `Start` and register a sampling callback on every
    /// supported event.
    pub fn attach(handle: RuntimeHandle) -> OraResult<StateTimer> {
        let collector = Collector::attach(handle.clone(), TimerState::new(handle))?;
        Ok(StateTimer { collector })
    }

    /// Stop collection and produce the per-thread state-time profile.
    /// The callbacks — each of which holds the runtime handle — are
    /// released, so a finished timer keeps nothing of the runtime alive.
    pub fn finish(mut self) -> StateProfile {
        self.collector.stop();
        self.collector.lane().profile()
    }
}

/// One thread's accumulated seconds per state.
#[derive(Debug, Clone)]
pub struct ThreadStateTimes {
    /// The gtid the thread fired under.
    pub gtid: usize,
    /// Events charged to the thread.
    pub events: u64,
    /// Seconds attributed to each state, indexed by [`ThreadState::index`].
    pub secs_per_state: [f64; STATE_COUNT],
}

impl ThreadStateTimes {
    /// Seconds the thread spent in `state`.
    pub fn secs(&self, state: ThreadState) -> f64 {
        self.secs_per_state[state.index()]
    }

    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.secs_per_state.iter().sum()
    }

    /// Fraction of attributed time spent productively (work or serial).
    pub fn efficiency(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        (self.secs(ThreadState::Working) + self.secs(ThreadState::Serial)) / total
    }
}

/// The assembled per-thread state-time report.
#[derive(Debug, Clone)]
pub struct StateProfile {
    /// Threads that produced at least one sample.
    pub threads: Vec<ThreadStateTimes>,
}

impl StateProfile {
    /// Total seconds across threads spent in `state`.
    pub fn total_secs(&self, state: ThreadState) -> f64 {
        self.threads.iter().map(|t| t.secs(state)).sum()
    }

    /// Render the profile as a text table (non-zero states only).
    pub fn render(&self) -> String {
        let active_states: Vec<ThreadState> = ALL_STATES
            .iter()
            .copied()
            .filter(|s| self.total_secs(*s) > 0.0)
            .collect();
        let mut headers = vec!["thread".to_string()];
        headers.extend(active_states.iter().map(|s| s.name().to_string()));
        headers.push("efficiency".to_string());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        report::table(
            &header_refs,
            self.threads.iter().map(|t| {
                let mut row = vec![t.gtid.to_string()];
                row.extend(active_states.iter().map(|s| format!("{:.6}", t.secs(*s))));
                row.push(format!("{:.1}%", t.efficiency() * 100.0));
                row
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::Ordering::{Acquire, Release};
    use std::sync::Barrier;
    use std::time::Duration;

    use omprt::OpenMp;

    fn handle_for(rt: &OpenMp) -> RuntimeHandle {
        RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime exports its symbol")
    }

    fn barrier_storm(rt: &OpenMp, regions: usize) {
        for _ in 0..regions {
            rt.parallel(|ctx| {
                for _ in 0..20 {
                    ctx.barrier();
                }
            });
        }
    }

    /// A [`TimerState`] that checks, on the firing thread just after the
    /// timer's own callback, that the thread's seconds over all states
    /// add up to the span from its first event to this one. Only the
    /// firing thread writes its slot, so the check reads a settled slot
    /// at every event, with no wait for the team to go quiet.
    struct SpanCheck {
        timer: TimerState,
        /// Tick of each thread's first accounted event.
        first: SlotTable<AtomicU64>,
        checks: AtomicU64,
        /// Largest |seconds over all states − span| / span seen, as f64 bits.
        worst: AtomicU64,
    }

    impl SpanCheck {
        fn new(handle: RuntimeHandle) -> SpanCheck {
            SpanCheck {
                timer: TimerState::new(handle),
                first: SlotTable::new(),
                checks: AtomicU64::new(0),
                worst: AtomicU64::new(0),
            }
        }

        /// Attach, run `f`, stop; every thread's seconds matched its span
        /// at each of at least `min_checks` events.
        fn run(handle: RuntimeHandle, min_checks: u64, f: impl FnOnce()) -> StateProfile {
            let mut collector = Collector::attach(handle.clone(), SpanCheck::new(handle)).unwrap();
            f();
            collector.stop();
            let lane = collector.lane();
            let checks = lane.checks.load(Relaxed);
            assert!(checks >= min_checks, "{checks} checks");
            let worst = f64::from_bits(lane.worst.load(Relaxed));
            assert!(
                worst <= 1e-12,
                "state seconds off their span by {worst} (relative)"
            );
            lane.timer.profile()
        }
    }

    impl Lane for SpanCheck {
        fn wants(&self, event: Event) -> bool {
            self.timer.wants(event)
        }

        fn on_event(&self, d: &EventData) {
            self.timer.on_event(d);
            let (slot, first) = (self.timer.threads.local(), self.first.local());
            let last = slot.last_tick.load(Relaxed);
            if first.load(Relaxed) == 0 {
                first.store(last, Relaxed);
                return;
            }
            let span = clock::to_secs(last - first.load(Relaxed));
            let secs: f64 = slot
                .per_state
                .iter()
                .map(|t| clock::to_secs(t.load(Relaxed)))
                .sum();
            let error = if span > 0.0 {
                (secs - span).abs() / span
            } else {
                secs
            };
            self.checks.fetch_add(1, Relaxed);
            self.worst.fetch_max(error.to_bits(), Relaxed);
        }
    }

    /// Every tick between a thread's first and last event is charged to
    /// exactly one state, so its seconds over all states add up to that
    /// span — checked at each event of a two-thread barrier storm.
    #[test]
    fn each_threads_state_seconds_sum_to_its_event_span() {
        let rt = OpenMp::with_threads(2);
        // 50 regions × 20 barriers × 2 events × 2 threads, at least.
        let profile = SpanCheck::run(handle_for(&rt), 4_000, || barrier_storm(&rt, 50));
        assert_eq!(profile.threads.len(), 2, "both threads sampled");
    }

    /// Two OS threads outside any region, each bound as gtid 0 by its
    /// first `parallel` (the runtime's serial master), contend one
    /// `OmpLock`, taking turns to hold it while the other waits: they are
    /// two rows, each charged exactly its own span.
    #[test]
    fn two_threads_under_gtid_0_are_two_rows_each_charged_its_own_span() {
        let rt = OpenMp::with_threads(1);
        let lock = rt.new_lock();
        let both = Barrier::new(2);
        let profile = SpanCheck::run(handle_for(&rt), 2 * 3, || {
            std::thread::scope(|s| {
                for me in 0..2 {
                    let (rt, lock, both) = (&rt, &lock, &both);
                    s.spawn(move || {
                        rt.parallel(|_| {});
                        for turn in 0..100 {
                            if turn % 2 == me {
                                lock.set();
                                both.wait();
                                std::thread::sleep(Duration::from_micros(200));
                                lock.unset();
                            } else {
                                both.wait();
                                lock.set();
                                lock.unset();
                            }
                        }
                    });
                }
            });
        });
        let gtids: Vec<usize> = profile.threads.iter().map(|t| t.gtid).collect();
        assert_eq!(gtids, [0, 0], "one row per thread");
        let waits = profile.total_secs(ThreadState::LockWait);
        assert!(waits > 0.0, "no lock wait was charged: {profile:?}");
    }

    /// An event from a gtid far past any fixed per-gtid table is charged.
    #[test]
    fn an_event_from_gtid_300_is_charged() {
        let rt = OpenMp::with_threads(1);
        let timer = TimerState::new(handle_for(&rt));
        let fire = |event| timer.on_event(&EventData::bare(event, 300));
        fire(Event::ThreadBeginLockWait);
        std::thread::sleep(Duration::from_millis(1));
        fire(Event::ThreadEndLockWait);
        let rows = timer.profile().threads;
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!((rows[0].gtid, rows[0].events), (300, 2));
        assert!(rows[0].total() >= 1e-3, "{rows:?}");
    }

    /// A slot handed on to a new thread is not charged the time since the
    /// previous holder's last event: the new holder's first event
    /// charges nothing. Threads end and start until one inherits the
    /// slot its predecessor held.
    #[test]
    fn a_slots_next_holder_does_not_inherit_the_last_tick() {
        let rt = OpenMp::with_threads(1);
        let timer = TimerState::new(handle_for(&rt));
        let fire = || {
            timer.on_event(&EventData::bare(Event::Fork, 7));
            let slot = timer.threads.local();
            let charged: u64 = slot.per_state.iter().map(|t| t.load(Relaxed)).sum();
            (thread::slot(), charged)
        };
        let mut previous = std::thread::scope(|s| s.spawn(fire).join().unwrap()).0;
        for _ in 0..1_000 {
            std::thread::sleep(Duration::from_millis(2));
            let (slot, charged) = std::thread::scope(|s| s.spawn(fire).join().unwrap());
            if slot == previous {
                assert_eq!(charged, 0, "slot {slot}'s next holder was charged the gap");
                return;
            }
            previous = slot;
        }
        panic!("no thread was handed its predecessor's slot");
    }

    /// Each thread of a team that keeps opening serialized nested
    /// regions is charged under its own gtid, so no gtid adds up more
    /// time than the run lasted.
    #[test]
    fn nested_regions_charge_no_gtid_more_than_the_run() {
        let rt = OpenMp::with_threads(2);
        let timer = StateTimer::attach(handle_for(&rt)).unwrap();
        let start = clock::ticks();
        for _ in 0..200 {
            rt.parallel(|_| rt.parallel(|inner| inner.barrier()));
        }
        let run = clock::to_secs(clock::ticks() - start);
        let profile = timer.finish();
        let gtids: Vec<usize> = profile.threads.iter().map(|t| t.gtid).collect();
        assert_eq!(gtids, [0, 1]);
        for t in &profile.threads {
            assert!(
                t.total() <= run,
                "gtid {} charged {} s in a {run} s run",
                t.gtid,
                t.total()
            );
        }
    }

    /// `profile` reads the slots while their owners write them: it
    /// neither panics nor reports less time than an earlier call did.
    #[test]
    fn profile_during_a_storm_never_reports_less_than_before() {
        let rt = OpenMp::with_threads(2);
        let timer = StateTimer::attach(handle_for(&rt)).unwrap();
        let lane = timer.collector.lane();
        let (reading, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let reads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut reads, mut before) = (0u64, 0.0);
                while !done.load(Acquire) {
                    let total: f64 = lane.profile().threads.iter().map(|t| t.total()).sum();
                    assert!(total >= before, "profile fell from {before} s to {total} s");
                    before = total;
                    reads += 1;
                    reading.store(true, Release);
                    std::thread::yield_now();
                }
                reads
            });
            while !reading.load(Acquire) {
                std::thread::yield_now();
            }
            barrier_storm(&rt, 200);
            done.store(true, Release);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        assert_eq!(timer.finish().threads.len(), 2);
    }
}
