//! One attachment, every report.
//!
//! ORA gives each event a single callback slot shared by all threads
//! (paper §IV-C), so two tools attached to the same runtime would clobber
//! each other's registrations. Real tools therefore multiplex: register
//! once, fan the stream out internally. [`ToolSuite`] is that multiplexer
//! — a single registration pass that simultaneously produces the
//! profiler's region/barrier report, the tracer's record stream, and the
//! state-timer's per-thread accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::sync::Mutex;

use ora_core::event::{Event, ALL_EVENTS, EVENT_COUNT};
use ora_core::registry::EventData;
use ora_core::request::{OraError, OraResult, Request, Response};
use ora_core::state::{ThreadState, STATE_COUNT};

use crate::clock;
use crate::discovery::{Registrations, RuntimeHandle};
use crate::profiler::{Profile, RegionProfile, ThreadProfile, MAX_THREADS};
use crate::state_timer::{StateProfile, ThreadStateTimes};
use crate::tracer::{Trace, TraceRecord};

/// Which reports the suite assembles.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Produce the profiler report (region timings, barrier times, join
    /// callstacks).
    pub profile: bool,
    /// Keep a trace with this capacity (None = no trace).
    pub trace_capacity: Option<usize>,
    /// Produce per-thread time-in-state accounting.
    pub state_times: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            profile: true,
            trace_capacity: Some(65_536),
            state_times: true,
        }
    }
}

#[derive(Default, Clone, Copy)]
struct RegionAccum {
    calls: u64,
    total_ticks: u64,
    min_ticks: u64,
    max_ticks: u64,
}

#[derive(Default)]
struct PerThread {
    ibar_begin_tick: u64,
    ibar_ticks: u64,
    ibar_count: u64,
    last_tick: u64,
    last_state: Option<ThreadState>,
    state_ticks: [u64; STATE_COUNT],
}

struct SuiteState {
    cfg: SuiteConfig,
    handle: RuntimeHandle,
    fork_tick: Mutex<HashMap<u64, u64>>,
    regions: Mutex<HashMap<u64, RegionAccum>>,
    threads: Vec<Mutex<PerThread>>,
    stacks: Mutex<Vec<(u64, psx::Backtrace)>>,
    trace: Mutex<Vec<TraceRecord>>,
    trace_counts: [AtomicU64; EVENT_COUNT],
    trace_dropped: AtomicU64,
    events: AtomicU64,
}

/// The multiplexing tool.
pub struct ToolSuite {
    registrations: Registrations,
    state: Arc<SuiteState>,
}

impl ToolSuite {
    /// Attach with `cfg`: one `Start`, one registration pass over every
    /// supported event.
    pub fn attach(handle: RuntimeHandle, cfg: SuiteConfig) -> OraResult<ToolSuite> {
        handle.request_one(Request::Start)?;
        let supported: Vec<Event> = match handle.request_one(Request::QueryCapabilities) {
            Ok(resp) => resp
                .supported_events()
                .unwrap_or_else(|| ALL_EVENTS.to_vec()),
            Err(_) => ALL_EVENTS.to_vec(),
        };

        let state = Arc::new(SuiteState {
            cfg,
            handle: handle.clone(),
            fork_tick: Mutex::new(HashMap::new()),
            regions: Mutex::new(HashMap::new()),
            threads: (0..MAX_THREADS).map(|_| Mutex::default()).collect(),
            stacks: Mutex::new(Vec::new()),
            trace: Mutex::new(Vec::new()),
            trace_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            trace_dropped: AtomicU64::new(0),
            events: AtomicU64::new(0),
        });

        let mut registrations = Registrations::new(handle);
        for event in supported {
            let s = state.clone();
            registrations.register(event, Arc::new(move |d: &EventData| s.on_event(d)))?;
        }
        Ok(ToolSuite {
            registrations,
            state,
        })
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.state.events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble every configured report.
    pub fn finish(mut self) -> SuiteReport {
        self.registrations.stop();
        let api_health = self
            .registrations
            .handle()
            .query_health()
            .unwrap_or_default();
        let s = self.state;

        let profile = s.cfg.profile.then(|| {
            let mut regions: Vec<RegionProfile> = s
                .regions
                .lock()
                .iter()
                .map(|(&region_id, acc)| RegionProfile {
                    region_id,
                    calls: acc.calls,
                    total_secs: clock::to_secs(acc.total_ticks),
                    mean_secs: clock::to_secs(acc.total_ticks) / acc.calls.max(1) as f64,
                    min_secs: clock::to_secs(acc.min_ticks),
                    max_secs: clock::to_secs(acc.max_ticks),
                })
                .collect();
            regions.sort_by_key(|r| r.region_id);
            let threads: Vec<ThreadProfile> = s
                .threads
                .iter()
                .enumerate()
                .filter_map(|(gtid, t)| {
                    let t = t.lock();
                    (t.ibar_count > 0).then(|| ThreadProfile {
                        gtid,
                        ibar_secs: clock::to_secs(t.ibar_ticks),
                        ibar_count: t.ibar_count,
                    })
                })
                .collect();
            let table = psx::SymbolTable::global();
            let mut tree = psx::CallTree::new();
            let stacks = s.stacks.lock();
            for (dur, bt) in stacks.iter() {
                tree.add(&psx::reconstruct(bt, table), clock::to_secs(*dur));
            }
            Profile {
                regions,
                threads,
                call_tree: tree,
                events_observed: s.events.load(Ordering::Relaxed),
                join_samples: stacks.len() as u64,
                api_health,
            }
        });

        let trace = s.cfg.trace_capacity.map(|_| {
            let mut records = std::mem::take(&mut *s.trace.lock());
            records.sort_by_key(|r| r.tick);
            Trace {
                records,
                counts: std::array::from_fn(|i| s.trace_counts[i].load(Ordering::Relaxed)),
                dropped: s.trace_dropped.load(Ordering::Relaxed),
            }
        });

        let state_times = s.cfg.state_times.then(|| StateProfile {
            threads: s
                .threads
                .iter()
                .enumerate()
                .filter_map(|(gtid, t)| {
                    let t = t.lock();
                    t.last_state?;
                    Some(ThreadStateTimes {
                        gtid,
                        secs_per_state: std::array::from_fn(|i| clock::to_secs(t.state_ticks[i])),
                    })
                })
                .collect(),
        });

        SuiteReport {
            profile,
            trace,
            state_times,
        }
    }
}

impl SuiteState {
    fn on_event(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let now = clock::ticks();

        // Trace lane.
        if let Some(cap) = self.cfg.trace_capacity {
            self.trace_counts[d.event.index()].fetch_add(1, Ordering::Relaxed);
            let mut trace = self.trace.lock();
            if trace.len() < cap {
                trace.push(TraceRecord {
                    tick: now,
                    gtid: d.gtid,
                    event: d.event,
                    region_id: d.region_id,
                    wait_id: d.wait_id,
                });
            } else {
                self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Profiler lane.
        if self.cfg.profile {
            match d.event {
                Event::Fork => {
                    self.fork_tick.lock().insert(d.region_id, now);
                }
                Event::Join => {
                    let start = self.fork_tick.lock().remove(&d.region_id);
                    let dur = start.map(|t| now.saturating_sub(t)).unwrap_or(0);
                    {
                        let mut regions = self.regions.lock();
                        let acc = regions.entry(d.region_id).or_default();
                        acc.calls += 1;
                        acc.total_ticks += dur;
                        acc.min_ticks = if acc.calls == 1 {
                            dur
                        } else {
                            acc.min_ticks.min(dur)
                        };
                        acc.max_ticks = acc.max_ticks.max(dur);
                    }
                    self.stacks.lock().push((dur, psx::capture()));
                }
                Event::ThreadBeginImplicitBarrier if d.gtid < MAX_THREADS => {
                    self.threads[d.gtid].lock().ibar_begin_tick = now;
                }
                Event::ThreadEndImplicitBarrier if d.gtid < MAX_THREADS => {
                    let mut t = self.threads[d.gtid].lock();
                    if t.ibar_begin_tick != 0 {
                        t.ibar_ticks += now.saturating_sub(t.ibar_begin_tick);
                        t.ibar_count += 1;
                        t.ibar_begin_tick = 0;
                    }
                }
                _ => {}
            }
        }

        // State-timer lane: sample the firing thread's state.
        if self.cfg.state_times && d.gtid < MAX_THREADS {
            if let Ok(Response::State { state, .. }) = self.handle.request_one(Request::QueryState)
            {
                let mut t = self.threads[d.gtid].lock();
                if let Some(prev) = t.last_state {
                    let elapsed = now.saturating_sub(t.last_tick);
                    t.state_ticks[prev.index()] += elapsed;
                }
                t.last_tick = now;
                t.last_state = Some(state);
            }
        }
    }
}

/// Everything one attachment produced.
pub struct SuiteReport {
    /// Region/barrier/call-tree profile (if configured).
    pub profile: Option<Profile>,
    /// Event trace (if configured).
    pub trace: Option<Trace>,
    /// Per-thread state times (if configured).
    pub state_times: Option<StateProfile>,
}

impl SuiteReport {
    /// Render all configured reports as one text document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(p) = &self.profile {
            out.push_str("=== profile ===\n");
            out.push_str(&p.render());
        }
        if let Some(s) = &self.state_times {
            out.push_str("\n=== state times ===\n");
            out.push_str(&s.render());
        }
        if let Some(t) = &self.trace {
            out.push_str(&format!(
                "\n=== trace === ({} records, {} dropped)\n",
                t.records.len(),
                t.dropped
            ));
            out.push_str(&crate::analysis::analyze(t).render());
        }
        out
    }
}

/// Attaching two tools to one runtime clobbers registrations — make the
/// failure mode visible for documentation purposes.
pub fn second_attachment_would_clobber(handle: &RuntimeHandle) -> OraResult<()> {
    // A second Start on an already-started API is the canonical signal.
    match handle.request_one(Request::Start) {
        Err(OraError::OutOfSequence) => Ok(()),
        Ok(_) => Err(OraError::Error),
        Err(e) => Err(e),
    }
}
