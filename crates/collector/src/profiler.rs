//! The prototype performance measurement tool of the paper's §V.
//!
//! On attach it "initiates a start request and registers for the fork,
//! join, and implicit barrier events. The callback routine that is invoked
//! each time a registered event occurs at runtime stores a sample of a
//! hardware-based time counter. Furthermore, to estimate the potential
//! overheads from callstack retrieval, the tool also records the current
//! implementation-model callstack for each join event."
//!
//! [`Mode::CallbacksOnly`] keeps the callbacks registered but empty, which
//! is how the §V-B breakdown separates the cost of runtime↔collector
//! communication (event dispatch + callback invocation) from the cost of
//! performance measurement and storage.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::sync::Mutex;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{ApiHealth, OraResult, Request};
use psx::unwind::Backtrace;

use crate::clock;
use crate::discovery::{Registrations, RuntimeHandle};
use crate::report;

/// Highest thread ID the per-thread accumulators cover.
pub const MAX_THREADS: usize = 256;

/// What the registered callbacks do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Sample the time counter and store measurements (the full tool).
    #[default]
    Full,
    /// Callbacks fire but record nothing — isolates the communication
    /// component of the overhead (paper §V-B).
    CallbacksOnly,
}

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Callback behaviour.
    pub mode: Mode,
    /// Record the implementation-model callstack at each join event.
    pub capture_callstacks: bool,
    /// Register for implicit-barrier events and accumulate per-thread
    /// barrier time.
    pub track_barriers: bool,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            mode: Mode::Full,
            capture_callstacks: true,
            track_barriers: true,
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
struct ThreadAccum {
    ibar_begin_tick: u64,
    ibar_ticks: u64,
    ibar_count: u64,
}

pub(crate) struct ProfState {
    mode: Mode,
    capture_callstacks: bool,
    /// Fork tick per in-flight region (master-only writers).
    fork_tick: Mutex<HashMap<u64, u64>>,
    regions: Mutex<HashMap<u64, RegionAccum>>,
    threads: Vec<Mutex<ThreadAccum>>,
    /// (region, duration ticks, implementation callstack) per join.
    stacks: Mutex<Vec<(u64, u64, Backtrace)>>,
    events: AtomicU64,
}

/// The four event callbacks, one method each: [`Profiler`] registers
/// them individually, [`ToolSuite`](crate::ToolSuite)'s single callback
/// reaches them through [`ProfState::on_event`].
impl ProfState {
    pub(crate) fn new(config: &ProfilerConfig) -> ProfState {
        ProfState {
            mode: config.mode,
            capture_callstacks: config.capture_callstacks,
            fork_tick: Mutex::new(HashMap::new()),
            regions: Mutex::new(HashMap::new()),
            threads: (0..MAX_THREADS).map(|_| Mutex::default()).collect(),
            stacks: Mutex::new(Vec::new()),
            events: AtomicU64::new(0),
        }
    }

    #[inline]
    fn on_fork(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly {
            return;
        }
        let t = clock::ticks();
        self.fork_tick.lock().insert(d.region_id, t);
    }

    #[inline]
    fn on_join(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly {
            return;
        }
        let now = clock::ticks();
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
        if self.capture_callstacks {
            let bt = psx::capture();
            self.stacks.lock().push((d.region_id, dur, bt));
        }
    }

    #[inline]
    fn on_ibar_begin(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly || d.gtid >= MAX_THREADS {
            return;
        }
        self.threads[d.gtid].lock().ibar_begin_tick = clock::ticks();
    }

    #[inline]
    fn on_ibar_end(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly || d.gtid >= MAX_THREADS {
            return;
        }
        let now = clock::ticks();
        let mut acc = self.threads[d.gtid].lock();
        if acc.ibar_begin_tick != 0 {
            acc.ibar_ticks += now.saturating_sub(acc.ibar_begin_tick);
            acc.ibar_count += 1;
            acc.ibar_begin_tick = 0;
        }
    }

    /// Route an event from a shared callback to its method.
    pub(crate) fn on_event(&self, d: &EventData) {
        match d.event {
            Event::Fork => self.on_fork(d),
            Event::Join => self.on_join(d),
            Event::ThreadBeginImplicitBarrier => self.on_ibar_begin(d),
            Event::ThreadEndImplicitBarrier => self.on_ibar_end(d),
            _ => {}
        }
    }

    /// Assemble the offline profile ("reconstructing the callstack to
    /// provide a user view of the program is done offline after the
    /// application finishes", paper §IV).
    pub(crate) fn profile(&self, api_health: ApiHealth) -> Profile {
        let mut regions: Vec<RegionProfile> = self
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

        let threads: Vec<ThreadProfile> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(gtid, acc)| {
                let acc = acc.lock();
                (acc.ibar_count > 0).then(|| ThreadProfile {
                    gtid,
                    ibar_secs: clock::to_secs(acc.ibar_ticks),
                    ibar_count: acc.ibar_count,
                })
            })
            .collect();

        // Offline user-model reconstruction of the recorded join stacks.
        let table = psx::SymbolTable::global();
        let mut tree = psx::CallTree::new();
        let stacks = self.stacks.lock();
        for (_region, dur, bt) in stacks.iter() {
            let user = psx::reconstruct(bt, table);
            tree.add(&user, clock::to_secs(*dur));
        }

        Profile {
            regions,
            threads,
            call_tree: tree,
            events_observed: self.events.load(Ordering::Relaxed),
            join_samples: stacks.len() as u64,
            api_health,
        }
    }
}

/// An attached profiler. Dropping it without [`Profiler::finish`]
/// unregisters its callbacks but leaves collection started; always call
/// `finish`.
pub struct Profiler {
    registrations: Registrations,
    state: Arc<ProfState>,
}

impl Profiler {
    /// Attach to a runtime: send `Start` and register the fork/join (and
    /// optionally implicit-barrier) callbacks.
    pub fn attach(handle: RuntimeHandle, config: ProfilerConfig) -> OraResult<Profiler> {
        handle.request_one(Request::Start)?;
        let state = Arc::new(ProfState::new(&config));
        let mut registrations = Registrations::new(handle);

        let s = state.clone();
        registrations.register(Event::Fork, Arc::new(move |d: &EventData| s.on_fork(d)))?;
        let s = state.clone();
        registrations.register(Event::Join, Arc::new(move |d: &EventData| s.on_join(d)))?;
        if config.track_barriers {
            let s = state.clone();
            registrations.register(
                Event::ThreadBeginImplicitBarrier,
                Arc::new(move |d: &EventData| s.on_ibar_begin(d)),
            )?;
            let s = state.clone();
            registrations.register(
                Event::ThreadEndImplicitBarrier,
                Arc::new(move |d: &EventData| s.on_ibar_end(d)),
            )?;
        }

        Ok(Profiler {
            registrations,
            state,
        })
    }

    /// Attach with the default configuration (the paper's tool).
    pub fn attach_default(handle: RuntimeHandle) -> OraResult<Profiler> {
        Self::attach(handle, ProfilerConfig::default())
    }

    /// Suspend event generation (`OMP_REQ_PAUSE`).
    pub fn pause(&self) -> OraResult<()> {
        self.registrations
            .handle()
            .request_one(Request::Pause)
            .map(|_| ())
    }

    /// Resume event generation.
    pub fn resume(&self) -> OraResult<()> {
        self.registrations
            .handle()
            .request_one(Request::Resume)
            .map(|_| ())
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.state.events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble the offline profile.
    pub fn finish(mut self) -> Profile {
        self.registrations.stop();
        // Health counters are lifetime totals and the query is answerable
        // in every phase, so post-Stop is fine.
        let api_health = self
            .registrations
            .handle()
            .query_health()
            .unwrap_or_default();
        self.state.profile(api_health)
    }
}

/// Aggregated statistics of one parallel region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionProfile {
    /// The runtime-assigned region ID.
    pub region_id: u64,
    /// Times the region was entered. With unique IDs per fork this is 1;
    /// it exists for collectors that key regions by callsite.
    pub calls: u64,
    /// Total fork→join wall time.
    pub total_secs: f64,
    /// Mean fork→join wall time.
    pub mean_secs: f64,
    /// Fastest instance.
    pub min_secs: f64,
    /// Slowest instance.
    pub max_secs: f64,
}

/// Per-thread implicit-barrier time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadProfile {
    /// Thread ID.
    pub gtid: usize,
    /// Total time in implicit barriers.
    pub ibar_secs: f64,
    /// Barrier episodes observed.
    pub ibar_count: u64,
}

/// The offline profile produced by [`Profiler::finish`].
pub struct Profile {
    /// Per-region statistics, sorted by region ID.
    pub regions: Vec<RegionProfile>,
    /// Per-thread barrier statistics (threads that hit barriers only).
    pub threads: Vec<ThreadProfile>,
    /// User-model call tree built from the join-event callstacks, weighted
    /// by region duration.
    pub call_tree: psx::CallTree,
    /// Total events the callbacks observed.
    pub events_observed: u64,
    /// Join callstack samples recorded.
    pub join_samples: u64,
    /// The runtime's fault-isolation counters at finish time
    /// (`OMP_REQ_HEALTH`): callback panics caught, callbacks
    /// quarantined, sequence errors.
    pub api_health: ApiHealth,
}

impl Profile {
    /// Number of parallel regions profiled.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total fork→join time across all regions.
    pub fn total_region_secs(&self) -> f64 {
        self.regions.iter().map(|r| r.total_secs).sum()
    }

    /// Render the profile as text tables plus the user-model call tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&report::table(
            &[
                "region", "calls", "total(s)", "mean(us)", "min(us)", "max(us)",
            ],
            self.regions.iter().map(|r| {
                vec![
                    r.region_id.to_string(),
                    r.calls.to_string(),
                    format!("{:.6}", r.total_secs),
                    format!("{:.2}", r.mean_secs * 1e6),
                    format!("{:.2}", r.min_secs * 1e6),
                    format!("{:.2}", r.max_secs * 1e6),
                ]
            }),
        ));
        if !self.threads.is_empty() {
            out.push('\n');
            out.push_str(&report::table(
                &["thread", "ibar(s)", "ibar episodes"],
                self.threads.iter().map(|t| {
                    vec![
                        t.gtid.to_string(),
                        format!("{:.6}", t.ibar_secs),
                        t.ibar_count.to_string(),
                    ]
                }),
            ));
        }
        if self.join_samples > 0 {
            out.push_str("\nuser-model call tree (inclusive seconds):\n");
            out.push_str(&self.call_tree.render());
        }
        if self.api_health.faulted() {
            out.push_str(&format!(
                "\nFAULTS: {} callback panic(s) caught, {} callback(s) quarantined \
                 (profile may be partial; see `omp_prof health`)\n",
                self.api_health.callback_panics, self.api_health.callbacks_quarantined
            ));
        }
        out
    }
}
