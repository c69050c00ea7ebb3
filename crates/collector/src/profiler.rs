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
//!
//! The paper's §VI overhead-control plan is a policy of this profiler,
//! set in [`ProfilerConfig`]: "avoid [callstack retrieval] for
//! insignificant events and small parallel regions", and "distinguish
//! between … the calling context for a parallel region". A join shorter
//! than `min_region_secs` costs one comparison instead of an unwind and a
//! store; once a calling context (callstack signature) has kept
//! `max_samples_per_site` samples, its later joins keep none. With the
//! defaults neither applies, and the join path hashes no stack.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering, Ordering::Relaxed};

use ora_core::sync::Mutex;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{ApiHealth, OraResult};
use ora_core::thread::{self, SlotTable};
use psx::unwind::Backtrace;

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::lane::{Collector, Lane};
use crate::report;

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

/// Profiler configuration. The default is the paper's §V tool: a
/// callstack for every join.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Callback behaviour.
    pub mode: Mode,
    /// Joins of regions shorter than this (seconds) keep no callstack.
    pub min_region_secs: f64,
    /// Callstack samples kept per calling context.
    pub max_samples_per_site: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            mode: Mode::Full,
            min_region_secs: 0.0,
            max_samples_per_site: u64::MAX,
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

/// One thread's implicit-barrier time, its slot's entry of the
/// profiler's table: single-writer words, as `StateTimer`'s.
#[derive(Default)]
struct ThreadAccum {
    /// The gtid the thread fires under.
    gtid: AtomicUsize,
    ibar_begin_tick: AtomicU64,
    ibar_ticks: AtomicU64,
    ibar_count: AtomicU64,
}

/// The join callstacks kept, and the §VI policy's account of the rest.
#[derive(Default)]
struct JoinSamples {
    /// (region, duration ticks, implementation callstack) per kept join.
    stacks: Vec<(u64, u64, Backtrace)>,
    /// Samples kept per calling context; filled only under a per-site cap.
    per_site: HashMap<u64, u64>,
    skipped_small: u64,
    skipped_dedup: u64,
}

/// The calling context of a join: a hash of its callstack.
fn signature(bt: &Backtrace) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for ip in bt.frames() {
        ip.0.hash(&mut h);
    }
    h.finish()
}

pub(crate) struct ProfState {
    mode: Mode,
    min_region_secs: f64,
    max_samples_per_site: u64,
    /// Fork tick per in-flight region (master-only writers).
    fork_tick: Mutex<HashMap<u64, u64>>,
    regions: Mutex<HashMap<u64, RegionAccum>>,
    threads: SlotTable<ThreadAccum>,
    samples: Mutex<JoinSamples>,
    events: AtomicU64,
}

/// The event callbacks, reached through the lane's
/// [`on_event`](Lane::on_event) once it has counted the event.
impl ProfState {
    pub(crate) fn new(config: &ProfilerConfig) -> ProfState {
        ProfState {
            mode: config.mode,
            min_region_secs: config.min_region_secs,
            max_samples_per_site: config.max_samples_per_site,
            fork_tick: Mutex::new(HashMap::new()),
            regions: Mutex::new(HashMap::new()),
            threads: SlotTable::new(),
            samples: Mutex::default(),
            events: AtomicU64::new(0),
        }
    }

    #[inline]
    fn on_fork(&self, d: &EventData) {
        let t = clock::ticks();
        self.fork_tick.lock().insert(d.region_id, t);
    }

    #[inline]
    fn on_join(&self, d: &EventData) {
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
        // Duration gate: a comparison before any capture.
        if clock::to_secs(dur) < self.min_region_secs {
            self.samples.lock().skipped_small += 1;
            return;
        }
        let bt = psx::capture();
        let site = (self.max_samples_per_site < u64::MAX).then(|| signature(&bt));
        let mut samples = self.samples.lock();
        if let Some(site) = site {
            let kept = samples.per_site.entry(site).or_default();
            if *kept >= self.max_samples_per_site {
                samples.skipped_dedup += 1;
                return;
            }
            *kept += 1;
        }
        samples.stacks.push((d.region_id, dur, bt));
    }

    #[inline]
    fn on_ibar_begin(&self, d: &EventData) {
        let acc = self.threads.local();
        acc.gtid.store(d.gtid, Relaxed);
        acc.ibar_begin_tick.store(clock::ticks(), Relaxed);
    }

    #[inline]
    fn on_ibar_end(&self) {
        let now = clock::ticks();
        let acc = self.threads.local();
        let begin = acc.ibar_begin_tick.load(Relaxed);
        if begin != 0 {
            thread::add(&acc.ibar_ticks, now.saturating_sub(begin));
            thread::add(&acc.ibar_count, 1);
            acc.ibar_begin_tick.store(0, Relaxed);
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

        let mut threads: Vec<ThreadProfile> = self
            .threads
            .iter()
            .filter(|(_, acc)| acc.ibar_count.load(Relaxed) > 0)
            .map(|(_, acc)| ThreadProfile {
                gtid: acc.gtid.load(Relaxed),
                ibar_secs: clock::to_secs(acc.ibar_ticks.load(Relaxed)),
                ibar_count: acc.ibar_count.load(Relaxed),
            })
            .collect();
        threads.sort_by_key(|t| t.gtid);

        // Offline user-model reconstruction of the recorded join stacks.
        let table = psx::SymbolTable::global();
        let mut tree = psx::CallTree::new();
        let samples = self.samples.lock();
        for (_region, dur, bt) in samples.stacks.iter() {
            let user = psx::reconstruct(bt, table);
            tree.add(&user, clock::to_secs(*dur));
        }
        // Under a per-site cap the map holds every context seen; without
        // one, the kept stacks are every context seen.
        let sites: HashSet<u64> = (samples.per_site.keys().copied())
            .chain(samples.stacks.iter().map(|(_, _, bt)| signature(bt)))
            .collect();

        Profile {
            joins: regions.iter().map(|r| r.calls).sum(),
            regions,
            threads,
            call_tree: tree,
            events_observed: self.events.load(Ordering::Relaxed),
            join_samples: samples.stacks.len() as u64,
            skipped_small: samples.skipped_small,
            skipped_dedup: samples.skipped_dedup,
            distinct_sites: sites.len() as u64,
            api_health,
        }
    }
}

impl Lane for ProfState {
    fn wants(&self, event: Event) -> bool {
        matches!(
            event,
            Event::Fork
                | Event::Join
                | Event::ThreadBeginImplicitBarrier
                | Event::ThreadEndImplicitBarrier
        )
    }

    #[inline]
    fn on_event(&self, d: &EventData) {
        if !self.wants(d.event) {
            return;
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly {
            return;
        }
        match d.event {
            Event::Fork => self.on_fork(d),
            Event::Join => self.on_join(d),
            Event::ThreadBeginImplicitBarrier => self.on_ibar_begin(d),
            _ => self.on_ibar_end(),
        }
    }
}

/// An attached profiler. Dropping it without [`Profiler::finish`]
/// unregisters its callbacks but leaves collection started; always call
/// `finish`.
pub struct Profiler {
    collector: Collector<ProfState>,
}

impl Profiler {
    /// Attach to a runtime: send `Start` and register the fork, join and
    /// implicit-barrier callbacks.
    pub fn attach(handle: RuntimeHandle, config: ProfilerConfig) -> OraResult<Profiler> {
        let collector = Collector::attach(handle, ProfState::new(&config))?;
        Ok(Profiler { collector })
    }

    /// Attach with the default configuration (the paper's tool).
    pub fn attach_default(handle: RuntimeHandle) -> OraResult<Profiler> {
        Self::attach(handle, ProfilerConfig::default())
    }

    /// Suspend event generation (`OMP_REQ_PAUSE`).
    pub fn pause(&self) -> OraResult<()> {
        self.collector.pause()
    }

    /// Resume event generation.
    pub fn resume(&self) -> OraResult<()> {
        self.collector.resume()
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.collector.lane().events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble the offline profile.
    pub fn finish(mut self) -> Profile {
        self.collector.stop();
        // Health counters are lifetime totals and the query is answerable
        // in every phase, so post-Stop is fine.
        let api_health = self.collector.handle().query_health().unwrap_or_default();
        self.collector.lane().profile(api_health)
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
    /// The gtid the thread fired under.
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
    /// Join events observed.
    pub joins: u64,
    /// Join callstack samples recorded.
    pub join_samples: u64,
    /// Joins that kept no callstack: region shorter than
    /// [`ProfilerConfig::min_region_secs`].
    pub skipped_small: u64,
    /// Joins that kept no callstack: their calling context already held
    /// [`ProfilerConfig::max_samples_per_site`] samples.
    pub skipped_dedup: u64,
    /// Distinct calling contexts among the joins whose callstack was
    /// captured.
    pub distinct_sites: u64,
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

    /// Fraction of joins that did *not* pay for callstack capture and
    /// storage.
    pub fn savings(&self) -> f64 {
        if self.joins == 0 {
            return 0.0;
        }
        (self.skipped_small + self.skipped_dedup) as f64 / self.joins as f64
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_distinguishes_stacks() {
        let a = Backtrace::from_ips(vec![1, 2, 3]);
        let b = Backtrace::from_ips(vec![1, 2, 4]);
        let c = Backtrace::from_ips(vec![1, 2, 3]);
        assert_ne!(signature(&a), signature(&b));
        assert_eq!(signature(&a), signature(&c));
    }

    /// The paper's tool pays for no policy: every join keeps its stack,
    /// and no stack is hashed into a site map.
    #[test]
    fn default_join_path_keeps_every_stack_and_builds_no_site_map() {
        let state = ProfState::new(&ProfilerConfig::default());
        for region_id in 1..=3 {
            let fork = EventData {
                region_id,
                ..EventData::bare(Event::Fork, 0)
            };
            state.on_event(&fork);
            state.on_event(&EventData {
                event: Event::Join,
                ..fork
            });
        }
        let samples = state.samples.lock();
        assert_eq!(samples.stacks.len(), 3);
        assert!(samples.per_site.is_empty());
        assert_eq!((samples.skipped_small, samples.skipped_dedup), (0, 0));
    }

    /// Implicit-barrier time from a gtid past any fixed per-gtid table
    /// is charged.
    #[test]
    fn implicit_barrier_time_of_gtid_300_is_charged() {
        let state = ProfState::new(&ProfilerConfig::default());
        let fire = |event| state.on_event(&EventData::bare(event, 300));
        fire(Event::ThreadBeginImplicitBarrier);
        std::thread::sleep(std::time::Duration::from_millis(1));
        fire(Event::ThreadEndImplicitBarrier);
        let threads = state.profile(ApiHealth::default()).threads;
        assert_eq!(threads.len(), 1, "{threads:?}");
        assert_eq!((threads[0].gtid, threads[0].ibar_count), (300, 1));
        assert!(threads[0].ibar_secs >= 1e-3, "{threads:?}");
    }
}
