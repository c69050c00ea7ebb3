//! The runtime instance: fork/join, master personas, ORA wiring.
//!
//! One [`OpenMp`] value corresponds to one loaded OpenMP runtime library:
//! it owns the worker pool, the thread descriptors, the collector API
//! instance it exports under `__omp_collector_api`, and the region-ID
//! counters. Multiple instances can coexist in a process (the multi-zone
//! simulation gives each rank its own), each exporting an
//! instance-qualified symbol; the first instance also claims the canonical
//! symbol name, like the single OpenMP runtime of a real process.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use ora_core::sync::{Mutex, RwLock};

use ora_core::api::{CollectorApi, RuntimeInfoProvider};
use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraError, OraResult};
use ora_core::state::{ThreadState, WaitIdKind};
use ora_core::COLLECTOR_API_SYMBOL;
use psx::symtab::{Ip, SymbolDesc, SymbolTable};

use crate::config::Config;
use crate::context::ParCtx;
use crate::descriptor::ThreadDescriptor;
use crate::pool::{worker_main, ErasedClosure, Work};
use crate::region::RegionHandle;
use crate::team::Team;
use crate::tls;
use crate::topology::Topology;

/// Synthetic IPs of the runtime's own entry points, so captured
/// implementation-model callstacks contain the `__ompc_*` frames the
/// paper's tools see (and user-model reconstruction strips).
pub(crate) struct RuntimeSyms {
    pub fork: Ip,
    pub ibarrier: Ip,
    pub ebarrier: Ip,
    pub static_init: Ip,
    pub dispatch: Ip,
    pub reduction: Ip,
    pub critical: Ip,
    pub ordered: Ip,
    pub lock: Ip,
    pub master: Ip,
    pub single: Ip,
}

/// The process-wide runtime symbol set, registered once.
pub(crate) fn syms() -> &'static RuntimeSyms {
    static SYMS: OnceLock<RuntimeSyms> = OnceLock::new();
    SYMS.get_or_init(|| {
        let t = SymbolTable::global();
        let reg = |name: &str| t.register(SymbolDesc::runtime(name));
        RuntimeSyms {
            fork: reg("__ompc_fork"),
            ibarrier: reg("__ompc_ibarrier"),
            ebarrier: reg("__ompc_ebarrier"),
            static_init: reg("__ompc_static_init_4"),
            dispatch: reg("__ompc_dispatch_next"),
            reduction: reg("__ompc_reduction"),
            critical: reg("__ompc_critical"),
            ordered: reg("__ompc_ordered"),
            lock: reg("__ompc_lock"),
            master: reg("__ompc_master"),
            single: reg("__ompc_single"),
        }
    })
}

static INSTANCE_IDS: AtomicU64 = AtomicU64::new(1);

/// Hard cap on pool size (top-level team + all leases), so pathological
/// nesting cannot spawn without limit. A nested fork that would exceed it
/// gets a smaller team.
const MAX_POOL: usize = 512;

/// State shared between the master API, the worker pool, and the collector
/// provider.
pub(crate) struct Shared {
    pub instance: u64,
    pub config: Config,
    /// Mutable default team size (`omp_set_num_threads`); initialized
    /// from `config.num_threads`.
    pub default_threads: AtomicUsize,
    pub api: Arc<CollectorApi>,
    pub descriptors: RwLock<Vec<Arc<ThreadDescriptor>>>,
    pub master_serial: Arc<ThreadDescriptor>,
    pub shutdown: AtomicBool,
    /// Size of the running (or last) top-level team: the workers a
    /// nested fork may lease start past it.
    top_level_size: AtomicUsize,
    /// Gtids currently leased to a nested sub-team.
    leased: Mutex<HashSet<usize>>,
    region_counter: AtomicU64,
    region_calls: AtomicU64,
}

impl Shared {
    /// Fire an ORA event through the fast path.
    #[inline]
    pub fn fire(&self, event: Event, gtid: usize, region_id: u64, parent: u64, wait_id: u64) {
        self.api.event(&EventData {
            event,
            gtid,
            region_id,
            parent_region_id: parent,
            wait_id,
        });
    }

    /// Descriptor of thread `gtid`.
    pub fn descriptor(&self, gtid: usize) -> Arc<ThreadDescriptor> {
        self.descriptors.read()[gtid].clone()
    }

    /// Hand `work` to pool worker `gtid`, to run as team member
    /// `member`, and ring its doorbell — the only way a region reaches a
    /// worker. No other worker wakes.
    pub(crate) fn hand(&self, gtid: usize, work: Work, member: usize) {
        let desc = &self.descriptors.read()[gtid];
        desc.hand_off.put(work, member);
        desc.doorbell.notify_all();
    }

    /// Run `team`'s region: hand `f` to the pool workers `members` (team
    /// members `1..`, in order), run the master's share as member 0 under
    /// `desc`, take the implicit barrier and absorb the team's task
    /// counters. Returns the master's panic payload; a worker's panic is
    /// left marked on the team.
    fn run_team<F: Fn(&ParCtx<'_>) + Sync>(
        &self,
        team: &Arc<Team>,
        members: impl IntoIterator<Item = usize>,
        desc: &Arc<ThreadDescriptor>,
        outlined: Ip,
        f: &F,
    ) -> Option<Box<dyn Any + Send>> {
        let closure = ErasedClosure::new(f);
        for (i, gtid) in members.into_iter().enumerate() {
            let work = Work {
                team: team.clone(),
                closure,
                outlined,
            };
            self.hand(gtid, work, i + 1);
        }
        desc.state.set(ThreadState::Working);
        let ctx = ParCtx::new(self, team, desc, 0);
        let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
        if result.is_err() {
            team.set_panicked();
        }
        // Releases only after every member arrived, so `f` outlives every
        // call through `closure`.
        ctx.implicit_barrier();

        // Every thread drained to quiescence at the barrier above, so
        // the scheduler counters are final for this region.
        if team.tasks.used() {
            let (stolen, overflows, parks) = team.tasks.take_stats();
            self.api.task_stats().absorb(stolen, overflows, parks);
        }
        result.err()
    }

    /// Ring every pool worker regardless of team membership (shutdown
    /// path: all of them must observe the shutdown flag and exit).
    pub(crate) fn wake_all_workers(&self) {
        let descs = self.descriptors.read();
        for desc in descs.iter().skip(1) {
            desc.doorbell.notify_all();
        }
    }
}

/// Re-raise a region's panic on its master once the fork/join brackets
/// are closed: the master's own payload, else a worker's as a message.
fn rethrow(master_panic: Option<Box<dyn Any + Send>>, team: &Team) {
    if let Some(payload) = master_panic {
        resume_unwind(payload);
    }
    if team.has_panicked() {
        panic!("a worker thread panicked inside the parallel region");
    }
}

/// Answers collector queries from the runtime's thread descriptors.
///
/// A query reads the calling thread's binding in place and checks that
/// the runtime is alive with a plain load of its refcount: it writes no
/// cache line another thread writes.
struct Provider {
    instance: u64,
    shared: std::sync::Weak<Shared>,
}

impl Provider {
    fn live(&self) -> bool {
        self.shared.strong_count() > 0
    }

    /// A field of the calling thread's current team.
    fn team_id(&self, field: fn(&Team) -> u64) -> OraResult<u64> {
        if !self.live() {
            return Err(OraError::Error);
        }
        match tls::with_binding(self.instance, |_, _, team| team.map(|t| field(t))) {
            Some(Some(id)) => Ok(id),
            // "When a thread is outside a parallel region, it will return
            // an error code indicating a request out of sequence and an ID
            // with the value of zero." (paper §IV-E)
            _ => Err(OraError::OutOfSequence),
        }
    }
}

impl RuntimeInfoProvider for Provider {
    fn thread_state(&self) -> (ThreadState, Option<(WaitIdKind, u64)>) {
        if !self.live() {
            return (ThreadState::Unknown, None);
        }
        tls::with_binding(self.instance, |_, desc, _| desc.query())
            // A thread the runtime has never seen executes serial code by
            // definition.
            .unwrap_or((ThreadState::Serial, None))
    }

    fn current_region_id(&self) -> OraResult<u64> {
        self.team_id(|t| t.region_id)
    }

    fn parent_region_id(&self) -> OraResult<u64> {
        self.team_id(|t| t.parent_region_id)
    }

    fn supports_event(&self, event: Event) -> bool {
        let atomic = matches!(
            event,
            Event::ThreadBeginAtomicWait | Event::ThreadEndAtomicWait
        );
        if !atomic {
            return true;
        }
        self.shared
            .upgrade()
            .map(|s| s.config.atomic_events)
            .unwrap_or(false)
    }
}

/// An OpenMP runtime instance.
///
/// ```
/// use omprt::OpenMp;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let rt = OpenMp::with_threads(4);
/// let sum = AtomicU64::new(0);
/// rt.parallel(|ctx| {
///     ctx.for_each(0, 99, |i| {
///         ctx.atomic_update(&sum, |v| v + i as u64);
///     });
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// ```
pub struct OpenMp {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes forks from different OS threads; reentrant forks from
    /// inside a region take the serialized-nesting path before reaching
    /// this lock.
    fork_lock: Mutex<()>,
    symbol: String,
    owns_canonical: bool,
}

impl Default for OpenMp {
    fn default() -> Self {
        Self::new()
    }
}

impl OpenMp {
    /// A runtime with the default configuration.
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }

    /// A runtime with `n` threads and otherwise default configuration.
    pub fn with_threads(n: usize) -> Self {
        Self::with_config(Config::with_threads(n))
    }

    /// A runtime with an explicit configuration.
    pub fn with_config(config: Config) -> Self {
        // Register for expedited membarriers while the process may still
        // have one thread: once a worker runs, the kernel makes the call
        // wait for an RCU grace period, and the first retire (possibly a
        // quarantine inside some thread's event dispatch) would pay it.
        ora_core::rcu::settle();
        let instance = INSTANCE_IDS.fetch_add(1, Ordering::Relaxed);
        let api = Arc::new(CollectorApi::new());

        // The master's two descriptors (paper §IV-C): the serial persona
        // exists so a tool can query state even before the runtime's
        // worker threads exist.
        let master_parallel = Arc::new(ThreadDescriptor::new(0));
        let master_serial = Arc::new(ThreadDescriptor::with_state(0, ThreadState::Serial));

        let default_threads = config.num_threads;
        let shared = Arc::new(Shared {
            instance,
            config,
            default_threads: AtomicUsize::new(default_threads),
            api: api.clone(),
            descriptors: RwLock::new(vec![master_parallel]),
            master_serial: master_serial.clone(),
            shutdown: AtomicBool::new(false),
            top_level_size: AtomicUsize::new(1),
            leased: Mutex::new(HashSet::new()),
            region_counter: AtomicU64::new(0),
            region_calls: AtomicU64::new(0),
        });

        api.set_provider(Arc::new(Provider {
            instance,
            shared: Arc::downgrade(&shared),
        }))
        .expect("a fresh API has no provider");

        // Export the collector entry point. Every instance exports an
        // instance-qualified name; the first also claims the canonical
        // `__omp_collector_api`, as the sole runtime of a process would.
        //
        // The entry captures the `CollectorApi` strongly, not the runtime:
        // phase-independent requests (health, governor, stop) must stay
        // answerable from an already-resolved handle even after the
        // runtime's workers are joined — a collector reconciles its final
        // accounting at exactly that point. Requests that need live
        // runtime state degrade per-request through the provider weak.
        let symbol = format!("{COLLECTOR_API_SYMBOL}@{instance}");
        let entry_api = api.clone();
        let entry: psx::dynsym::CollectorEntry =
            Arc::new(move |buf: &mut [u8]| entry_api.handle_bytes(buf));
        psx::dynsym::export(&symbol, entry.clone());
        psx::dynsym::objects::export(&format!("{symbol}.api"), api.clone());
        let owns_canonical = psx::dynsym::try_export(COLLECTOR_API_SYMBOL, entry);
        if owns_canonical {
            psx::dynsym::objects::export(&format!("{COLLECTOR_API_SYMBOL}.api"), api.clone());
        }

        // Bind the creating thread as the (serial) master.
        tls::bind(instance, 0, master_serial);

        OpenMp {
            shared,
            workers: Mutex::new(Vec::new()),
            fork_lock: Mutex::new(()),
            symbol,
            owns_canonical,
        }
    }

    /// The current default team size (`omp_get_max_threads`).
    pub fn num_threads(&self) -> usize {
        self.shared.default_threads.load(Ordering::Relaxed)
    }

    /// `omp_set_num_threads`: change the default team size used by
    /// subsequent parallel regions.
    pub fn set_num_threads(&self, n: usize) {
        self.shared
            .default_threads
            .store(n.max(1), Ordering::Relaxed);
    }

    /// The runtime's collector API (in-process collectors may use this
    /// directly instead of symbol discovery).
    pub fn collector_api(&self) -> Arc<CollectorApi> {
        self.shared.api.clone()
    }

    /// Snapshot of the collector API's fault-isolation counters
    /// (callback panics caught, callbacks quarantined, sequence errors)
    /// — the same numbers `OMP_REQ_HEALTH` serves over the wire.
    pub fn health(&self) -> ora_core::request::ApiHealth {
        self.shared.api.health()
    }

    /// Panics a registered callback may make before the dispatcher
    /// quarantines (unregisters) it. Clamped to at least 1.
    pub fn set_quarantine_threshold(&self, n: u64) {
        self.shared.api.set_quarantine_threshold(n);
    }

    /// The instance-qualified dynamic symbol this runtime exports.
    pub fn symbol_name(&self) -> &str {
        &self.symbol
    }

    /// Whether this instance also owns the canonical
    /// `__omp_collector_api` export.
    pub fn owns_canonical_symbol(&self) -> bool {
        self.owns_canonical
    }

    /// How many parallel regions have been forked so far (the measurement
    /// behind the paper's Tables I and II).
    pub fn region_calls(&self) -> u64 {
        self.shared.region_calls.load(Ordering::Relaxed)
    }

    /// Execute a parallel region with the default team size.
    pub fn parallel<F: Fn(&ParCtx<'_>) + Sync>(&self, f: F) {
        self.parallel_region_n(self.num_threads(), RegionHandle::anonymous(), f)
    }

    /// Execute a parallel region attributed to `region`.
    pub fn parallel_region<F: Fn(&ParCtx<'_>) + Sync>(&self, region: &RegionHandle, f: F) {
        self.parallel_region_n(self.num_threads(), region, f)
    }

    /// Execute a parallel region with an explicit team size.
    pub fn parallel_n<F: Fn(&ParCtx<'_>) + Sync>(&self, n: usize, f: F) {
        self.parallel_region_n(n, RegionHandle::anonymous(), f)
    }

    /// Execute a parallel region with an explicit team size, attributed to
    /// `region`. This is the `__ompc_fork` entry point.
    pub fn parallel_region_n<F: Fn(&ParCtx<'_>) + Sync>(
        &self,
        n: usize,
        region: &RegionHandle,
        f: F,
    ) {
        let shared = &self.shared;

        // Nested parallel regions: serialized by default ("our compiler
        // currently serializes nested parallel regions and because of
        // this, we do not trigger a fork event for nested parallel
        // regions", §IV-C1; IDs keep the outer region's values, §IV-E).
        // With `Config::nested`, the "future releases" behaviour applies
        // instead: a real sub-team, a fork event, and a live parent ID.
        if tls::in_parallel(shared.instance) {
            if shared.config.nested {
                self.nested_parallel(n.max(1), region, &f);
            } else {
                let (desc, outer) = tls::with_binding(shared.instance, |_, desc, team| {
                    let team = team.expect("in_parallel implies a team");
                    (desc.clone(), team.clone())
                })
                .expect("bound");
                let solo =
                    Team::new_at_level(outer.region_id, outer.parent_region_id, 1, outer.level + 1);
                // Make the solo team current for the duration of the
                // body: `omp_get_level` counts serialized regions too,
                // so a deeper serialized nest must see *this* level as
                // its outer one, not the enclosing real team's. The
                // guard restores the outer team even if `f` unwinds.
                struct TeamRestore(u64, Option<Arc<Team>>);
                impl Drop for TeamRestore {
                    fn drop(&mut self) {
                        tls::set_team(self.0, self.1.take());
                    }
                }
                let prev = tls::swap_team(shared.instance, Some(solo.clone()));
                let _restore = TeamRestore(shared.instance, prev);
                let ctx = ParCtx::new(shared, &solo, &desc, 0);
                let _frame = psx::enter(region.outlined);
                f(&ctx);
            }
            return;
        }

        let _fork_guard = self.fork_lock.lock();
        let n = n.max(1);

        // A thread that has never touched this runtime becomes its master.
        if tls::with_binding(shared.instance, |_, _, _| ()).is_none() {
            tls::bind(shared.instance, 0, shared.master_serial.clone());
        }

        // Master enters the overhead state while it prepares the fork
        // ("during this process, the master thread is considered to be in
        // the overhead state", §IV-C1).
        shared.master_serial.state.set(ThreadState::Overhead);
        let fork_frame = psx::enter(syms().fork);

        let region_id = shared.region_counter.fetch_add(1, Ordering::Relaxed) + 1;
        shared.region_calls.fetch_add(1, Ordering::Relaxed);
        let team = Team::new(region_id, 0, n);

        // The fork event fires before any worker is created or woken
        // (paper: "just before the call pthread_create()").
        shared.fire(Event::Fork, 0, region_id, 0, 0);

        self.ensure_workers(n);
        shared.top_level_size.store(n, Ordering::Relaxed);

        // Master switches to its parallel persona and hands the outlined
        // procedure to gtids `1..n`, waking only the workers of the team.
        let master_desc = shared.descriptor(0);
        tls::swap_desc(shared.instance, 0, master_desc.clone());
        tls::set_team(shared.instance, Some(team.clone()));

        // The outlined frame covers the body, the closing implicit
        // barrier (which lives inside the outlined procedure, paper
        // Fig. 2), and the join event, so a callstack captured from the
        // join callback attributes to this construct.
        let outlined_frame = psx::enter(region.outlined);
        let master_panic = shared.run_team(&team, 1..n, &master_desc, region.outlined, &f);

        // "In the case of a join operation, the OMP_EVENT_JOIN is
        // triggered and the state of the master thread is set to
        // THR_OVHD_STATE as soon as it leaves the implicit barrier at the
        // end of the parallel region." (§IV-C1)
        master_desc.state.set(ThreadState::Overhead);
        shared.fire(Event::Join, 0, region_id, 0, 0);

        drop(outlined_frame);
        tls::set_team(shared.instance, None);
        tls::swap_desc(shared.instance, 0, shared.master_serial.clone());
        shared.master_serial.state.set(ThreadState::Serial);
        drop(fork_frame);
        rethrow(master_panic, &team);
    }

    /// Fork a real nested sub-team (the `Config::nested` path). The inner
    /// team's parent region ID is the enclosing region's ID: "In the case
    /// of a nested parallel region, it will return the current parallel
    /// region ID of the parent team that spawned the new team of
    /// threads." (§IV-E)
    ///
    /// Sub-team members come from the persistent pool: parked workers
    /// outside the running top-level team are leased (topology-compactly,
    /// preferring the nested master's package) and handed the region
    /// exactly as a top-level fork hands it, as members `1..`. The inner team
    /// is sized to what was leased — `1 + leased`, which is `n` until the
    /// pool reaches [`MAX_POOL`]; OpenMP permits delivering fewer threads
    /// than a `parallel` construct requests.
    fn nested_parallel<F: Fn(&ParCtx<'_>) + Sync>(&self, n: usize, region: &RegionHandle, f: &F) {
        let shared = &self.shared;
        let (outer_desc, outer) = tls::with_binding(shared.instance, |_, desc, team| {
            let team = team.expect("in_parallel implies a team");
            (desc.clone(), team.clone())
        })
        .expect("bound");
        let outer_gtid = outer_desc.gtid;

        let region_id = shared.region_counter.fetch_add(1, Ordering::Relaxed) + 1;
        shared.region_calls.fetch_add(1, Ordering::Relaxed);

        let fork_frame = psx::enter(syms().fork);
        // The inner master is in the overhead state while forking, and the
        // fork event precedes thread creation or waking, as at the outer
        // level.
        let prev_state = outer_desc.state.replace(ThreadState::Overhead);
        shared.fire(Event::Fork, outer_gtid, region_id, outer.region_id, 0);

        let leased = self.lease_workers(n - 1, outer_gtid);
        let team = Team::new_at_level(
            region_id,
            outer.region_id,
            1 + leased.len(),
            outer.level + 1,
        );

        // The inner master reuses its descriptor; leased workers keep
        // their registered ones (bound under their member IDs).
        tls::set_team(shared.instance, Some(team.clone()));
        let outlined_frame = psx::enter(region.outlined);
        let master_panic = shared.run_team(
            &team,
            leased.iter().copied(),
            &outer_desc,
            region.outlined,
            f,
        );
        // Every member passed the barrier, so its worker may be leased
        // again — even before it has restored its pool identity.
        let mut table = shared.leased.lock();
        for gtid in &leased {
            table.remove(gtid);
        }
        drop(table);

        // Join: fired by the inner master as it leaves the inner barrier.
        outer_desc.state.set(ThreadState::Overhead);
        shared.fire(Event::Join, outer_gtid, region_id, outer.region_id, 0);
        drop(outlined_frame);
        drop(fork_frame);

        // Restore the outer team binding and state.
        tls::set_team(shared.instance, Some(outer));
        outer_desc.state.set(prev_state);
        rethrow(master_panic, &team);
    }

    /// Convenience: `#pragma omp parallel for reduction(+:sum)` over
    /// `lo..=hi` — the paper's Fig. 1 in one call. Returns the sum.
    pub fn parallel_for_sum<F: Fn(i64) -> f64 + Sync>(
        &self,
        region: &RegionHandle,
        lo: i64,
        hi: i64,
        f: F,
    ) -> f64 {
        let acc = AtomicU64::new(0f64.to_bits());
        self.parallel_region(region, |ctx| {
            ctx.for_reduce_sum(lo, hi, &f, &acc);
        });
        f64::from_bits(acc.load(Ordering::Relaxed))
    }

    /// Make sure descriptors and worker threads exist for a team of `n`.
    fn ensure_workers(&self, n: usize) {
        {
            let mut descs = self.shared.descriptors.write();
            while descs.len() < n {
                // Descriptors are created (in the overhead state) before
                // their thread exists, so state queries during creation
                // have an answer (paper §IV-D).
                let gtid = descs.len();
                descs.push(Arc::new(ThreadDescriptor::new(gtid)));
            }
        }
        let mut workers = self.workers.lock();
        while workers.len() + 1 < n {
            let gtid = workers.len() + 1;
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("omprt-{}-w{}", self.shared.instance, gtid))
                .spawn(move || worker_main(shared, gtid))
                .expect("spawn worker");
            workers.push(handle);
        }
    }

    /// Lease up to `want` parked pool workers for a nested sub-team,
    /// growing the pool (up to [`MAX_POOL`]) first so steady-state nested
    /// forking never spawns.
    ///
    /// Leasable workers are exactly those outside the running top-level
    /// team (`gtid >= top_level_size` — a top-level fork never hands to
    /// them) and not already leased to a sibling sub-team. Sizing and
    /// claiming happen under one hold of the lease table, so concurrent
    /// sibling forks cannot take each other's headroom. Assignment is
    /// topology-compact: workers on `near`'s package come first (in gtid
    /// order, so SMT siblings stay adjacent), then the rest. Returns the
    /// claimed gtids in member order; the caller hands to each exactly
    /// once, as members `1..`, and returns them after its barrier.
    fn lease_workers(&self, want: usize, near: usize) -> Vec<usize> {
        if want == 0 {
            return Vec::new();
        }
        let shared = &self.shared;
        let mut leased = shared.leased.lock();
        let floor = shared.top_level_size.load(Ordering::Relaxed);
        let target = floor
            .saturating_add(leased.len())
            .saturating_add(want)
            .min(MAX_POOL);
        self.ensure_workers(target);
        let pool = shared.descriptors.read().len();
        let topo = Topology::current();
        let near_pkg = topo.package_of(near);
        let mut free: Vec<usize> = (floor..pool).filter(|g| !leased.contains(g)).collect();
        free.sort_by_key(|&g| (topo.package_of(g) != near_pkg, g));
        free.truncate(want);
        leased.extend(&free);
        free
    }

    /// Number of live worker threads (excluding the master).
    pub fn spawned_workers(&self) -> usize {
        self.workers.lock().len()
    }

    /// Snapshot of every *registered* thread descriptor's state, indexed
    /// by pool gtid. This is the view health/monitoring tooling gets of
    /// the runtime's threads: pooled workers, including ones leased to a
    /// nested sub-team, appear here — so sub-teams are observable
    /// mid-region.
    pub fn registered_thread_states(&self) -> Vec<ThreadState> {
        self.shared
            .descriptors
            .read()
            .iter()
            .map(|d| d.state.get())
            .collect()
    }

    /// Internal shared state, for sibling modules (locks).
    pub(crate) fn shared_arc(&self) -> Arc<Shared> {
        self.shared.clone()
    }

    /// This runtime instance's ID (keys the thread-local bindings).
    pub(crate) fn instance_id(&self) -> u64 {
        self.shared.instance
    }
}

impl Drop for OpenMp {
    fn drop(&mut self) {
        // The shutdown store must be visible to a worker woken by the
        // notify below (release via the doorbell's key bump).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all_workers();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        psx::dynsym::unexport(&self.symbol);
        psx::dynsym::objects::unexport(&format!("{}.api", self.symbol));
        if self.owns_canonical {
            psx::dynsym::unexport(COLLECTOR_API_SYMBOL);
            psx::dynsym::objects::unexport(&format!("{COLLECTOR_API_SYMBOL}.api"));
        }
        tls::unbind(self.shared.instance);
    }
}

impl std::fmt::Debug for OpenMp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenMp")
            .field("instance", &self.shared.instance)
            .field("num_threads", &self.shared.config.num_threads)
            .field("region_calls", &self.region_calls())
            .finish()
    }
}
