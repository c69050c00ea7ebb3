//! An OMPT-style adapter over ORA.
//!
//! ORA (this paper's interface, 2007-2009) was the direct ancestor of
//! OMPT, the tools interface later standardized in OpenMP 5.0 and
//! implemented by the LLVM/GCC runtimes. The two share the architecture —
//! runtime-resident callbacks, thread states, region identifiers — but
//! OMPT reorganized the vocabulary: paired begin/end events became single
//! callbacks with an *endpoint* argument, barrier/taskwait/reduction
//! waiting merged into `sync_region`, and lock/critical waiting became
//! `mutex_acquire`/`mutex_acquired`.
//!
//! This module demonstrates the continuity: a tool written against the
//! OMPT callback vocabulary runs unchanged on top of our ORA
//! implementation. It is also a practical migration aid for anyone
//! porting a collector between the two interfaces.

use std::sync::Arc;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::OraResult;

use crate::discovery::RuntimeHandle;
use crate::lane::{Collector, Lane};

/// OMPT's `ompt_scope_endpoint_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `ompt_scope_begin`.
    Begin,
    /// `ompt_scope_end`.
    End,
}

/// OMPT's `ompt_sync_region_t` (the subset ORA can observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncRegionKind {
    /// `ompt_sync_region_barrier_implicit`.
    BarrierImplicit,
    /// `ompt_sync_region_barrier_explicit`.
    BarrierExplicit,
    /// `ompt_sync_region_taskwait`.
    Taskwait,
}

/// OMPT's `ompt_mutex_t` (the subset ORA can observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexKind {
    /// `ompt_mutex_lock` — user locks.
    Lock,
    /// `ompt_mutex_critical` — critical sections.
    Critical,
    /// `ompt_mutex_ordered` — ordered sections.
    Ordered,
}

/// One translated OMPT callback invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmptRecord {
    /// `ompt_callback_parallel_begin(parent_parallel_id → parallel_id)`.
    ParallelBegin {
        /// The new region's ID.
        parallel_id: u64,
        /// The encountering task's region (0 at top level).
        parent_parallel_id: u64,
    },
    /// `ompt_callback_parallel_end`.
    ParallelEnd {
        /// The ending region's ID.
        parallel_id: u64,
    },
    /// `ompt_callback_sync_region(kind, endpoint, …)`.
    SyncRegion {
        /// What kind of synchronization.
        kind: SyncRegionKind,
        /// Begin or end of the wait scope.
        endpoint: Endpoint,
        /// The thread in the sync region.
        thread: usize,
        /// The enclosing parallel region.
        parallel_id: u64,
    },
    /// `ompt_callback_mutex_acquire` (the thread starts waiting).
    MutexAcquire {
        /// Which mutex construct.
        kind: MutexKind,
        /// Waiting thread.
        thread: usize,
        /// ORA wait ID, standing in for OMPT's `wait_id`.
        wait_id: u64,
    },
    /// `ompt_callback_mutex_acquired` (the wait ended).
    MutexAcquired {
        /// Which mutex construct.
        kind: MutexKind,
        /// The thread that acquired.
        thread: usize,
        /// ORA wait ID.
        wait_id: u64,
    },
    /// `ompt_callback_work(ws_loop, endpoint, …)`.
    Work {
        /// Begin or end of the worksharing construct.
        endpoint: Endpoint,
        /// Executing thread.
        thread: usize,
        /// The loop sequence number (stands in for OMPT's wstype data).
        loop_seq: u64,
    },
}

/// The OMPT callback an ORA event synthesizes, if it synthesizes one.
fn translate(d: &EventData) -> Option<OmptRecord> {
    use Endpoint::{Begin, End};
    use MutexKind::{Critical, Lock, Ordered};
    use SyncRegionKind::{BarrierExplicit, BarrierImplicit, Taskwait};
    let (thread, parallel_id, wait_id) = (d.gtid, d.region_id, d.wait_id);
    let sync = |kind, endpoint| OmptRecord::SyncRegion {
        kind,
        endpoint,
        thread,
        parallel_id,
    };
    let acquire = |kind| OmptRecord::MutexAcquire {
        kind,
        thread,
        wait_id,
    };
    let acquired = |kind| OmptRecord::MutexAcquired {
        kind,
        thread,
        wait_id,
    };
    let work = |endpoint| OmptRecord::Work {
        endpoint,
        thread,
        loop_seq: wait_id,
    };
    Some(match d.event {
        Event::Fork => OmptRecord::ParallelBegin {
            parallel_id,
            parent_parallel_id: d.parent_region_id,
        },
        Event::Join => OmptRecord::ParallelEnd { parallel_id },
        Event::ThreadBeginImplicitBarrier => sync(BarrierImplicit, Begin),
        Event::ThreadEndImplicitBarrier => sync(BarrierImplicit, End),
        Event::ThreadBeginExplicitBarrier => sync(BarrierExplicit, Begin),
        Event::ThreadEndExplicitBarrier => sync(BarrierExplicit, End),
        Event::TaskWaitBegin => sync(Taskwait, Begin),
        Event::TaskWaitEnd => sync(Taskwait, End),
        Event::ThreadBeginLockWait => acquire(Lock),
        Event::ThreadEndLockWait => acquired(Lock),
        Event::ThreadBeginCriticalWait => acquire(Critical),
        Event::ThreadEndCriticalWait => acquired(Critical),
        Event::ThreadBeginOrderedWait => acquire(Ordered),
        Event::ThreadEndOrderedWait => acquired(Ordered),
        Event::LoopBegin => work(Begin),
        Event::LoopEnd => work(End),
        _ => return None,
    })
}

/// The adapter's lane: the tool's sink, fed the translated records.
struct OmptLane {
    sink: Arc<dyn Fn(OmptRecord) + Send + Sync>,
}

impl Lane for OmptLane {
    fn wants(&self, event: Event) -> bool {
        translate(&EventData::bare(event, 0)).is_some()
    }

    #[inline]
    fn on_event(&self, d: &EventData) {
        if let Some(record) = translate(d) {
            (self.sink)(record);
        }
    }
}

/// The OMPT-style tool interface: one callback receiving translated
/// records (OMPT's `ompt_set_callback` with a single multiplexed sink,
/// which is how most real OMPT tools structure their dispatch anyway).
/// Dropping the adapter unregisters its callbacks but leaves collection
/// started; [`finish`](OmptAdapter::finish) also stops it.
pub struct OmptAdapter {
    collector: Collector<OmptLane>,
}

impl OmptAdapter {
    /// Attach an OMPT-style tool to an ORA runtime: sends `Start` and
    /// registers the ORA events needed to synthesize the OMPT callbacks.
    /// The tool is attached for as long as the returned adapter lives.
    pub fn attach(
        handle: RuntimeHandle,
        sink: Arc<dyn Fn(OmptRecord) + Send + Sync>,
    ) -> OraResult<OmptAdapter> {
        let collector = Collector::attach(handle, OmptLane { sink })?;
        Ok(OmptAdapter { collector })
    }

    /// Stop collection and forget the callbacks.
    pub fn finish(mut self) {
        self.collector.stop();
    }
}
