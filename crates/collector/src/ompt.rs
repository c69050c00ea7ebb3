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
use ora_core::request::{OraResult, Request};

use crate::discovery::{Registrations, RuntimeHandle};

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

/// The OMPT-style tool interface: one callback receiving translated
/// records (OMPT's `ompt_set_callback` with a single multiplexed sink,
/// which is how most real OMPT tools structure their dispatch anyway).
pub struct OmptAdapter;

impl OmptAdapter {
    /// Attach an OMPT-style tool to an ORA runtime: sends `Start` and
    /// registers the ORA events needed to synthesize the OMPT callbacks.
    /// The tool is attached for as long as the returned guard lives.
    pub fn attach(
        handle: RuntimeHandle,
        sink: Arc<dyn Fn(OmptRecord) + Send + Sync>,
    ) -> OraResult<Registrations> {
        handle.request_one(Request::Start)?;

        type Translator = fn(&EventData) -> OmptRecord;
        let translate: &[(Event, Translator)] = &[
            (Event::Fork, |d| OmptRecord::ParallelBegin {
                parallel_id: d.region_id,
                parent_parallel_id: d.parent_region_id,
            }),
            (Event::Join, |d| OmptRecord::ParallelEnd {
                parallel_id: d.region_id,
            }),
            (Event::ThreadBeginImplicitBarrier, |d| {
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierImplicit,
                    endpoint: Endpoint::Begin,
                    thread: d.gtid,
                    parallel_id: d.region_id,
                }
            }),
            (Event::ThreadEndImplicitBarrier, |d| {
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierImplicit,
                    endpoint: Endpoint::End,
                    thread: d.gtid,
                    parallel_id: d.region_id,
                }
            }),
            (Event::ThreadBeginExplicitBarrier, |d| {
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierExplicit,
                    endpoint: Endpoint::Begin,
                    thread: d.gtid,
                    parallel_id: d.region_id,
                }
            }),
            (Event::ThreadEndExplicitBarrier, |d| {
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierExplicit,
                    endpoint: Endpoint::End,
                    thread: d.gtid,
                    parallel_id: d.region_id,
                }
            }),
            (Event::TaskWaitBegin, |d| OmptRecord::SyncRegion {
                kind: SyncRegionKind::Taskwait,
                endpoint: Endpoint::Begin,
                thread: d.gtid,
                parallel_id: d.region_id,
            }),
            (Event::TaskWaitEnd, |d| OmptRecord::SyncRegion {
                kind: SyncRegionKind::Taskwait,
                endpoint: Endpoint::End,
                thread: d.gtid,
                parallel_id: d.region_id,
            }),
            (Event::ThreadBeginLockWait, |d| OmptRecord::MutexAcquire {
                kind: MutexKind::Lock,
                thread: d.gtid,
                wait_id: d.wait_id,
            }),
            (Event::ThreadEndLockWait, |d| OmptRecord::MutexAcquired {
                kind: MutexKind::Lock,
                thread: d.gtid,
                wait_id: d.wait_id,
            }),
            (Event::ThreadBeginCriticalWait, |d| {
                OmptRecord::MutexAcquire {
                    kind: MutexKind::Critical,
                    thread: d.gtid,
                    wait_id: d.wait_id,
                }
            }),
            (Event::ThreadEndCriticalWait, |d| {
                OmptRecord::MutexAcquired {
                    kind: MutexKind::Critical,
                    thread: d.gtid,
                    wait_id: d.wait_id,
                }
            }),
            (Event::ThreadBeginOrderedWait, |d| {
                OmptRecord::MutexAcquire {
                    kind: MutexKind::Ordered,
                    thread: d.gtid,
                    wait_id: d.wait_id,
                }
            }),
            (Event::ThreadEndOrderedWait, |d| OmptRecord::MutexAcquired {
                kind: MutexKind::Ordered,
                thread: d.gtid,
                wait_id: d.wait_id,
            }),
            (Event::LoopBegin, |d| OmptRecord::Work {
                endpoint: Endpoint::Begin,
                thread: d.gtid,
                loop_seq: d.wait_id,
            }),
            (Event::LoopEnd, |d| OmptRecord::Work {
                endpoint: Endpoint::End,
                thread: d.gtid,
                loop_seq: d.wait_id,
            }),
        ];

        let mut registrations = Registrations::new(handle);
        for &(event, f) in translate {
            let sink = sink.clone();
            registrations.register(event, Arc::new(move |d: &EventData| sink(f(d))))?;
        }
        Ok(registrations)
    }
}
