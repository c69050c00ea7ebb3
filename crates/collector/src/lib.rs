//! # collector — a prototype ORA collector tool
//!
//! The collector side of the paper: a tool that attaches to an OpenMP
//! runtime purely through the exported `__omp_collector_api` symbol and
//! the byte-message protocol, mirroring the LD_PRELOAD'ed shared object of
//! the paper's §V.
//!
//! * [`discovery`] — resolve the symbol and speak the wire protocol;
//! * [`clock`] — the hardware time counter the callbacks sample (the
//!   process-wide `ora_core::clock`, re-exported);
//! * [`profiler`] — the paper's prototype tool: fork/join/implicit-barrier
//!   callbacks, per-region timing, join-event callstack records, offline
//!   user-model reconstruction, and the callbacks-only mode used by the
//!   §V-B overhead breakdown;
//! * [`tracer`] — full event tracing with per-event counters (measures
//!   the region-call counts of Tables I/II): the ORA-callback front of
//!   `ora-trace`'s lock-free rings and streaming pipeline, whose
//!   `TraceReader` and `analyze` module own everything read back from a
//!   finished timeline;
//! * [`sampler`] — `OMP_REQ_STATE` sampling and state histograms;
//! * [`state_timer`] — per-thread time-in-state accounting built on the
//!   event + state-query machinery;
//! * [`selective`] — overhead-controlled collection (duration gating and
//!   calling-context dedup, the paper's §VI plan);
//! * [`modes`] — the five-rung collector-intrusiveness ladder the
//!   benchmark and the fuzzer attach (absent / registered-paused /
//!   state-queries / streaming-trace / governed);
//! * [`suite`] — one-attachment multiplexer producing profile + trace +
//!   state-times together (ORA has one callback slot per event), composed
//!   from the three tools' own callback states;
//! * [`ompt`] — an OMPT-vocabulary adapter over ORA (the successor
//!   interface's callbacks synthesized from the paper's events);
//! * [`diff`] — before/after profile comparison;
//! * [`report`] — text tables for the experiment harnesses.
//!
//! ```
//! use collector::{Profiler, RuntimeHandle};
//! use omprt::OpenMp;
//!
//! let rt = OpenMp::with_threads(2);
//! let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
//! let profiler = Profiler::attach_default(handle).unwrap();
//! rt.parallel(|ctx| { let _ = ctx.thread_num(); });
//! let profile = profiler.finish();
//! assert_eq!(profile.region_count(), 1);
//! ```

#![warn(missing_docs)]

pub use ora_core::clock;
pub mod diff;
pub mod discovery;
pub mod modes;
pub mod ompt;
pub mod profiler;
pub mod report;
pub mod sampler;
pub mod selective;
pub mod state_timer;
pub mod suite;
pub mod tracer;

pub use diff::{diff, ProfileDiff, RegionDelta};
pub use discovery::{Registrations, RuntimeHandle};
pub use modes::{ActiveCollection, CollectionConfig, CollectionSummary};
pub use ompt::{Endpoint, MutexKind, OmptAdapter, OmptRecord, SyncRegionKind};
pub use profiler::{Mode, Profile, Profiler, ProfilerConfig, RegionProfile, ThreadProfile};
pub use sampler::StateSampler;
pub use selective::{SelectivePolicy, SelectiveProfiler, SelectiveReport};
pub use state_timer::{StateProfile, StateTimer, ThreadStateTimes};
pub use suite::{SuiteConfig, SuiteReport, ToolSuite};
pub use tracer::{StreamError, StreamingTracer};
