//! # omprt — an OpenMP-2.5-style runtime with built-in ORA support
//!
//! This crate is the substrate the reproduced paper's contribution lives
//! in: an OpenMP runtime library in the style of OpenUH's, exposing the
//! same runtime-call surface a compiler's OpenMP translation targets
//! (fork/join, worksharing init, barriers, locks, critical/ordered
//! sections, reductions, master/single), with the paper's instrumentation
//! decisions baked into each call:
//!
//! * thread states tracked **always**, one relaxed store per transition;
//! * ORA events fired at exactly the paper's points (fork before thread
//!   creation, join after the closing implicit barrier, wait events only
//!   on actual contention, distinct implicit/explicit barrier calls,
//!   paired master/single begin+end calls, a dedicated reduction call);
//! * per-thread wait IDs (barrier, lock, critical, ordered, atomic);
//! * region/parent-region IDs in the team descriptor, serialized nested
//!   regions (no fork event, outer IDs preserved);
//! * atomic-wait events unimplemented by default (the paper's choice),
//!   but available behind [`config::Config::atomic_events`].
//!
//! Every runtime call also maintains the `psx` shadow callstack, so a
//! collector capturing at a join event sees the same implementation-model
//! stack (`main → __ompc_fork → __ompregion_… → __ompc_ibarrier`) the
//! paper's libunwind-based tool sees.
//!
//! ```
//! use omprt::{OpenMp, SourceFunction};
//!
//! let func = SourceFunction::new("main", "app.c", 3);
//! let region = func.loop_region("1", 5);
//! let rt = OpenMp::with_threads(4);
//! // #pragma omp parallel for reduction(+:sum)  (the paper's Fig. 1)
//! let sum = rt.parallel_for_sum(&region, 0, 99, |_i| 1.0);
//! assert_eq!(sum, 100.0);
//! ```

#![warn(missing_docs)]
// Modules with doc(hidden) internals still get documented public surfaces.

pub mod barrier;
pub mod config;
pub mod context;
pub mod descriptor;
pub mod lock;
pub mod pool;
pub mod region;
pub mod runtime;
pub mod schedule;
pub mod spin;
pub mod task;
pub mod team;
pub mod tls;
pub mod topology;
pub mod userapi;
pub mod wordlock;

pub use barrier::Barrier;
pub use config::Config;
pub use context::ParCtx;
pub use descriptor::ThreadDescriptor;
pub use lock::{OmpLock, OmpNestLock};
pub use region::{CallSite, RegionHandle, SourceFunction};
pub use runtime::OpenMp;
pub use schedule::{Chunk, Claimer, DynamicLoop, Schedule};
pub use task::TaskScope;
pub use team::Team;
pub use topology::{Location, Topology};
pub use wordlock::WordLock;
