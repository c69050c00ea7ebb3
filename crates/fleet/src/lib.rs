//! # ora-fleet — online trace aggregation for multi-process profiling
//!
//! The paper's third evaluation axis is hybrid NPB-MZ-MPI: many MPI
//! ranks, each an OpenMP process. `ora-trace` can merge the per-rank
//! trace files offline (`merge_ranks`); this crate turns that into a
//! *service* — each rank streams its trace live to an aggregator
//! daemon, which merges the fleet into one totally-ordered timeline as
//! the ranks run. The pieces:
//!
//! * [`protocol`] — a length-framed, CRC'd wire protocol carrying the
//!   `ora-trace` chunk encoding verbatim: HELLO (rank id, clock info,
//!   trace format version), per-chunk epoch sequence numbers, chunk
//!   ACKs, and a FIN/summary handshake. Every decoding failure is a
//!   typed [`FleetError`], never a panic.
//! * [`transport`] — Unix sockets first, TCP behind the same
//!   [`FrameConn`](transport::FrameConn) trait, plus a same-process
//!   loopback pair and a fault-injecting wrapper for the quarantine
//!   tests.
//! * [`sink`] — [`SocketSink`](sink::SocketSink), a
//!   `ora_trace::TraceSink` that frames each drainer write as one CHUNK
//!   message with a bounded in-flight window (backpressure via ACKs)
//!   and an optional tee to a local trace file.
//! * [`daemon`] — the aggregator: one lane per connected rank with
//!   health/drop counters mirroring the ring accounting, quarantine of
//!   a misbehaving rank instead of poisoning the fleet, and an
//!   incremental merge whose unit of work is the sorted run: each lane
//!   decodes its chunk into its connection's run buffer outside the
//!   state lock and queues that buffer on its lane, taking an emptied
//!   one from the lane's free list; a watermark at the minimum acked
//!   tick across live lanes releases each queued run's prefix, settled
//!   straight into the store.
//! * [`store`] — the queryable merged timeline (time-range / per-rank /
//!   per-region), which keeps its settled records as the export's
//!   delta-coded segments behind a decoded tail that takes each settled
//!   slice with one backward merge, and whose
//!   [`export`](store::FleetStore::export) is byte-identical to offline
//!   `merge_ranks` over the same data.
//!
//! The `omp_prof serve` and `omp_prof fleet` subcommands drive this
//! crate end to end. Like the rest of the workspace, it is std-only.

#![warn(missing_docs)]

pub mod daemon;
pub mod protocol;
pub mod sink;
pub mod store;
pub mod transport;

pub use daemon::{Daemon, DaemonConfig, FinStats, FleetReport, LaneReport};
pub use protocol::{Message, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use sink::{FinReport, SocketSink};
pub use store::{timeline_bytes, FleetStore};
pub use transport::{connect, loopback, ConnFaultMode, Endpoint, FaultConn, FleetListener};

use ora_trace::TraceError;

/// Everything that can go wrong on the fleet wire or in the daemon.
///
/// Malformed, truncated, or corrupt input always surfaces as one of
/// these variants — never a panic — so the daemon can quarantine the
/// offending lane and keep serving the rest of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// An underlying I/O operation failed (message preserved).
    Io(String),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// A frame's CRC did not match its contents.
    CrcMismatch {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the bytes received.
        actual: u32,
    },
    /// A frame announced a length over [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// A frame carried a message tag this build does not know.
    UnknownMessage(u8),
    /// The peer speaks an incompatible trace format version.
    BadVersion(u16),
    /// A lane re-sent an epoch the daemon already accepted.
    DuplicateEpoch {
        /// The offending rank.
        rank: u64,
        /// The epoch received again.
        epoch: u64,
    },
    /// A lane skipped ahead: an epoch was lost or reordered.
    EpochGap {
        /// The offending rank.
        rank: u64,
        /// The epoch the daemon expected next.
        expected: u64,
        /// The epoch that actually arrived.
        got: u64,
    },
    /// A chunk payload failed to decode as `ora-trace` data.
    Trace(TraceError),
    /// A protocol invariant failed (reason attached).
    Protocol(&'static str),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(msg) => write!(f, "fleet I/O error: {msg}"),
            FleetError::Closed => write!(f, "peer closed the connection"),
            FleetError::Truncated => write!(f, "stream ended mid-frame"),
            FleetError::CrcMismatch { expected, actual } => write!(
                f,
                "frame corrupt: crc {expected:#010x} carried, {actual:#010x} computed"
            ),
            FleetError::FrameTooLarge(len) => write!(f, "frame length {len} exceeds the limit"),
            FleetError::UnknownMessage(tag) => write!(f, "unknown message tag {tag:#04x}"),
            FleetError::BadVersion(v) => write!(f, "incompatible trace format version {v}"),
            FleetError::DuplicateEpoch { rank, epoch } => {
                write!(f, "rank {rank} re-sent epoch {epoch}")
            }
            FleetError::EpochGap {
                rank,
                expected,
                got,
            } => write!(f, "rank {rank} sent epoch {got}, expected {expected}"),
            FleetError::Trace(e) => write!(f, "chunk payload invalid: {e}"),
            FleetError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e.to_string())
    }
}

impl From<TraceError> for FleetError {
    fn from(e: TraceError) -> FleetError {
        FleetError::Trace(e)
    }
}

impl From<ora_core::bytes::Error> for FleetError {
    fn from(e: ora_core::bytes::Error) -> FleetError {
        match e {
            ora_core::bytes::Error::Truncated => FleetError::Truncated,
            ora_core::bytes::Error::Malformed(why) => FleetError::Protocol(why),
        }
    }
}

impl From<FleetError> for std::io::Error {
    fn from(e: FleetError) -> std::io::Error {
        std::io::Error::other(e.to_string())
    }
}
