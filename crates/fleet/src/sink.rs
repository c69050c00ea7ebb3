//! The producer side: a [`SocketSink`] streaming a recording live.
//!
//! `ora_trace::Recorder` writes its sink exactly one self-contained
//! unit per call — the 8-byte file header at start, one encoded chunk
//! per drainer sweep, the footer at finish — so the sink frames each
//! `write_all` as one epoch-stamped CHUNK message, verbatim: the
//! drainer's borrowed bytes are copied once, into the frame. No
//! re-encoding happens on the hot path.
//!
//! **Backpressure.** The sink keeps at most `window` unacked chunks in
//! flight; past that it blocks on the daemon's ACKs. A slow daemon
//! therefore slows the *drainer* (which is off the application's
//! critical path) and, if the ring then fills, loss shows up in the
//! ring's own drop counters — the same observable-loss philosophy as
//! local recording, extended over the wire.
//!
//! **Failure.** Any protocol or transport error surfaces as
//! `io::Error` from `write_all`, which the drainer's supervision turns
//! into a degraded recording (counted drops, typed `DrainerFailed`) —
//! a dead daemon never wedges or crashes the profiled rank.
//!
//! **Tee.** With [`SocketSink::tee`] the sink also appends every byte
//! to a local trace file, so a rank both streams live and leaves the
//! offline artifact `merge_ranks` reads — the fleet driver uses this to
//! prove the online merge byte-identical to the offline one. The tee is
//! flushed with the recorder, once per sweep that wrote a chunk: a rank
//! killed mid-run leaves every chunk up to its last sweep and no footer,
//! which `TraceReader::open` salvages (the daemon may hold more).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use ora_trace::TraceSink;

use crate::protocol::{build_frame, read_frame, write_frame, Message, MSG_CHUNK};
use crate::transport::{connect, Endpoint, FrameConn};
use crate::FleetError;

/// Default bound on unacked in-flight chunks.
pub const DEFAULT_WINDOW: u64 = 8;

/// What the daemon reported in FIN-ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinReport {
    /// Records the daemon stored for this lane.
    pub stored: u64,
    /// Records (fleet-wide) that settled below the settled frontier as
    /// it stood before their flush.
    pub late: u64,
}

/// A `TraceSink` that streams the recording to an aggregator daemon,
/// one CHUNK frame per sink write, with bounded-window backpressure and
/// an optional local tee.
pub struct SocketSink {
    conn: Box<dyn FrameConn>,
    next_epoch: u64,
    acked: u64,
    window: u64,
    tee: Option<BufWriter<File>>,
    /// Every CHUNK frame is encoded here, so it keeps its capacity.
    frame: Vec<u8>,
}

impl SocketSink {
    /// Introduce `rank` over an established connection: sends HELLO and
    /// returns the ready sink.
    pub fn start(
        mut conn: Box<dyn FrameConn>,
        rank: u64,
        ticks_per_sec: u64,
        window: u64,
    ) -> Result<SocketSink, FleetError> {
        write_frame(
            &mut conn,
            &Message::Hello {
                rank,
                format_version: ora_trace::format::FORMAT_VERSION,
                ticks_per_sec,
            },
        )?;
        conn.flush()?;
        Ok(SocketSink {
            conn,
            next_epoch: 0,
            acked: 0,
            window: window.max(1),
            tee: None,
            frame: Vec::new(),
        })
    }

    /// Connect to the daemon at `endpoint` and introduce `rank`.
    pub fn connect(
        endpoint: &Endpoint,
        rank: u64,
        ticks_per_sec: u64,
        window: u64,
    ) -> Result<SocketSink, FleetError> {
        SocketSink::start(connect(endpoint)?, rank, ticks_per_sec, window)
    }

    /// Also append every streamed byte to a local trace file at `path`
    /// (truncating it), so the rank leaves the offline artifact too.
    pub fn tee(mut self, path: impl AsRef<Path>) -> io::Result<SocketSink> {
        self.tee = Some(BufWriter::new(File::create(path)?));
        Ok(self)
    }

    fn wait_ack(&mut self) -> Result<(), FleetError> {
        match read_frame(&mut self.conn)? {
            Message::Ack { epoch } => {
                if epoch != self.acked {
                    return Err(FleetError::Protocol("ack out of order"));
                }
                self.acked += 1;
                Ok(())
            }
            _ => Err(FleetError::Protocol("expected ACK")),
        }
    }

    /// Close the stream: drain outstanding ACKs, send FIN carrying the
    /// producer's ring accounting, and wait for the daemon's FIN-ACK.
    pub fn finish(
        mut self,
        observed: u64,
        drained: u64,
        dropped: u64,
    ) -> Result<FinReport, FleetError> {
        if let Some(tee) = &mut self.tee {
            tee.flush()?;
        }
        while self.acked < self.next_epoch {
            self.wait_ack()?;
        }
        write_frame(
            &mut self.conn,
            &Message::Fin {
                observed,
                drained,
                dropped,
            },
        )?;
        self.conn.flush()?;
        match read_frame(&mut self.conn)? {
            Message::FinAck { stored, late } => Ok(FinReport { stored, late }),
            _ => Err(FleetError::Protocol("expected FIN-ACK")),
        }
    }
}

impl TraceSink for SocketSink {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(tee) = &mut self.tee {
            tee.write_all(bytes)?;
        }
        build_frame(&mut self.frame, MSG_CHUNK, &[self.next_epoch], bytes);
        self.conn.write_all(&self.frame)?;
        self.next_epoch += 1;
        while self.next_epoch - self.acked > self.window {
            self.wait_ack()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(tee) = &mut self.tee {
            tee.flush()?;
        }
        self.conn.flush()
    }
}
