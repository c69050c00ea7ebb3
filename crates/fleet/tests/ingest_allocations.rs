//! The daemon's ingest path allocates nothing per chunk.
//!
//! One lane is served on the calling thread (`Daemon::serve_conn` over
//! a `loopback()` pair) while a `SocketSink` on another thread streams
//! a header and `CHUNKS` record chunks that encode to the same number
//! of bytes. A counting global allocator counts the allocations made on
//! the serving thread from the moment chunk 2 is acked until chunk
//! `CHUNKS` is: reading each frame, decoding its run, the epoch check,
//! the hand-off to the lane's pending buffer, the flush into the store
//! and the ACK. By chunk 2 every per-connection buffer has reached its
//! size: chunk 1 grows the frame buffer and one run buffer, and chunk 2
//! the run buffer the lane hands back by swap; the daemon's flush
//! batch, reused by every flush, has reached its size too. What is left
//! is the store's growth (see the bound below). It lives in its own
//! binary because the allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};

use ora_fleet::transport::FrameConn;
use ora_fleet::{loopback, Daemon, DaemonConfig, SocketSink};
use ora_trace::format::{encode_chunk, encode_header};
use ora_trace::{RawRecord, TraceSink};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Record chunks streamed after the header.
const CHUNKS: u64 = 24;
/// Records per chunk: a full drainer sweep.
const PER_CHUNK: u64 = 4096;

/// The daemon's end of the connection: counts the ACKs the daemon
/// writes, arming the allocation count once chunk 2's ACK is written and
/// disarming it once chunk `CHUNKS`'s is. Epoch 0 is the header, so the
/// ACK for chunk k is the (k + 1)-th.
struct ArmByAck {
    inner: Box<dyn FrameConn>,
    acks: u64,
}

impl Read for ArmByAck {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for ArmByAck {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.acks += 1;
        if self.acks == 3 {
            ARMED.set(true);
        } else if self.acks == CHUNKS + 1 {
            ARMED.set(false);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Chunk `k` (from 0) of one thread's stream: ticks and seqs far enough
/// from zero that every chunk encodes to the same bytes but its first
/// record's absolute values.
fn chunk(k: u64) -> Vec<u8> {
    let base = (1 << 40) + k * PER_CHUNK;
    let records: Vec<RawRecord> = (base..base + PER_CHUNK)
        .map(|i| RawRecord {
            tick: i,
            seq: i,
            event: 1, // Fork
            ..RawRecord::default()
        })
        .collect();
    let mut out = Vec::new();
    encode_chunk(&mut out, 0, 0, &records);
    out
}

#[test]
fn a_lane_ingests_a_chunk_without_allocating() {
    let chunks: Vec<Vec<u8>> = (0..CHUNKS).map(chunk).collect();
    assert!(chunks.iter().all(|c| c.len() == chunks[0].len()));
    let (producer, consumer) = loopback().expect("socketpair");
    let streamer = std::thread::spawn(move || {
        let mut sink = SocketSink::start(producer, 3, 1_000_000_000, 8).expect("HELLO");
        let mut header = Vec::new();
        encode_header(&mut header);
        sink.write_all(&header).expect("header");
        for c in &chunks {
            sink.write_all(c).expect("chunk");
        }
        let records = CHUNKS * PER_CHUNK;
        sink.finish(records, records, 0).expect("FIN-ACK")
    });

    let daemon = Daemon::new(DaemonConfig::default());
    daemon.serve_conn(Box::new(ArmByAck {
        inner: consumer,
        acks: 0,
    }));
    let counted = COUNT.get();
    let fin = streamer.join().expect("streamer");
    let report = daemon.finish();
    assert_eq!(fin.stored, CHUNKS * PER_CHUNK);
    assert_eq!(report.store.len() as u64, CHUNKS * PER_CHUNK);
    assert!(report.lanes[0].quarantined.is_none());

    // The bound is what a store holding 2 chunks that at least doubles
    // each time it grows needs for chunks 3..=CHUNKS. The encoded store
    // stays within it: its decoded tail doubles twice on its way to
    // twice its 16-segment floor (8 chunks here), where spills hold it;
    // and its first spill reserves the segment bytes and the segment
    // table together, one allocation each, with room for that spill's
    // worst case (16 segments at 70 B a record, about 1.1 MiB), more
    // than every later spill of this stream encodes (7 B a record).
    let growths = (CHUNKS / 2).next_power_of_two().ilog2() as usize;
    assert!(
        counted <= growths,
        "{counted} allocations ingesting chunks 3..={CHUNKS}; the store's growth explains {growths}"
    );
}
