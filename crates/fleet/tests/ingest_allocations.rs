//! The daemon's ingest path allocates nothing per chunk.
//!
//! A counting global allocator counts the allocations each serving
//! thread makes between two of its lane's ACKs: reading each frame,
//! decoding its run, the epoch check, the flush that settles queued
//! slices and the arriving run's into the store, queueing what is left
//! of the run (its buffer joins the lane's queue and the lane thread
//! takes an emptied one from the lane's free list) and the ACK. What
//! is left is the store's amortised growth (see the bounds below). Two
//! cases:
//!
//! - One lane, served on the calling thread (`Daemon::serve_conn` over a
//!   `loopback()` pair) while a `SocketSink` on another thread streams a
//!   header and `CHUNKS` record chunks that encode to the same number of
//!   bytes; counted from chunk 2's ACK to chunk `CHUNKS`'s. Each run
//!   settles whole as it arrives, straight from the connection's run
//!   buffer, which it keeps.
//! - Two lanes, each served on its own thread, fed in lock step by one
//!   producer that waits for every ACK: rank 0 leads by `LEAD` chunks, so
//!   its runs queue up behind rank 1's, and every run of rank 1 releases
//!   one of rank 0's. Counted from chunk `LEAD + 3`'s ACK, by when every
//!   buffer in a lane's circulation has held a full chunk.
//!
//! It lives in its own binary because the allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};

use ora_fleet::protocol::{read_frame, write_frame};
use ora_fleet::transport::FrameConn;
use ora_fleet::{loopback, Daemon, DaemonConfig, Message, SocketSink};
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

/// Chunks rank 0 leads rank 1 by in the two-lane case.
const LEAD: u64 = 4;

/// The daemon's end of the connection: counts the ACKs the daemon
/// writes, arming the serving thread's allocation count once chunk
/// `from`'s ACK is written and disarming it once chunk `CHUNKS`'s is.
/// Epoch 0 is the header, so the ACK for chunk k is the (k + 1)-th.
struct ArmByAck {
    inner: Box<dyn FrameConn>,
    acks: u64,
    from: u64,
}

impl Read for ArmByAck {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for ArmByAck {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.acks += 1;
        if self.acks == self.from + 1 {
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
/// record's absolute values. Every rank's chunk `k` covers the same
/// ticks.
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
        from: 2,
    }));
    let counted = COUNT.get();
    let fin = streamer.join().expect("streamer");
    let report = daemon.finish();
    assert_eq!(fin.stored, CHUNKS * PER_CHUNK);
    assert_eq!(report.store.len() as u64, CHUNKS * PER_CHUNK);
    assert!(report.lanes[0].quarantined.is_none());

    let growths = store_growths(2 * PER_CHUNK, CHUNKS * PER_CHUNK);
    assert!(
        counted <= growths,
        "{counted} allocations ingesting chunks 3..={CHUNKS}; the store's growth explains {growths}"
    );
}

/// One producer's connection, written frame by frame: each chunk waits
/// for its ACK, so the daemon has ingested it when `send` returns.
struct Producer {
    conn: Box<dyn FrameConn>,
    epoch: u64,
}

impl Producer {
    fn start(mut conn: Box<dyn FrameConn>, rank: u64) -> Producer {
        let hello = Message::Hello {
            rank,
            format_version: ora_trace::format::FORMAT_VERSION,
            ticks_per_sec: 1_000_000_000,
        };
        write_frame(&mut conn, &hello).expect("HELLO");
        let mut header = Vec::new();
        encode_header(&mut header);
        let mut producer = Producer { conn, epoch: 0 };
        producer.send(header);
        producer
    }

    fn send(&mut self, payload: Vec<u8>) {
        let epoch = self.epoch;
        write_frame(&mut self.conn, &Message::Chunk { epoch, payload }).expect("CHUNK");
        let ack = read_frame(&mut self.conn).expect("ACK");
        assert_eq!(ack, Message::Ack { epoch });
        self.epoch += 1;
    }

    fn finish(mut self, records: u64) -> Message {
        let fin = Message::Fin {
            observed: records,
            drained: records,
            dropped: 0,
        };
        write_frame(&mut self.conn, &fin).expect("FIN");
        read_frame(&mut self.conn).expect("FIN-ACK")
    }
}

#[test]
fn a_lagging_lane_queues_runs_without_allocating() {
    let chunks: Vec<Vec<u8>> = (0..CHUNKS).map(chunk).collect();
    let daemon = Daemon::new(DaemonConfig::default());
    let (counted, fin_acks) = std::thread::scope(|scope| {
        let mut producers = Vec::new();
        let mut servers = Vec::new();
        for rank in 0..2 {
            let (producer, consumer) = loopback().expect("socketpair");
            let daemon = &daemon;
            servers.push(scope.spawn(move || {
                daemon.serve_conn(Box::new(ArmByAck {
                    inner: consumer,
                    acks: 0,
                    from: LEAD + 3,
                }));
                COUNT.get()
            }));
            producers.push(Producer::start(producer, rank));
        }
        let [leader, lagger] = &mut producers[..] else {
            unreachable!("two producers");
        };
        for c in &chunks[..LEAD as usize] {
            leader.send(c.clone());
        }
        for (k, c) in chunks.iter().enumerate() {
            lagger.send(c.clone());
            if let Some(ahead) = chunks.get(k + LEAD as usize) {
                leader.send(ahead.clone());
            }
        }
        let records = CHUNKS * PER_CHUNK;
        let fin_acks: Vec<Message> = producers.into_iter().map(|p| p.finish(records)).collect();
        let counted: Vec<usize> = servers
            .into_iter()
            .map(|s| s.join().expect("lane"))
            .collect();
        (counted, fin_acks)
    });
    for fin in &fin_acks {
        let Message::FinAck { stored, .. } = fin else {
            panic!("expected FIN-ACK, got {fin:?}");
        };
        assert_eq!(*stored, CHUNKS * PER_CHUNK);
    }
    let fleet = daemon.finish();
    assert_eq!(fleet.store.len() as u64, 2 * CHUNKS * PER_CHUNK);
    assert!(fleet.lanes.iter().all(|l| l.quarantined.is_none()));

    // Both threads settle into the one store: their sum is what its
    // growth has to explain. The leader's queue holds `LEAD` runs at
    // most, each buffer a full chunk's before counting starts.
    let total: usize = counted.iter().sum();
    let growths = store_growths(2 * (LEAD + 3) * PER_CHUNK, 2 * CHUNKS * PER_CHUNK);
    assert!(
        total <= growths,
        "{counted:?} allocations ingesting chunks {}..={CHUNKS}; the store's growth explains {growths}",
        LEAD + 4
    );
}

/// The allocations a store's amortised growth explains while it grows
/// from `held` settled records to `total`, of this file's streams (7 B
/// a record encoded): its decoded tail doubling up to twice its floor
/// of 16 segments, where spills hold it; and each growth of its segment
/// bytes, with the segment table beside them (two allocations). The
/// first spill reserves for its worst case, 16 segments at 70 B a
/// record (about 1.1 MiB), and every later growth at least doubles the
/// bytes.
fn store_growths(held: u64, total: u64) -> usize {
    let floor = 16 * 1024;
    let tail = (2 * floor / held.min(2 * floor))
        .next_power_of_two()
        .ilog2();
    let first = (16 + 1) * 70 * 1024;
    let bytes = 1 + (7 * total).div_ceil(first).next_power_of_two().ilog2();
    (tail + 2 * bytes) as usize
}
