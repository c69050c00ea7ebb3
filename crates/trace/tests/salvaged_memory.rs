//! A salvaged v2 trace streams like a whole one.
//!
//! A v2 chunk carries its own tick range, so a trace killed before its
//! footer still tells the lane cursors when a record is provably next:
//! `events()` holds about one chunk's records per lane, not the whole
//! lane. A counting global allocator (this test's own binary) measures
//! the largest allocation made while the merge runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ora_trace::format::{encode_chunk, encode_header};
use ora_trace::{RankedEvent, RawRecord, TraceReader};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LANES: u64 = 2;
const CHUNKS: u64 = 100;
const PER_CHUNK: u64 = 1_000;

#[test]
fn events_over_a_salvaged_v2_trace_hold_one_chunk_per_lane() {
    // Each lane's chunks follow one another in tick; the lanes'
    // records interleave. No footer: the recording was killed.
    let mut file = Vec::new();
    encode_header(&mut file);
    for c in 0..CHUNKS {
        for lane in 0..LANES {
            let records: Vec<RawRecord> = (0..PER_CHUNK)
                .map(|i| {
                    let n = c * PER_CHUNK + i;
                    RawRecord {
                        tick: n * 10 + lane,
                        seq: n,
                        event: 1,
                        gtid: lane as u32,
                        ..RawRecord::default()
                    }
                })
                .collect();
            let offset = file.len() as u64;
            encode_chunk(&mut file, offset, lane, &records);
        }
    }
    let reader = TraceReader::from_bytes(file).unwrap();
    assert_eq!(reader.salvaged().map(|s| s.chunks), Some(200));

    LARGEST.set(0);
    ARMED.set(true);
    let (mut count, mut last, mut sorted) = (0u64, 0u64, true);
    for event in reader.events() {
        let tick = event.unwrap().tick;
        sorted &= tick >= last;
        (count, last) = (count + 1, tick);
    }
    ARMED.set(false);
    assert_eq!(count, LANES * CHUNKS * PER_CHUNK);
    assert!(sorted);
    // A few chunks' worth of decoded records, where a lane is 100.
    let bound = 4 * PER_CHUNK as usize * std::mem::size_of::<RankedEvent>();
    let largest = LARGEST.get();
    assert!(
        largest <= bound,
        "events() allocated {largest} bytes at once; {bound} is four chunks' records"
    );
}
