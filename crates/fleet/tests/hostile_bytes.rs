//! Structure-aware mutation of every decoder of outside bytes.
//!
//! Valid inputs are generated for each decoder — request batches,
//! trace chunks, trace footers, whole trace files (and torn prefixes of
//! them), fleet timelines (cut at segment boundaries too) and fleet
//! frames — and
//! then lied about where lies do damage: counts and lengths are swapped
//! for their neighbours, the bytes that follow, or absurd values;
//! payload bytes are flipped, extended into long varints, deleted and
//! cut. Chunk, footer and frame CRCs are then re-sealed over the mutated
//! bytes, so the mutations reach the code behind the checksum instead
//! of stopping at it.
//!
//! The oracle, per decode: `Ok` or a typed error, never a panic, and no
//! single allocation larger than 16 × the input length + 4 KiB, so a
//! small hostile input cannot make a decoder reserve memory for records
//! it does not carry. A counting global allocator measures the largest
//! allocation made on the decoding thread.
//!
//! Set `ORA_FAULT_SEED` to replay a specific seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ora_core::message::{serve_batch, RequestBatch};
use ora_core::testutil::XorShift64;
use ora_core::{
    ApiHealth, CallbackToken, OraError, Request, Response, ThreadState, WaitIdKind, ALL_EVENTS,
};
use ora_fleet::protocol::{encode_frame, read_frame, Message};
use ora_trace::analyze::{
    decode_timeline, encode_segments, timeline_bytes, TIMELINE_MAGIC, TIMELINE_SEGMENT,
};
use ora_trace::format::{
    crc32, decode_chunk, decode_footer, encode_chunk, encode_footer, encode_header, put_varint,
    Footer, LaneStats, FOOTER_MAGIC, TAG_FOOTER,
};
use ora_trace::{merge_ranks, RankedEvent, RawRecord, TraceError, TraceEvent, TraceReader};

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

/// Cases of each input kind per seed.
const CASES: usize = 48;

fn base_seed() -> u64 {
    std::env::var("ORA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x686f_7374_0001)
}

/// Run `decode` over `input` and hold it to the oracle.
fn check(kind: &str, seed: u64, case: usize, input: &[u8], decode: impl FnOnce()) {
    LARGEST.set(0);
    ARMED.set(true);
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    ARMED.set(false);
    let head = &input[..input.len().min(32)];
    assert!(
        outcome.is_ok(),
        "{kind} decoder panicked (seed {seed}, case {case}, {} bytes starting {head:02x?})",
        input.len()
    );
    let bound = 16 * input.len() + 4096;
    let largest = LARGEST.get();
    assert!(
        largest <= bound,
        "{kind} decoder allocated {largest} bytes at once for a {}-byte input, bound {bound} \
         (seed {seed}, case {case}, starting {head:02x?})",
        input.len()
    );
}

/// What to write where an honest count or length `honest` was, with
/// `room` bytes following it: the truth, a neighbour, one item per
/// byte that follows, or something absurd.
fn lie(rng: &mut XorShift64, honest: u64, room: u64) -> u64 {
    match rng.below(8) {
        0 | 1 => honest,
        2 => honest.saturating_add(1),
        3 => honest.saturating_sub(1),
        4 => room,
        5 => room / 2 + 1,
        6 => u64::MAX,
        _ => rng.next_u64() >> rng.below(64),
    }
}

/// Append `v` as a varint, sometimes padded with redundant continuation
/// bytes (still valid up to ten bytes, an overflow past that).
fn put_field(rng: &mut XorShift64, out: &mut Vec<u8>, v: u64) {
    if !rng.chance(1, 8) {
        put_varint(out, v);
        return;
    }
    let mut raw = Vec::new();
    put_varint(&mut raw, v);
    let last = raw.pop().expect("a varint has a byte");
    out.extend_from_slice(&raw);
    out.push(last | 0x80);
    for _ in 0..rng.below(10) {
        out.push(0x80);
    }
    out.push(0);
}

/// Flip, overwrite, extend, delete or cut a few bytes of `bytes`.
fn mutate_bytes(rng: &mut XorShift64, bytes: &mut Vec<u8>) {
    for _ in 0..rng.below(4) {
        if bytes.is_empty() {
            bytes.push(rng.next_u32() as u8);
            continue;
        }
        let at = rng.range_usize(0, bytes.len());
        match rng.below(6) {
            0 | 1 => bytes[at] ^= 1 << rng.below(8),
            2 => bytes[at] = *rng.choose(&[0x00, 0x01, 0x7f, 0x80, 0xff]),
            3 => bytes.insert(at, 0x80 | rng.next_u32() as u8),
            4 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
}

/// Bytes in the varint at the start of `bytes`.
fn varint_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|b| b & 0x80 == 0)
        .expect("varint ends")
        + 1
}

fn arb_records(rng: &mut XorShift64, max: usize) -> Vec<RawRecord> {
    let (mut tick, mut seq) = (rng.next_u64() >> 8, rng.below(1 << 20));
    (0..rng.range_usize(1, max))
        .map(|_| {
            tick += rng.below(1 << 12);
            seq += 1;
            RawRecord {
                tick,
                seq,
                event: 1 + rng.below(26) as u32,
                gtid: rng.below(8) as u32,
                region_id: rng.below(64),
                wait_id: rng.next_u64() >> rng.below(64),
            }
        })
        .collect()
}

fn request_batches(rng: &mut XorShift64, seed: u64) {
    let arb_request = |rng: &mut XorShift64| match rng.below(11) {
        0 => Request::Start,
        1 => Request::Stop,
        2 => Request::Pause,
        3 => Request::Resume,
        4 => Request::Register {
            event: *rng.choose(&ALL_EVENTS),
            token: CallbackToken(rng.next_u64()),
        },
        5 => Request::Unregister {
            event: *rng.choose(&ALL_EVENTS),
        },
        6 => Request::QueryState,
        7 => Request::QueryCurrentPrid,
        8 => Request::QueryParentPrid,
        9 => Request::QueryHealth,
        _ => Request::QueryCapabilities,
    };
    let serve = |req: Request| -> Result<Response, OraError> {
        Ok(match req {
            Request::QueryState => Response::State {
                state: ThreadState::LockWait,
                wait_id: Some((WaitIdKind::Lock, u64::MAX)),
            },
            Request::QueryCurrentPrid => Response::RegionId(7),
            Request::QueryParentPrid => return Err(OraError::OutOfSequence),
            Request::QueryCapabilities => Response::Capabilities(u64::MAX),
            Request::QueryHealth => Response::Health(ApiHealth::default()),
            _ => Response::Ack,
        })
    };
    for case in 0..CASES {
        let requests: Vec<Request> = (0..rng.below(8)).map(|_| arb_request(rng)).collect();
        let mut batch = RequestBatch::new(&requests);
        // The runtime's side: lie in the record headers the collector sent.
        let mut bytes = batch.as_bytes().to_vec();
        let mut record = 0;
        while record + 16 <= bytes.len() && rng.chance(2, 3) {
            let sz = u32::from_le_bytes(bytes[record..record + 4].try_into().unwrap());
            let field = record + 4 * rng.range_usize(0, 4);
            let value = lie(rng, u64::from(sz), (bytes.len() - record) as u64) as u32;
            bytes[field..field + 4].copy_from_slice(&value.to_le_bytes());
            if sz == 0 {
                break;
            }
            record += sz as usize;
        }
        if rng.chance(1, 2) {
            mutate_bytes(rng, &mut bytes);
        }
        let input = bytes.clone();
        check("request batch", seed, case, &input, || {
            let _ = serve_batch(&mut bytes, serve);
        });

        // The collector's side: lie in what the runtime wrote back.
        serve_batch(batch.as_mut_bytes(), serve);
        let served = batch.as_mut_bytes();
        for _ in 0..rng.below(6) {
            if !served.is_empty() {
                let at = rng.range_usize(0, served.len());
                served[at] = rng.next_u32() as u8;
            }
        }
        let input = batch.as_bytes().to_vec();
        check("request reply", seed, case, &input, || {
            for i in 0..batch.len() {
                let _ = batch.response(i);
            }
        });
    }
}

fn chunks(rng: &mut XorShift64, seed: u64) {
    for case in 0..CASES {
        let records = arb_records(rng, 300);
        let mut honest = Vec::new();
        encode_chunk(&mut honest, 0, rng.below(64), &records);
        let mut at = 1;
        for _ in 0..3 {
            at += varint_len(&honest[at..]); // lane, count, payload_len
        }
        let mut payload = honest[at..honest.len() - 4].to_vec();
        if rng.chance(1, 2) {
            mutate_bytes(rng, &mut payload);
        }
        let room = payload.len() as u64;
        let mut chunk = vec![if rng.chance(1, 32) { 0x02 } else { honest[0] }];
        let (lane, count) = (rng.below(64), lie(rng, records.len() as u64, room));
        put_field(rng, &mut chunk, lane);
        put_field(rng, &mut chunk, count);
        let payload_len = if rng.chance(1, 4) {
            lie(rng, room, room)
        } else {
            room
        };
        put_field(rng, &mut chunk, payload_len);
        chunk.extend_from_slice(&payload);
        chunk.extend_from_slice(&crc32(&payload).to_le_bytes());
        if rng.chance(1, 8) {
            chunk.truncate(rng.range_usize(0, chunk.len()));
        }
        check("chunk", seed, case, &chunk, || {
            let _ = decode_chunk(&chunk, &mut 0);
        });
    }
}

fn footers(rng: &mut XorShift64, seed: u64) {
    for case in 0..CASES {
        let lanes = rng.below(40);
        let chunks = rng.below(160);
        let mut lane_bytes = Vec::new();
        for _ in 0..lanes * 4 {
            put_varint(&mut lane_bytes, rng.next_u64() >> rng.below(64));
        }
        let mut chunk_bytes = Vec::new();
        for _ in 0..chunks * 6 {
            put_varint(&mut chunk_bytes, rng.next_u64() >> rng.below(64));
        }
        let room = (lane_bytes.len() + chunk_bytes.len() + 1) as u64;
        let lane_count = lie(rng, lanes, room);
        let chunk_count = lie(rng, chunks, chunk_bytes.len() as u64);
        let mut payload = Vec::new();
        put_field(rng, &mut payload, lane_count);
        payload.extend_from_slice(&lane_bytes);
        put_field(rng, &mut payload, chunk_count);
        payload.extend_from_slice(&chunk_bytes);
        if rng.chance(1, 2) {
            mutate_bytes(rng, &mut payload);
        }
        // The chunks the footer ends: any bytes at all.
        let mut file: Vec<u8> = (0..rng.below(24)).map(|_| rng.next_u32() as u8).collect();
        file.push(if rng.chance(1, 32) { 0x01 } else { TAG_FOOTER });
        file.extend_from_slice(&payload);
        file.extend_from_slice(&crc32(&payload).to_le_bytes());
        let footer_len = if rng.chance(1, 4) {
            lie(rng, payload.len() as u64, file.len() as u64) as u32
        } else {
            payload.len() as u32
        };
        file.extend_from_slice(&footer_len.to_le_bytes());
        file.extend_from_slice(FOOTER_MAGIC);
        check("footer", seed, case, &file, || {
            let _ = decode_footer(&file);
        });
    }
}

/// Whole trace files of honest chunks whose footer index lies: entries
/// duplicated or with their lane, count, offset, tick range or region
/// mask rewritten, re-sealed by the footer encoder, then opened and read
/// back in full. A tick-range or region-mask lie is written back in
/// place, where the walk still agrees with it. The merges trust the
/// tick ranges, so beyond the common oracle, whatever `records()`,
/// `events()` or `merge_ranks` returns `Ok` must be in merge-key order.
/// The queries skip chunks by both, so whenever `records()` is `Ok`
/// (every chunk decoded and checked against its entry), `for_region`
/// and `time_range` must equal their filters over it.
fn trace_files(rng: &mut XorShift64, seed: u64) {
    for case in 0..CASES {
        let lanes = rng.range_usize(1, 4);
        let mut file = Vec::new();
        encode_header(&mut file);
        let mut index = Vec::new();
        for _ in 0..rng.range_usize(1, 6) {
            let (offset, lane) = (file.len() as u64, rng.below(lanes as u64));
            let records = arb_records(rng, 200);
            index.push(encode_chunk(&mut file, offset, lane, &records));
        }
        let room = file.len() as u64;
        // Half the files lie only in place, about tick ranges or region
        // masks, which the walk cannot check, so they open and reach
        // the merges.
        let in_place = rng.chance(1, 2);
        for _ in 0..rng.below(6) {
            let from = rng.range_usize(0, index.len());
            let mut meta = index[from];
            let near = index[rng.range_usize(0, index.len())];
            match if in_place {
                3 + rng.below(2)
            } else {
                rng.below(5)
            } {
                0 => meta.lane = lie(rng, meta.lane, room),
                1 => meta.count = lie(rng, meta.count, room),
                2 => meta.offset = lie(rng, meta.offset, room),
                3 => {
                    // A neighbour's bound, or a lie about its own.
                    let tick = if rng.chance(1, 2) {
                        &mut meta.min_tick
                    } else {
                        &mut meta.max_tick
                    };
                    *tick = match rng.below(3) {
                        0 => near.min_tick,
                        1 => near.max_tick,
                        _ => lie(rng, *tick, room),
                    };
                    index[from] = meta;
                    continue;
                }
                _ => {
                    // One present region dropped, a neighbour's mask, or
                    // a lie.
                    meta.region_mask = match rng.below(3) {
                        0 => meta.region_mask & !(1 << rng.below(64)),
                        1 => near.region_mask,
                        _ => lie(rng, meta.region_mask, room),
                    };
                    index[from] = meta;
                    continue;
                }
            }
            let at = rng.range_usize(0, index.len());
            if rng.chance(1, 2) {
                index[at] = meta;
            } else {
                index.insert(at, meta);
            }
        }
        let footer = Footer {
            lanes: vec![LaneStats::default(); lanes],
            chunks: index,
        };
        encode_footer(&mut file, &footer);
        let owned = file.clone();
        let mut orders = None;
        let mut queries = Vec::new();
        check("trace file", seed, case, &file, || {
            let Ok(reader) = TraceReader::from_bytes(owned) else {
                return;
            };
            let sorted = |v: &Vec<TraceEvent>| v.is_sorted_by_key(TraceEvent::key);
            let records = reader.records();
            let events: Result<Vec<_>, _> = reader.events().collect();
            let ranks = merge_ranks(std::slice::from_ref(&reader));
            orders = Some([
                ("records()", records.as_ref().ok().map(sorted)),
                ("events()", events.as_ref().ok().map(sorted)),
                (
                    "merge_ranks",
                    (ranks.as_ref().ok()).map(|m| m.is_sorted_by_key(RankedEvent::key)),
                ),
            ]);
            let Ok(all) = records else {
                return;
            };
            let filter = |keep: &dyn Fn(&TraceEvent) -> bool| -> Vec<TraceEvent> {
                all.iter().copied().filter(|e| keep(e)).collect()
            };
            for region in [0, 1, 31, 63, 64, rng.below(128)] {
                let want = filter(&|e| e.region_id == region);
                queries.push((
                    format!("for_region({region})"),
                    reader.for_region(region),
                    want,
                ));
            }
            let (lo, hi) = match (all.first(), all.last()) {
                (Some(a), Some(b)) => (a.tick, b.tick),
                _ => (0, 0),
            };
            for _ in 0..3 {
                let a = lo + rng.below((hi - lo).saturating_add(1));
                let b = a.saturating_add(rng.below((hi - lo) / 4 + 1));
                let want = filter(&|e| (a..=b).contains(&e.tick));
                queries.push((
                    format!("time_range({a}, {b})"),
                    reader.time_range(a, b),
                    want,
                ));
            }
        });
        for (query, sorted) in orders.into_iter().flatten() {
            assert!(
                sorted != Some(false),
                "{query} returned records out of merge-key order (seed {seed}, case {case})"
            );
        }
        for (query, got, want) in queries {
            assert!(
                got.as_ref() == Ok(&want),
                "{query} disagrees with a filter over records() (seed {seed}, case {case}): \
                 got {} records, want {}",
                got.map_or(-1, |v| v.len() as i64),
                want.len()
            );
        }
    }
}

/// A valid multi-chunk trace file cut at every byte, as a recording
/// killed mid-write leaves it. A cut inside the header is `Truncated`;
/// any later cut opens salvaged, and both `records()` and `events()`
/// return exactly the records of the chunks that end at or before the
/// cut, stably sorted. Eight gtids share a few lanes (one lane in the last
/// case) and each chunk starts at a random tick, so a lane's chunks
/// interleave in tick order: with no tick bounds to go by, a salvaged
/// reader must reorder each lane whole.
fn torn_files(rng: &mut XorShift64, seed: u64) {
    for case in 0..3 {
        let lanes = if case == 2 {
            1
        } else {
            rng.range_usize(2, 4) as u64
        };
        let mut file = Vec::new();
        encode_header(&mut file);
        let (mut index, mut ends, mut chunk_records) = (Vec::new(), Vec::new(), Vec::new());
        let mut seq = 0;
        for _ in 0..rng.range_usize(3, 6) {
            // Seqs unique across the file keep every merge key unique.
            let records: Vec<RawRecord> = arb_records(rng, 12)
                .into_iter()
                .map(|r| {
                    seq += 1;
                    RawRecord { seq, ..r }
                })
                .collect();
            let (offset, lane) = (file.len() as u64, rng.below(lanes));
            index.push(encode_chunk(&mut file, offset, lane, &records));
            ends.push(file.len());
            chunk_records.push(records);
        }
        let footer = Footer {
            lanes: (0..lanes)
                .map(|lane| {
                    let drained = index.iter().filter(|m| m.lane == lane).map(|m| m.count);
                    let drained = drained.sum();
                    LaneStats {
                        written: drained,
                        drained,
                        ..LaneStats::default()
                    }
                })
                .collect(),
            chunks: index.clone(),
        };
        encode_footer(&mut file, &footer);

        for cut in 0..file.len() {
            let input = file[..cut].to_vec();
            let mut opened = None;
            check("torn file", seed, case, &input, || {
                opened = Some(TraceReader::from_bytes(input.clone()).map(|reader| {
                    let records = reader.records();
                    let events: Result<Vec<_>, _> = reader.events().collect();
                    (reader.salvaged(), records, events)
                }));
            });
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let context = format!("seed {seed}, case {case}, cut {cut} of {}", file.len());
            match opened.expect("decode ran") {
                Err(e) => {
                    assert!(cut < 8, "{context}: a cut past the header fails: {e}");
                    assert_eq!(e, TraceError::Truncated, "{context}");
                }
                Ok((salvage, records, events)) => {
                    let salvage = salvage.unwrap_or_else(|| panic!("{context}: not salvaged"));
                    assert_eq!(salvage.chunks, whole, "{context}");
                    let mut want: Vec<TraceEvent> = chunk_records[..whole]
                        .iter()
                        .flatten()
                        .map(|r| TraceEvent::from_raw(r).expect("arb_records events are known"))
                        .collect();
                    want.sort_by_key(TraceEvent::key);
                    assert_eq!(records, Ok(want.clone()), "{context}: records()");
                    assert_eq!(events, Ok(want), "{context}: events()");
                }
            }
        }
    }
}

/// Timelines of up to a few segments, cut at a segment boundary (or a
/// byte either side of one) or mutated, under a count that is honest,
/// lies, or names a segment boundary; some keep the v1 magic.
fn timelines(rng: &mut XorShift64, seed: u64) {
    for case in 0..CASES {
        let max = *rng.choose(&[200, 1100, 2600]);
        let events: Vec<RankedEvent> = arb_records(rng, max)
            .iter()
            .map(|r| RankedEvent {
                rank: rng.below(4) as usize,
                record: TraceEvent {
                    tick: r.tick,
                    gtid: r.gtid as usize,
                    seq: r.seq,
                    event: *rng.choose(&ALL_EVENTS),
                    region_id: r.region_id,
                    wait_id: r.wait_id,
                },
            })
            .collect();
        let honest = timeline_bytes(&events);
        let at = TIMELINE_MAGIC.len();
        let mut body = honest[at + varint_len(&honest[at..])..].to_vec();
        let segments = events.len().div_ceil(TIMELINE_SEGMENT);
        let mut count = events.len() as u64;
        match rng.below(4) {
            0 => mutate_bytes(rng, &mut body),
            1 => {
                // Cut at the end of a segment, or a byte either side.
                let whole = rng.below(segments as u64 + 1) as usize * TIMELINE_SEGMENT;
                let mut head = Vec::new();
                encode_segments(&mut head, &events[..whole.min(events.len())]);
                let cut = (head.len() + rng.below(3) as usize).saturating_sub(1);
                body.truncate(cut);
            }
            _ => {}
        }
        count = match rng.below(3) {
            // A segment boundary, or a record either side of one.
            0 => (rng.below(segments as u64 + 2) * TIMELINE_SEGMENT as u64 + rng.below(3))
                .saturating_sub(1),
            1 => lie(rng, count, body.len() as u64),
            _ => count,
        };
        let mut timeline = if rng.chance(1, 16) {
            b"ORAFLT".to_vec()
        } else {
            TIMELINE_MAGIC.to_vec()
        };
        put_field(rng, &mut timeline, count);
        timeline.extend_from_slice(&body);
        let mut decoded = None;
        check("timeline", seed, case, &timeline, || {
            decoded = Some(decode_timeline(&timeline));
        });
        if timeline.starts_with(b"ORAFLT") {
            assert_eq!(decoded, Some(Err(TraceError::BadVersion(1))), "case {case}");
        } else if timeline[at..] == honest[at..] {
            assert_eq!(
                decoded,
                Some(Ok(events)),
                "case {case}: the honest timeline"
            );
        }
    }
}

fn frames(rng: &mut XorShift64, seed: u64) {
    for case in 0..CASES {
        let message = match rng.below(5) {
            0 => Message::Hello {
                rank: rng.below(1 << 20),
                format_version: 1,
                ticks_per_sec: rng.next_u64(),
            },
            1 => Message::Chunk {
                epoch: rng.below(1 << 20),
                payload: (0..rng.below(512)).map(|_| rng.next_u32() as u8).collect(),
            },
            2 => Message::Ack {
                epoch: rng.next_u64(),
            },
            3 => Message::Fin {
                observed: rng.next_u64(),
                drained: rng.next_u64(),
                dropped: rng.next_u64(),
            },
            _ => Message::FinAck {
                stored: rng.next_u64(),
                late: rng.next_u64(),
            },
        };
        let honest = encode_frame(&message);
        let mut framed = honest[4..honest.len() - 4].to_vec();
        if rng.chance(1, 8) {
            framed[0] = rng.below(8) as u8;
        }
        if rng.chance(1, 4) {
            // Rewrite the first field, the one every message has.
            let rest = framed[1 + varint_len(&framed[1..])..].to_vec();
            let field = lie(rng, 0, rest.len() as u64);
            framed.truncate(1);
            put_field(rng, &mut framed, field);
            framed.extend_from_slice(&rest);
        }
        if rng.chance(1, 2) {
            mutate_bytes(rng, &mut framed);
        }
        if framed.is_empty() {
            framed.push(rng.below(8) as u8);
        }
        let mut frame = (framed.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&framed);
        frame.extend_from_slice(&crc32(&framed).to_le_bytes());
        check("frame", seed, case, &frame, || {
            let _ = read_frame(&mut &frame[..]);
        });
    }
}

#[test]
fn hostile_bytes_get_typed_errors_and_bounded_allocations() {
    let seed = base_seed();
    let mut rng = XorShift64::new(seed);
    request_batches(&mut rng, seed);
    chunks(&mut rng, seed);
    footers(&mut rng, seed);
    trace_files(&mut rng, seed);
    torn_files(&mut rng, seed);
    timelines(&mut rng, seed);
    frames(&mut rng, seed);
}
