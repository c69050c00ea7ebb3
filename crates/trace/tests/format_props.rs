//! Seeded property tests for the binary trace format.
//!
//! Drawn from `ora_core::testutil::XorShift64` so every case is
//! deterministic and offline: encode→decode round-trips arbitrary
//! record batches, corruption and truncation are rejected with typed
//! errors (never a panic), and the footer's drop counters always equal
//! records-written minus records-read.

mod v1;

use ora_core::testutil::XorShift64;
use ora_trace::format::{
    self, crc32, decode_chunk, decode_footer, encode_chunk, encode_footer, put_varint, Anchor,
    Footer, TAG_CHUNK, TAG_CHUNK_V1,
};
use ora_trace::{
    DropPolicy, MemorySink, RawRecord, Recorder, TraceConfig, TraceError, TraceReader,
    GOVERNOR_EVENT_CODE,
};

fn arb_record(rng: &mut XorShift64, tick: &mut u64, seq: &mut u64) -> RawRecord {
    // Ticks and seqs wander upward (the realistic near-sorted case) but
    // occasionally jump wildly to exercise the zigzag deltas.
    if rng.chance(1, 16) {
        *tick = rng.next_u64() >> 1;
    } else {
        *tick += rng.below(1 << 12);
    }
    *seq += 1 + rng.below(4);
    RawRecord {
        tick: *tick,
        seq: *seq,
        event: 1 + rng.below(26) as u32,
        gtid: rng.below(256) as u32,
        region_id: rng.next_u64() >> rng.below(60),
        wait_id: rng.next_u64() >> rng.below(60),
    }
}

fn arb_batch(rng: &mut XorShift64, max: usize) -> Vec<RawRecord> {
    let len = rng.range_usize(1, max);
    let mut tick = rng.next_u64() >> 2;
    let mut seq = rng.below(1 << 30);
    (0..len)
        .map(|_| arb_record(rng, &mut tick, &mut seq))
        .collect()
}

/// Chunk encode→decode is the identity for arbitrary record batches.
#[test]
fn chunk_round_trips_arbitrary_batches() {
    let mut rng = XorShift64::new(0x0f0f_0001);
    for _case in 0..256 {
        let batch = arb_batch(&mut rng, 200);
        let lane = rng.below(64);
        let mut buf = Vec::new();
        let meta = encode_chunk(&mut buf, 0, lane, &batch);
        assert_eq!(meta.count as usize, batch.len());
        assert_eq!(meta.min_tick, batch.iter().map(|r| r.tick).min().unwrap());
        assert_eq!(meta.max_tick, batch.iter().map(|r| r.tick).max().unwrap());
        let mut pos = 0;
        let (got_lane, got) = decode_chunk(&buf, &mut pos).unwrap();
        assert_eq!(got_lane, lane);
        assert_eq!(got, batch);
        assert_eq!(pos, buf.len(), "decode must consume the whole chunk");
        for r in &batch {
            assert!(meta.may_contain_region(r.region_id));
        }
    }
}

/// Any single bit flip inside a chunk is rejected with a typed error —
/// usually `CrcMismatch`; flips in the length-prefix varints may surface
/// as `Truncated`/`Malformed` instead, but never a panic and never a
/// silently-wrong decode of a *consistent-looking* result.
#[test]
fn corrupt_chunks_are_rejected_not_panicked() {
    let mut rng = XorShift64::new(0x0f0f_0002);
    for _case in 0..128 {
        let batch = arb_batch(&mut rng, 60);
        let mut buf = Vec::new();
        encode_chunk(&mut buf, 0, 3, &batch);
        let bit = rng.below(buf.len() as u64 * 8) as usize;
        let mut corrupt = buf.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        match decode_chunk(&corrupt, &mut 0) {
            // CRC catches body damage; damage to the tag or the body
            // length trips the structural checks; a flip that still
            // decodes (a tag flipped to another layout's, say) must at
            // least decode cleanly.
            Ok((_, got)) => assert_ne!(
                (corrupt.clone(), got.clone()),
                (buf.clone(), batch.clone()),
                "identical bytes cannot decode differently"
            ),
            Err(
                TraceError::CrcMismatch { .. }
                | TraceError::Truncated
                | TraceError::Malformed(_)
                | TraceError::UnknownEvent(_),
            ) => {}
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
}

/// The CRC only guards against accidents: a chunk that claims more
/// records than its payload can hold (two bytes each in v2, six varints
/// in v1) — or a length longer than the address space — is a typed
/// error before anything is allocated for it, however it is sealed.
#[test]
fn lying_chunk_headers_are_rejected_before_allocation() {
    let mut rng = XorShift64::new(0x0f0f_0006);
    let batch = arb_batch(&mut rng, 8);
    let b = (batch.iter()).fold((u64::MAX, 0, 0), |(lo, hi, m), r| {
        (lo.min(r.tick), hi.max(r.tick), m | 1 << (r.region_id % 64))
    });
    // The v2 chunk's records: its body after the five descriptor varints.
    let mut honest = Vec::new();
    encode_chunk(&mut honest, 0, 0, &batch);
    let mut c = ora_core::bytes::Cursor::new(&honest[1..]);
    let body_at = 1 + {
        c.varint().unwrap();
        c.position()
    };
    let mut c = ora_core::bytes::Cursor::new(&honest[body_at..]);
    for _ in 0..5 {
        c.varint().unwrap(); // lane, count, min_tick, span, region_mask
    }
    let records = &honest[body_at + c.position()..honest.len() - 4];
    let crafted = |count: u64, body_len: Option<u64>| {
        let mut body = Vec::new();
        for v in [0, count, b.0, b.1 - b.0, b.2] {
            put_varint(&mut body, v);
        }
        body.extend_from_slice(records);
        let mut chunk = vec![TAG_CHUNK];
        put_varint(&mut chunk, body_len.unwrap_or(body.len() as u64));
        chunk.extend_from_slice(&body);
        chunk.extend_from_slice(&crc32(&body).to_le_bytes());
        chunk
    };
    let len = records.len() as u64;
    assert_eq!(crafted(batch.len() as u64, None), honest);
    for count in [u64::MAX, u64::MAX / 40, len / 2 + 1] {
        assert!(
            matches!(
                decode_chunk(&crafted(count, None), &mut 0),
                Err(TraceError::Malformed(_))
            ),
            "count {count} over a {len}-byte v2 payload"
        );
    }
    for body_len in [u64::MAX, u64::MAX - 3, len + 64] {
        assert_eq!(
            decode_chunk(&crafted(1, Some(body_len)), &mut 0),
            Err(TraceError::Truncated),
            "body_len {body_len}"
        );
    }

    // v1: the count and length sit outside the CRC, over six-varint
    // records.
    let mut honest = Vec::new();
    v1::chunk(&mut honest, 0, 0, &batch);
    let mut header = ora_core::bytes::Cursor::new(&honest[1..]);
    for _ in 0..3 {
        header.varint().unwrap(); // lane, count, payload_len
    }
    let payload = &honest[1 + header.position()..honest.len() - 4];
    let crafted = |count: u64, payload_len: u64| {
        let mut chunk = vec![TAG_CHUNK_V1];
        put_varint(&mut chunk, 0);
        put_varint(&mut chunk, count);
        put_varint(&mut chunk, payload_len);
        chunk.extend_from_slice(payload);
        chunk.extend_from_slice(&crc32(payload).to_le_bytes());
        chunk
    };
    let len = payload.len() as u64;
    assert_eq!(
        decode_chunk(&crafted(batch.len() as u64, len), &mut 0).map(|(_, r)| r),
        Ok(batch.clone()),
        "the crafted v1 chunk with honest fields is the chunk"
    );
    for count in [u64::MAX, u64::MAX / 40, len / 6 + 1] {
        assert!(
            matches!(
                decode_chunk(&crafted(count, len), &mut 0),
                Err(TraceError::Malformed(_))
            ),
            "count {count} over a {len}-byte v1 payload"
        );
    }
    for payload_len in [u64::MAX, u64::MAX - 3, len + 5] {
        assert_eq!(
            decode_chunk(&crafted(1, payload_len), &mut 0),
            Err(TraceError::Truncated),
            "payload_len {payload_len}"
        );
    }
}

/// A v2 chunk's tick range and region mask are sealed with its records
/// and must match them exactly: a chunk re-sealed over a range that
/// starts late or early, ends late or early, or a mask with a bit added
/// or missing, fails to decode as malformed.
#[test]
fn v2_chunk_bounds_that_disagree_with_their_records_are_refused() {
    let batch: Vec<RawRecord> = (0..64u64)
        .map(|i| RawRecord {
            tick: 1_000 + i * 7,
            seq: i,
            event: 1 + (i % 26) as u32,
            gtid: (i % 3) as u32,
            region_id: [1, 5, 9][i as usize % 3],
            wait_id: i / 2,
        })
        .collect();
    let mut honest = Vec::new();
    let meta = encode_chunk(&mut honest, 0, 1, &batch);
    let mut c = ora_core::bytes::Cursor::new(&honest[1..]);
    c.varint().unwrap();
    let body = &honest[1 + c.position()..honest.len() - 4];
    let mut b = ora_core::bytes::Cursor::new(body);
    let fields = [(); 5].map(|()| b.varint().unwrap());
    let records = &body[b.position()..];
    let sealed = |min: u64, max: u64, mask: u64| {
        let mut body = Vec::new();
        for v in [fields[0], fields[1], min, max - min, mask] {
            put_varint(&mut body, v);
        }
        body.extend_from_slice(records);
        let mut chunk = vec![TAG_CHUNK];
        put_varint(&mut chunk, body.len() as u64);
        chunk.extend_from_slice(&body);
        chunk.extend_from_slice(&crc32(&body).to_le_bytes());
        chunk
    };
    let (lo, hi, mask) = (meta.min_tick, meta.max_tick, meta.region_mask);
    assert_eq!(sealed(lo, hi, mask), honest);
    let present = mask & mask.wrapping_neg();
    for (min, max, mask) in [
        (lo + 1, hi, mask),
        (lo - 1, hi, mask),
        (lo, hi - 1, mask),
        (lo, hi + 1, mask),
        (lo, hi, mask | !mask & (!mask).wrapping_neg()),
        (lo, hi, mask & !present),
    ] {
        assert!(
            matches!(
                decode_chunk(&sealed(min, max, mask), &mut 0),
                Err(TraceError::Malformed(_))
            ),
            "bounds ({min}, {max}, {mask:#x}) over ({lo}, {hi}, {:#x})",
            meta.region_mask
        );
    }
}

/// A lane's worth of records as a ring writes them, with every
/// irregularity v2's predictions must survive: seq gaps (drop-oldest
/// reclaims), gtid switches (threads sharing the lane), region changes,
/// wait ids that repeat, step by one or jump, ticks that step back,
/// events outside 1..=26 and governor decisions, and `u64::MAX` fields.
fn lane_stream(rng: &mut XorShift64, len: usize) -> Vec<RawRecord> {
    let mut r = RawRecord {
        tick: rng.next_u64() >> 20,
        seq: rng.below(1 << 30),
        ..RawRecord::default()
    };
    let gtids = [rng.below(4) as u32, rng.below(300) as u32, u32::MAX];
    (0..len)
        .map(|_| {
            r.tick = match rng.below(64) {
                0 => u64::MAX,
                1 => r.tick.wrapping_sub(rng.below(1 << 10)),
                _ => r.tick.wrapping_add(rng.next_u64() >> (44 + rng.below(20))),
            };
            r.seq = match rng.below(32) {
                0 => r.seq.wrapping_add(2 + rng.below(1 << 12)),
                1 => u64::MAX,
                _ => r.seq.wrapping_add(1),
            };
            r.event = match rng.below(40) {
                0 => GOVERNOR_EVENT_CODE,
                1 => *rng.choose(&[0, 27, 31, 254, 256, u32::MAX]),
                _ => 1 + rng.below(26) as u32,
            };
            if rng.chance(1, 6) {
                r.gtid = *rng.choose(&gtids);
            }
            r.region_id = match rng.below(16) {
                0 => u64::MAX,
                1 | 2 => rng.next_u64() >> rng.below(64),
                _ => r.region_id,
            };
            r.wait_id = match rng.below(8) {
                0 => u64::MAX,
                1 => rng.next_u64() >> rng.below(64),
                2 | 3 => r.wait_id.wrapping_add(1),
                _ => r.wait_id,
            };
            r
        })
        .collect()
}

/// v2 encode→decode is the identity on [`lane_stream`]s, and the
/// chunk's index entry is its records' exact tick range and region mask.
#[test]
fn v2_chunks_round_trip_lane_streams() {
    let mut rng = XorShift64::new(0x0f0f_0007);
    for case in 0..400 {
        let len = rng.range_usize(1, 600);
        let batch = lane_stream(&mut rng, len);
        let lane = rng.next_u64() >> rng.below(64);
        let mut buf = Vec::new();
        let meta = encode_chunk(&mut buf, 0, lane, &batch);
        assert_eq!(buf[0], TAG_CHUNK);
        let ticks = batch.iter().map(|r| r.tick);
        assert_eq!(meta.min_tick, ticks.clone().min().unwrap(), "case {case}");
        assert_eq!(meta.max_tick, ticks.max().unwrap(), "case {case}");
        let mask = (batch.iter()).fold(0, |m, r| m | 1 << (r.region_id % 64));
        assert_eq!(meta.region_mask, mask, "case {case}");
        let mut pos = 0;
        assert_eq!(
            decode_chunk(&buf, &mut pos),
            Ok((lane, batch)),
            "case {case}"
        );
        assert_eq!(pos, buf.len());
    }
    // An empty chunk, which the wire allows, has zero bounds.
    let mut buf = Vec::new();
    let meta = encode_chunk(&mut buf, 9, 4, &[]);
    assert_eq!((meta.count, meta.min_tick, meta.region_mask), (0, 0, 0));
    assert_eq!(decode_chunk(&buf, &mut 0), Ok((4, vec![])));
}

/// Truncating an encoded chunk anywhere is always a typed error.
#[test]
fn truncated_chunks_are_rejected() {
    let mut rng = XorShift64::new(0x0f0f_0003);
    for _case in 0..64 {
        let batch = arb_batch(&mut rng, 40);
        let mut buf = Vec::new();
        encode_chunk(&mut buf, 0, 0, &batch);
        let cut = rng.range_usize(0, buf.len());
        match decode_chunk(&buf[..cut], &mut 0) {
            Err(_) => {}
            Ok(_) => panic!("decoding a truncated chunk cannot succeed"),
        }
    }
}

/// Footer encode→decode is the identity, and corruption is typed.
#[test]
fn footer_round_trips_and_rejects_corruption() {
    let mut rng = XorShift64::new(0x0f0f_0004);
    for _case in 0..128 {
        let lanes = rng.range_usize(0, 8);
        let chunks = rng.range_usize(0, 16);
        let footer = Footer {
            lanes: (0..lanes)
                .map(|_| ora_trace::LaneStats {
                    written: rng.next_u64() >> 8,
                    dropped_newest: rng.below(1 << 20),
                    dropped_oldest: rng.below(1 << 20),
                    drained: rng.next_u64() >> 8,
                })
                .collect(),
            chunks: (0..chunks)
                .map(|_| ora_trace::ChunkMeta {
                    offset: rng.next_u64() >> 16,
                    lane: rng.below(64),
                    count: rng.below(1 << 16),
                    min_tick: rng.below(1 << 40),
                    max_tick: rng.below(1 << 40),
                    region_mask: rng.next_u64(),
                })
                .collect(),
        };
        let mut buf = Vec::new();
        encode_footer(&mut buf, &footer);
        assert_eq!(decode_footer(&buf).unwrap(), footer);

        let bit = rng.below((buf.len() as u64 - 6) * 8) as usize; // keep the magic
        let mut corrupt = buf.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        if corrupt == buf {
            continue;
        }
        // Typed rejection is the common outcome; a successful decode
        // must at least not reproduce the original footer.
        if let Ok(got) = decode_footer(&corrupt) {
            assert_ne!(got, footer, "corruption must not decode to the original");
        }
    }
}

/// Bit-at-a-time IEEE CRC-32, independent of the crate's `crc32`, so
/// the golden values below do not lean on the code they pin.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// `(length, bitwise CRC-32)` of an encoding.
fn fingerprint(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32_bitwise(bytes))
}

/// Six records whose v2 bytes are worked out by hand below: every head
/// mode, the escape byte with each field, a metadata record and an
/// explicit event code.
const HAND_RECORDS: [RawRecord; 6] = [
    // Fork: predicted seq 0 is 7, region 0 is 3 → escape {seq, region}.
    hand(1_000, 7, 1, 0, 3, 0),
    // Begin implicit barrier: SAME, wait one past its pair's last (0).
    hand(1_003, 8, 5, 0, 3, 1),
    // End implicit barrier: SAME, wait equal to its pair's last (1).
    hand(1_004, 9, 6, 0, 3, 1),
    // Begin again from gtid 1 (a shared lane): escape {gtid}, wait +8.
    hand(1_004, 10, 5, 1, 3, 9),
    // A governor decision (metadata subtype 1) for the explicit-barrier
    // pair, two ticks back: escape {region}, packed wait as a delta.
    hand(1_002, 11, GOVERNOR_EVENT_CODE, 1, 7, (91_000 << 16) | 3),
    // Event code 0, which v2 writes explicitly: SAME, wait equal.
    hand(1_010, 12, 0, 1, 7, 0),
];

const fn hand(
    tick: u64,
    seq: u64,
    event: u32,
    gtid: u32,
    region_id: u64,
    wait_id: u64,
) -> RawRecord {
    RawRecord {
        tick,
        seq,
        event,
        gtid,
        region_id,
        wait_id,
    }
}

/// [`HAND_RECORDS`] as the body of a lane-2 chunk, byte by byte.
#[rustfmt::skip]
const HAND_BODY: [u8; 35] = [
    // lane 2, count 6, min_tick 1000, span 10, region_mask bits 3 and 7
    0x02, 0x06, 0xe8, 0x07, 0x0a, 0x88, 0x01,
    // head code 1 | wait equal; Δtick +1000; escape seq|region; Δseq +7; Δregion +3
    0x01, 0xd0, 0x0f, 0x05, 0x0e, 0x06,
    // head code 5 | SAME | wait next; Δtick +3
    0x65, 0x06,
    // head code 6 | SAME | wait equal; Δtick +1
    0x26, 0x02,
    // head code 5 | wait delta; Δtick 0; escape gtid; gtid 1; Δwait +8
    0x85, 0x00, 0x02, 0x01, 0x10,
    // head code 31 | wait delta; subtype 1; Δtick −2; escape region; Δregion +4;
    // Δwait +5 963 776 003
    0x9f, 0x01, 0x03, 0x04, 0x08, 0x86, 0x80, 0xc0, 0xb7, 0x2c,
    // head code 0 | SAME | wait equal; event 0; Δtick +8
    0x20, 0x00, 0x10,
];

/// The encoder's bytes are the file format, pinned three ways:
/// - [`HAND_RECORDS`] encode to the hand-worked [`HAND_BODY`], and the
///   process's clock anchor to the header's bytes;
/// - a seeded stream encoded as chunks of 1, 4 096 and an odd count,
///   and a whole `Recorder` trace over three lanes (one of them split at
///   `max_chunk_records`), reproduce the lengths and CRCs v2 had when
///   they were pinned (the trace after its header, whose anchor is the
///   time of the run);
/// - the same stream and trace in v1, written by the test's own v1
///   writer, reproduce the fingerprints the v1 encoder had, and decode
///   to the same records: the v1 bytes stay as decode-only goldens.
///
/// A faster encoder that changes one byte breaks old traces and fails
/// here.
#[test]
fn encodings_reproduce_the_golden_bytes() {
    let mut got = Vec::new();
    let meta = encode_chunk(&mut got, 0, 2, &HAND_RECORDS);
    let mut want = vec![TAG_CHUNK, HAND_BODY.len() as u8];
    want.extend_from_slice(&HAND_BODY);
    want.extend_from_slice(&crc32_bitwise(&HAND_BODY).to_le_bytes());
    assert_eq!(got, want);
    assert_eq!(
        (meta.min_tick, meta.max_tick, meta.region_mask),
        (1_000, 1_010, 0x88)
    );
    assert_eq!(decode_chunk(&want, &mut 0), Ok((2, HAND_RECORDS.to_vec())));

    let mut header = Vec::new();
    format::encode_header(&mut header);
    let anchor = Anchor::process();
    let mut want = b"ORATRC\x02\x00".to_vec();
    for v in [anchor.ticks_per_sec, anchor.tick, anchor.unix_ns] {
        want.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(header, want);
    assert_eq!(header.len(), format::HEADER_LEN);

    let mut rng = XorShift64::new(0x601d_0001);
    let (mut tick, mut seq) = (rng.next_u64() >> 2, rng.below(1 << 30));
    let stream: Vec<RawRecord> = (0..1 + 4_096 + 1_537)
        .map(|_| arb_record(&mut rng, &mut tick, &mut seq))
        .collect();
    let (one, rest) = stream.split_at(1);
    let (full, odd) = rest.split_at(4_096);
    let (mut v2, mut old) = (Vec::new(), Vec::new());
    for (lane, batch) in [(0, one), (5, full), (63, odd)] {
        let mut buf = vec![0xa5; 3]; // the chunk lands after existing bytes
        encode_chunk(&mut buf, 3, lane, batch);
        v2.push(fingerprint(&buf[3..]));
        let mut buf = Vec::new();
        v1::chunk(&mut buf, 0, lane, batch);
        old.push(fingerprint(&buf));
        assert_eq!(decode_chunk(&buf, &mut 0), Ok((lane, batch.to_vec())));
    }
    assert_eq!(v2, GOLDEN_CHUNKS);
    assert_eq!(old, GOLDEN_CHUNKS_V1);

    let cfg = TraceConfig {
        lanes: 3,
        capacity_per_lane: 1 << 13,
        epoch: std::time::Duration::from_secs(3600), // only the final sweep
        ..TraceConfig::default()
    };
    let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
    let rings = recorder.rings();
    let mut rng = XorShift64::new(0x601d_0002);
    let (mut tick, mut seq) = (1u64 << 40, 0u64);
    for _ in 0..12_000 {
        let mut rec = arb_record(&mut rng, &mut tick, &mut seq);
        rec.gtid = rng.below(5) as u32;
        rings.record(rec);
    }
    let (sink, stats) = recorder.finish().unwrap();
    assert_eq!(stats.dropped(), 0);
    let trace = sink.into_bytes();
    assert_eq!(fingerprint(&trace[format::HEADER_LEN..]), GOLDEN_TRACE);
    let old = v1::from_v2(&trace);
    assert_eq!(fingerprint(&old), GOLDEN_TRACE_V1);
    let (v2, v1) = (TraceReader::from_bytes(trace), TraceReader::from_bytes(old));
    let (v2, v1) = (v2.unwrap(), v1.unwrap());
    assert!(v2.anchor().is_some() && v1.anchor().is_none());
    assert_eq!(v2.records().unwrap(), v1.records().unwrap());
    assert_eq!(v2.footer().unwrap().lanes, v1.footer().unwrap().lanes);
}

const GOLDEN_CHUNKS: [(usize, u32); 3] = [
    (48, 0xfbf2_424c),
    (82_699, 0xa404_7f51),
    (31_057, 0x916c_c404),
];
const GOLDEN_TRACE: (usize, u32) = (231_381, 0xdcb4_1760);
const GOLDEN_CHUNKS_V1: [(usize, u32); 3] = [
    (30, 0x5154_b71c),
    (73_217, 0x6308_4206),
    (27_564, 0x3a19_cad6),
];
const GOLDEN_TRACE_V1: (usize, u32) = (219_843, 0x7d03_2b42);

/// End-to-end accounting: for every policy and random load shape, the
/// footer proves `written - persisted == dropped` (drop-newest) or
/// admits-all eviction accounting (drop-oldest), i.e. the drop counters
/// equal records-written minus records-read in the appropriate sense.
#[test]
fn footer_drop_counters_equal_written_minus_read() {
    let mut rng = XorShift64::new(0x0f0f_0005);
    for _case in 0..24 {
        let policy = *rng.choose(&[DropPolicy::Newest, DropPolicy::Oldest, DropPolicy::Block]);
        let lanes = rng.range_usize(1, 5);
        // Short epoch so `Block` producers always make progress even
        // when a tiny ring fills; the accounting invariants below hold
        // whether records leave via mid-run sweeps or the final one.
        let cfg = TraceConfig {
            lanes,
            capacity_per_lane: rng.range_usize(2, 128),
            policy,
            epoch: std::time::Duration::from_micros(200),
            ..TraceConfig::default()
        };
        let recorder = Recorder::start(cfg, MemorySink::new()).unwrap();
        let rings = recorder.rings();
        let produced = rng.range_usize(0, 2_000) as u64;
        for i in 0..produced {
            rings.record(RawRecord {
                tick: i,
                event: 1 + (i % 26) as u32,
                gtid: rng.below(16) as u32,
                ..RawRecord::default()
            });
        }
        let (sink, _stats) = recorder.finish().unwrap();
        let reader = TraceReader::from_bytes(sink.into_bytes()).unwrap();
        let read = reader.records().unwrap().len() as u64;

        assert_eq!(read, reader.record_count(), "index agrees with decode");
        for (i, lane) in reader.footer().unwrap().lanes.iter().enumerate() {
            assert_eq!(
                lane.dropped_newest + lane.dropped_oldest,
                lane.written + lane.dropped_newest - lane.drained,
                "lane {i}: drained must equal written - dropped_oldest"
            );
        }
        match policy {
            DropPolicy::Newest => {
                let written: u64 = reader
                    .footer()
                    .unwrap()
                    .lanes
                    .iter()
                    .map(|l| l.written)
                    .sum();
                assert_eq!(written, read, "drop-newest persists exactly what it admits");
                assert_eq!(written + reader.dropped().unwrap(), produced);
            }
            DropPolicy::Oldest => {
                let written: u64 = reader
                    .footer()
                    .unwrap()
                    .lanes
                    .iter()
                    .map(|l| l.written)
                    .sum();
                assert_eq!(written, produced, "drop-oldest admits everything");
                assert_eq!(written - reader.dropped().unwrap(), read);
            }
            DropPolicy::Block => {
                assert_eq!(reader.dropped(), Some(0), "block never loses records");
                assert_eq!(read, produced);
            }
        }
    }
}
