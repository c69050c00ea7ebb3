//! Seeded property tests for the binary trace format.
//!
//! Drawn from `ora_core::testutil::XorShift64` so every case is
//! deterministic and offline: encode→decode round-trips arbitrary
//! record batches, corruption and truncation are rejected with typed
//! errors (never a panic), and the footer's drop counters always equal
//! records-written minus records-read.

use ora_core::testutil::XorShift64;
use ora_trace::format::{
    crc32, decode_chunk, decode_footer, encode_chunk, encode_footer, put_varint, Footer, TAG_CHUNK,
};
use ora_trace::{
    DropPolicy, MemorySink, RawRecord, Recorder, TraceConfig, TraceError, TraceReader,
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
            // CRC catches payload damage; header damage trips the
            // structural checks; a flip may also produce a decodable
            // chunk whose *content* differs (tag/lane/count fields are
            // outside the CRC) — that must at least decode cleanly.
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

/// The CRC covers the payload, not the header, and only guards against
/// accidents: a chunk whose header claims more records than its payload
/// can hold (six varints each) — or a payload longer than the address
/// space — is a typed error before anything is allocated for it.
#[test]
fn lying_chunk_headers_are_rejected_before_allocation() {
    let mut rng = XorShift64::new(0x0f0f_0006);
    let batch = arb_batch(&mut rng, 8);
    let mut honest = Vec::new();
    encode_chunk(&mut honest, 0, 0, &batch);
    let mut header = ora_core::bytes::Cursor::new(&honest[1..]);
    for _ in 0..3 {
        header.varint().unwrap(); // lane, count, payload_len
    }
    let payload = &honest[1 + header.position()..honest.len() - 4];
    let crafted = |count: u64, payload_len: u64| {
        let mut chunk = vec![TAG_CHUNK];
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
        "the crafted chunk with honest fields is the chunk"
    );
    for count in [u64::MAX, u64::MAX / 40, len / 6 + 1] {
        assert!(
            matches!(
                decode_chunk(&crafted(count, len), &mut 0),
                Err(TraceError::Malformed(_))
            ),
            "count {count} over a {len}-byte payload"
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

/// The encoder's bytes are the file format: a seeded stream encoded as
/// chunks of 1, 4 096 and an odd count, and a whole `Recorder` trace
/// over three lanes (one of them split at `max_chunk_records`), must
/// reproduce the lengths and CRCs the format had when they were pinned.
/// A faster encoder that changes one byte breaks old traces and fails
/// here.
#[test]
fn encodings_reproduce_the_golden_bytes() {
    let mut rng = XorShift64::new(0x601d_0001);
    let (mut tick, mut seq) = (rng.next_u64() >> 2, rng.below(1 << 30));
    let stream: Vec<RawRecord> = (0..1 + 4_096 + 1_537)
        .map(|_| arb_record(&mut rng, &mut tick, &mut seq))
        .collect();
    let (one, rest) = stream.split_at(1);
    let (full, odd) = rest.split_at(4_096);
    let mut got = Vec::new();
    for (lane, batch) in [(0, one), (5, full), (63, odd)] {
        let mut buf = vec![0xa5; 3]; // the chunk lands after existing bytes
        encode_chunk(&mut buf, 3, lane, batch);
        got.push(fingerprint(&buf[3..]));
    }
    assert_eq!(got, GOLDEN_CHUNKS);

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
    assert_eq!(fingerprint(&sink.into_bytes()), GOLDEN_TRACE);
}

const GOLDEN_CHUNKS: [(usize, u32); 3] = [
    (30, 0x5154_b71c),
    (73_217, 0x6308_4206),
    (27_564, 0x3a19_cad6),
];
const GOLDEN_TRACE: (usize, u32) = (219_843, 0x7d03_2b42);

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
