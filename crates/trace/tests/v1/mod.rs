//! A version 1 trace writer, for tests only: `ora_trace` reads v1
//! traces but no longer writes them. The bytes follow the v1 grammar of
//! `ora_trace::format`'s module docs; `format_props.rs` pins them to the
//! golden fingerprints the v1 encoder had.

#![allow(dead_code)]

use ora_trace::format::{
    self, crc32, put_varint, zigzag, ChunkMeta, Footer, Unit, FILE_MAGIC, TAG_CHUNK_V1,
};
use ora_trace::RawRecord;

/// Append the 8-byte v1 header.
pub fn header(out: &mut Vec<u8>) {
    out.extend_from_slice(FILE_MAGIC);
    out.extend_from_slice(&format::FORMAT_VERSION_V1.to_le_bytes());
}

/// Append `records` as one v1 chunk at byte `offset` of the file and
/// return its index entry.
pub fn chunk(out: &mut Vec<u8>, offset: u64, lane: u64, records: &[RawRecord]) -> ChunkMeta {
    let mut payload = Vec::new();
    let mut prev = RawRecord::default();
    let (mut min_tick, mut max_tick, mut region_mask) = (u64::MAX, 0, 0);
    for (i, r) in records.iter().enumerate() {
        if i == 0 {
            put_varint(&mut payload, r.tick);
            put_varint(&mut payload, r.seq);
        } else {
            put_varint(&mut payload, zigzag(r.tick.wrapping_sub(prev.tick) as i64));
            put_varint(&mut payload, zigzag(r.seq.wrapping_sub(prev.seq) as i64));
        }
        put_varint(&mut payload, u64::from(r.event));
        put_varint(&mut payload, u64::from(r.gtid));
        let region = r.region_id.wrapping_sub(prev.region_id);
        put_varint(&mut payload, zigzag(region as i64));
        put_varint(&mut payload, r.wait_id);
        min_tick = min_tick.min(r.tick);
        max_tick = max_tick.max(r.tick);
        region_mask |= 1 << (r.region_id % 64);
        prev = *r;
    }
    out.push(TAG_CHUNK_V1);
    put_varint(out, lane);
    put_varint(out, records.len() as u64);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    ChunkMeta {
        offset,
        lane,
        count: records.len() as u64,
        min_tick,
        max_tick,
        region_mask,
    }
}

/// The v1 file of the same chunks as the trace `file`: each chunk's
/// records re-encoded as v1, in the same order and lanes, and its
/// footer (if it has one) with the lane counters kept and the index
/// rebuilt. The walk stops at the first unit that fails to read.
pub fn from_v2(file: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut index = Vec::new();
    for unit in format::units(file) {
        match unit {
            Ok((_, Unit::Header(_))) => header(&mut out),
            Ok((_, Unit::Chunk(c))) => {
                let mut records = Vec::new();
                format::for_each_record(&c, |r| {
                    records.push(r);
                    Ok(())
                })
                .expect("the chunk decodes");
                let offset = out.len() as u64;
                index.push(chunk(&mut out, offset, c.lane, &records));
            }
            Ok((_, Unit::Footer(f))) => {
                let footer = Footer {
                    lanes: f.lanes,
                    chunks: std::mem::take(&mut index),
                };
                format::encode_footer(&mut out, &footer);
            }
            Err(_) => break,
        }
    }
    out
}
