//! The `ora-trace` binary on-disk format, version 2.
//!
//! A trace file is a header, a sequence of self-describing chunks, and a
//! footer, all little-endian, with every variable-length integer LEB128
//! ("varint") encoded and every signed delta zigzag-mapped first:
//!
//! ```text
//! file   := header chunk* footer
//! header := magic "ORATRC" (6 bytes) | version u16 LE (2)
//!         | ticks_per_sec u64 LE    — rate of the recording's clock
//!         | anchor_tick u64 LE      — a tick of that clock …
//!         | anchor_unix_ns u64 LE   — … and its Unix time in nanoseconds
//! chunk  := tag 0x03
//!         | varint body_len         — bytes in body
//!         | body
//!         | crc32 u32 LE            — IEEE CRC of body
//! body   := varint lane             — ring the records came from
//!         | varint count            — records in the chunk
//!         | varint min_tick | varint max_tick - min_tick
//!         | varint region_mask      — bit (id % 64) set for every region
//!         | record*                 — count records (below)
//! footer := tag 0x02
//!         | footer_payload          — lane stats + chunk index (below)
//!         | crc32 u32 LE            — IEEE CRC of footer_payload
//!         | footer_len u32 LE       — bytes in footer_payload
//!         | magic "ORAFTR" (6 bytes)
//! ```
//!
//! A chunk's bytes depend only on its lane and records, never on where
//! it lands in the file, and its CRC seals its lane, count, tick range
//! and region mask with its records. The records must match the tick
//! range and region mask exactly, so a chunk indexes itself: a trace
//! without its footer is indexed as well as a whole one.
//!
//! **Records.** A record is one header byte, the zigzag delta of its
//! tick against the previous record's (the first record's against 0),
//! and then only the fields the header does not predict:
//!
//! ```text
//! record := head u8 [subtype u8 | varint event] zigzag Δtick
//!           [escape u8 [zigzag Δseq] [varint gtid] [zigzag Δregion_id]]
//!           [zigzag Δwait_id]
//! head   := bits 0–4  code: 1–26 the event itself; 31 a metadata record,
//!                      whose subtype byte follows (1: a governor
//!                      decision, GOVERNOR_EVENT_CODE in memory); 0 any
//!                      other event code, as the varint that follows;
//!                      27–30 reserved
//!           bit  5    SAME: seq is the previous seq + 1, and gtid and
//!                      region_id are the previous record's; when clear,
//!                      the escape byte says which of the three follow
//!                      (bit 0 seq, bit 1 gtid, bit 2 region_id)
//!           bits 6–7  wait_id against the last wait_id of the same
//!                      begin/end pair in this chunk (codes 2k−1 and 2k
//!                      pair up; every pair starts at 0): 0 equal, 1 one
//!                      more, 2 a zigzag delta follows; 3 reserved
//! ```
//!
//! Before the first record, the previous seq is `u64::MAX` (so the
//! predicted seq is 0) and gtid and region_id are 0. A dense lane's
//! record is therefore two bytes: its head and a one-byte tick delta.
//!
//! **Version 1** chunks (tag 0x01) carry no tick range or region mask,
//! and their CRC covers only the records, each six varints:
//!
//! ```text
//! chunk_v1  := tag 0x01 | varint lane | varint count | varint payload_len
//!            | payload | crc32 u32 LE (of payload)
//! record[0] := varint tick | varint seq | varint event | varint gtid
//!            | varint region_id | varint wait_id
//! record[i] := zigzag Δtick | zigzag Δseq | varint event | varint gtid
//!            | zigzag Δregion_id | varint wait_id
//! ```
//!
//! Its header is the first 8 bytes of the v2 one, with version 1. This
//! crate reads version 1 files and never writes them; which grammar a
//! chunk's records follow is told by its tag alone.
//!
//! **Footer payload.** Per-lane counters make loss *observable* — a
//! reader can always prove how many records the file is missing — and
//! the chunk index makes time-range / per-region queries seekable
//! without scanning payloads:
//!
//! ```text
//! footer_payload := varint lane_count
//!                 | lane_count × (varint written | varint dropped_newest
//!                                 | varint dropped_oldest | varint drained)
//!                 | varint chunk_count
//!                 | chunk_count × (varint offset    — chunk tag position
//!                                  | varint lane | varint count
//!                                  | varint min_tick | varint max_tick
//!                                  | varint region_mask — bit (id % 64) set
//!                                    for every region in the chunk)
//! ```
//!
//! **A chunk stream with an index.** Every unit is self-describing and
//! each chunk CRC-sealed, so [`units`] walks a file front to back
//! without its footer, which is only an index: readers check it against
//! the walk (a v2 chunk's own tick range and region mask included) and
//! use its tick ranges and region masks to decode only the chunks a
//! query needs, and a file cut short reads as the valid prefix it is
//! (see [`crate::reader`]); other damage yields a typed [`TraceError`],
//! never a panic.

use std::cell::RefCell;
use std::mem::MaybeUninit;

use ora_core::bytes::Cursor;

use crate::ring::RawRecord;
use crate::TraceError;

/// File magic: starts every trace file.
pub const FILE_MAGIC: &[u8; 6] = b"ORATRC";
/// Footer magic: ends every complete trace file.
pub const FOOTER_MAGIC: &[u8; 6] = b"ORAFTR";
/// Format version this crate writes.
pub const FORMAT_VERSION: u16 = 2;
/// The oldest format version this crate reads.
pub const FORMAT_VERSION_V1: u16 = 1;
/// Chunk tag byte of the v2 layout, the one written.
pub const TAG_CHUNK: u8 = 0x03;
/// Chunk tag byte of the v1 layout: read, never written.
pub const TAG_CHUNK_V1: u8 = 0x01;
/// Footer tag byte.
pub const TAG_FOOTER: u8 = 0x02;
/// Bytes in a v2 file header.
pub const HEADER_LEN: usize = 32;
/// Bytes in a v1 file header.
const HEADER_LEN_V1: usize = 8;

/// Reserved record event code for governor sampling-rate decisions.
///
/// The governed collector rung writes one record with this code per
/// [`ora_core::governor::GovernorDecision`]: `region_id` carries the
/// discriminant of the pair's begin event and `wait_id` packs the
/// shifts and measured overhead (see [`pack_governor_decision`]).
/// Real OpenMP events use discriminants 1..=26, so the code can never
/// collide; on disk it is the metadata code with subtype
/// [`META_GOVERNOR`]. Readers drop these records from event streams and
/// surface them through
/// [`crate::reader::TraceReader::governor_timeline`].
pub const GOVERNOR_EVENT_CODE: u32 = 255;

/// Metadata subtype of a governor decision record.
const META_GOVERNOR: u8 = 1;

/// Pack a governor decision's payload into a record `wait_id`:
/// `overhead_ppm` in the high bits, the old and new sampling shifts in
/// the two low bytes. Shifts are capped at 15 well under a byte, and
/// overhead in ppm is far below 2^48, so the packing is lossless.
pub fn pack_governor_decision(old_shift: u32, new_shift: u32, overhead_ppm: u64) -> u64 {
    (overhead_ppm << 16) | u64::from(old_shift & 0xff) << 8 | u64::from(new_shift & 0xff)
}

/// Inverse of [`pack_governor_decision`]:
/// `(old_shift, new_shift, overhead_ppm)`.
pub fn unpack_governor_decision(wait_id: u64) -> (u32, u32, u64) {
    (
        ((wait_id >> 8) & 0xff) as u32,
        (wait_id & 0xff) as u32,
        wait_id >> 16,
    )
}

// ---------------------------------------------------------------------
// varint / zigzag
// ---------------------------------------------------------------------

/// Append `v` LEB128-encoded.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Map a signed delta to an unsigned varint-friendly value.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial): carry-less-multiply folding
// where the CPU has it, slicing-by-8 everywhere
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution `k` further bytes through the
/// register, so eight lookups consume eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of `data`.
///
/// On x86_64 hosts with `pclmulqdq` and `sse4.1`, inputs of at least
/// 128 bytes fold 64 bytes per step with carry-less multiplies;
/// everything else, and the folded path's tail, runs the portable
/// slicing-by-8 loop.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `update` needs `pclmulqdq` and `sse4.1` (and the
        // x86_64 baseline `sse2`), all just detected at run time.
        return !unsafe { clmul::update(!0, data) };
    }
    !crc32_slicing(!0, data)
}

/// Advance the CRC register `c` (pre-inverted, as the IEEE CRC keeps
/// it) over `data`, eight bytes per step.
fn crc32_slicing(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), for the bit-reflected IEEE polynomial.
///
/// Four 128-bit accumulators each fold 64 bytes ahead per step (x^512
/// and x^576 mod P, `K1`/`K2`), then fold into one another and into the
/// remaining 16-byte blocks (x^128 and x^192, `K3`/`K4`), shrink from
/// 128 to 64 bits (`K4`, then x^64 mod P, `K5`), and finish with a
/// Barrett reduction by P′ = P·x and μ = ⌊x^64 / P⌋. A tail shorter than
/// 16 bytes goes to the slicing loop.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input worth the set-up: four blocks to seed the
    /// accumulators plus one fold step.
    pub(super) const MIN_LEN: usize = 128;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_PRIME: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The next 16 bytes of `data`, consumed. Panics if fewer remain.
    #[inline(always)]
    fn take(data: &mut &[u8]) -> __m128i {
        let (block, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `block` is 16 readable bytes, and the load is the
        // unaligned one.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried 128 bits further (its halves times the two keys
    /// packed in `keys`), plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the CRC register `crc` (pre-inverted) over `data`, which
    /// holds at least [`MIN_LEN`] bytes. Callers without these target
    /// features enabled must first detect them at run time.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn update(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let mut x3 = _mm_xor_si128(take(&mut data), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = take(&mut data);
        let mut x1 = take(&mut data);
        let mut x0 = take(&mut data);

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, take(&mut data), k1k2);
            x2 = fold(x2, take(&mut data), k1k2);
            x1 = fold(x1, take(&mut data), k1k2);
            x0 = fold(x0, take(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, take(&mut data), k3k4);
        }

        // 128 → 96 bits: the low half times x^128 mod P, plus the high.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times x^64 mod P, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P′, and the
        // reflected remainder is the upper half of R ⊕ T2's low 64 bits.
        let pu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_slicing(c, data)
    }
}

// ---------------------------------------------------------------------
// Chunks
// ---------------------------------------------------------------------

/// One entry of the footer's chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk tag in the file.
    pub offset: u64,
    /// Ring lane the records came from.
    pub lane: u64,
    /// Records in the chunk.
    pub count: u64,
    /// Smallest tick in the chunk.
    pub min_tick: u64,
    /// Largest tick in the chunk.
    pub max_tick: u64,
    /// Coarse region filter: bit `region_id % 64` is set for every
    /// region that appears in the chunk (queries skip chunks whose bit
    /// is clear; a set bit may still be a false positive).
    pub region_mask: u64,
}

impl ChunkMeta {
    /// Whether a record with `region_id` could be in this chunk.
    #[inline]
    pub fn may_contain_region(&self, region_id: u64) -> bool {
        self.region_mask & (1u64 << (region_id % 64)) != 0
    }

    /// Whether the chunk's tick range intersects `[lo, hi]`.
    #[inline]
    pub fn overlaps_ticks(&self, lo: u64, hi: u64) -> bool {
        self.min_tick <= hi && self.max_tick >= lo
    }
}

/// A v2 chunk's own tick range and region mask, which its records
/// match exactly. An empty chunk's are all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Smallest tick in the chunk.
    pub min_tick: u64,
    /// Largest tick in the chunk.
    pub max_tick: u64,
    /// Bit `region_id % 64` set for every region in the chunk.
    pub region_mask: u64,
}

impl Bounds {
    /// Widen to cover a record at `tick` in `region_id`, from the
    /// `(u64::MAX, 0, 0)` that covers nothing.
    #[inline(always)]
    fn cover(&mut self, tick: u64, region_id: u64) {
        self.min_tick = self.min_tick.min(tick);
        self.max_tick = self.max_tick.max(tick);
        self.region_mask |= 1u64 << (region_id % 64);
    }

    /// What [`cover`](Self::cover) starts from.
    const NOTHING: Bounds = Bounds {
        min_tick: u64::MAX,
        max_tick: 0,
        region_mask: 0,
    };

    /// The covered bounds, or the empty chunk's zeros.
    fn settled(self, count: u64) -> Bounds {
        if count == 0 {
            Bounds::default()
        } else {
            self
        }
    }
}

/// Most bytes one varint of a `u64` takes.
pub(crate) const MAX_VARINT_BYTES: usize = 10;

/// Most bytes one encoded record takes: the head, an explicit event
/// code (a `u32` varint, which a metadata subtype byte never exceeds),
/// the escape byte, four 64-bit varints (tick, seq, region and wait
/// deltas) and the gtid's 32-bit one.
const MAX_RECORD_BYTES: usize = 1 + 5 + 1 + 4 * MAX_VARINT_BYTES + 5;

/// Fewest bytes one v2 record takes: its head and a one-byte tick delta.
const MIN_RECORD_BYTES: usize = 2;

/// Head bits 0–4: the record's code.
const CODE_MASK: u8 = 0x1f;
/// Code: an event outside 1..=26 and not a governor decision; its code
/// follows the head as a varint.
const CODE_EXPLICIT: u8 = 0;
/// Code: a metadata record; its subtype byte follows the head.
const CODE_META: u8 = 31;
/// Head bit 5: seq is the previous seq + 1, gtid and region unchanged.
const SAME: u8 = 0x20;
/// Head bits 6–7: how `wait_id` relates to its pair's last one.
const WAIT_SHIFT: u32 = 6;
const WAIT_EQUAL: u8 = 0;
const WAIT_NEXT: u8 = 1;
const WAIT_DELTA: u8 = 2;
/// Escape byte bits: which of seq, gtid and region_id follow.
const ESC_SEQ: u8 = 1;
const ESC_GTID: u8 = 2;
const ESC_REGION: u8 = 4;
/// Last wait ids, one per begin/end pair of codes (code `c` keeps its
/// in slot `(c + 1) / 2`), the explicit code's in slot 0 and the
/// metadata code's in slot 16.
const WAIT_SLOTS: usize = 17;

#[inline(always)]
fn wait_slot(code: u8) -> usize {
    (usize::from(code & CODE_MASK) + 1) >> 1
}

/// The record the first record of a chunk is predicted from.
const BEFORE_FIRST: RawRecord = RawRecord {
    tick: 0,
    seq: u64::MAX,
    event: 0,
    gtid: 0,
    region_id: 0,
    wait_id: 0,
};

/// Write `v` LEB128-encoded into `buf` at `at`; returns the position
/// after it. The caller has reserved the room.
#[inline(always)]
pub(crate) fn write_varint(buf: &mut [MaybeUninit<u8>], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at].write(v as u8 | 0x80);
        v >>= 7;
        at += 1;
    }
    buf[at].write(v as u8);
    at + 1
}

/// Bytes in the varint of `v`.
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Room to reserve for `count` decoded records of type `T` whose
/// encoding spans `bytes`: the count, but never more than 16 bytes of
/// `T` per encoded byte. A v2 record can be two bytes, so a count no
/// record backs would otherwise size an allocation 20× (`RawRecord`) or
/// 28× (`RankedEvent`) its input; past the cap, the vector grows as
/// records actually decode.
pub(crate) fn reservation<T>(count: u64, bytes: usize) -> usize {
    let cap = bytes.saturating_mul(16) / std::mem::size_of::<T>().max(1);
    count.min(cap as u64) as usize
}

thread_local! {
    /// The record scratch of [`encode_chunk`], kept per thread so its
    /// worst-case room is reserved once, not per chunk.
    static PAYLOAD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Encode `records` as one chunk appended to `out` (which is at byte
/// `offset` of the file) and return its index entry.
///
/// The records are written varint by varint into a per-thread scratch
/// whose room for the worst case is checked once per chunk, then copied
/// behind the chunk's descriptor into `out`, which grows by exactly the
/// chunk's length.
pub fn encode_chunk(out: &mut Vec<u8>, offset: u64, lane: u64, records: &[RawRecord]) -> ChunkMeta {
    PAYLOAD.with_borrow_mut(|payload| {
        let b = encode_records(payload, records);
        let count = records.len() as u64;
        let span = b.max_tick - b.min_tick;
        let descriptor = [lane, count, b.min_tick, span, b.region_mask];
        let body_len = descriptor.iter().map(|&v| varint_len(v)).sum::<usize>() + payload.len();
        out.reserve(1 + MAX_VARINT_BYTES + body_len + 4);
        out.push(TAG_CHUNK);
        put_varint(out, body_len as u64);
        let body_at = out.len();
        for v in descriptor {
            put_varint(out, v);
        }
        out.extend_from_slice(payload);
        let crc = crc32(&out[body_at..]);
        out.extend_from_slice(&crc.to_le_bytes());
        ChunkMeta {
            offset,
            lane,
            count,
            min_tick: b.min_tick,
            max_tick: b.max_tick,
            region_mask: b.region_mask,
        }
    })
}

/// Replace `payload` with the v2 records and return their bounds.
///
/// The room for the worst case is reserved once, so each byte is a
/// plain store through a [`Writer`], with no bounds check of its own.
fn encode_records(payload: &mut Vec<u8>, records: &[RawRecord]) -> Bounds {
    payload.clear();
    payload.reserve(records.len() * MAX_RECORD_BYTES);
    let start: *mut u8 = payload.spare_capacity_mut().as_mut_ptr().cast();
    let mut w = Writer(start);
    let mut bounds = Bounds::NOTHING;
    let mut waits = [0u64; WAIT_SLOTS];
    let p = BEFORE_FIRST;
    let (mut prev_tick, mut next_seq, mut prev_gtid, mut prev_region) =
        (p.tick, p.seq.wrapping_add(1), p.gtid, p.region_id);
    for r in records {
        // SAFETY: a record writes at most MAX_RECORD_BYTES, and the
        // spare capacity holds that many for every record.
        unsafe {
            let head_at = w.0;
            w.skip(1);
            let code = match r.event {
                1..=26 => r.event as u8,
                GOVERNOR_EVENT_CODE => {
                    w.byte(META_GOVERNOR);
                    CODE_META
                }
                event => {
                    w.varint(u64::from(event));
                    CODE_EXPLICIT
                }
            };
            w.varint(zigzag(r.tick.wrapping_sub(prev_tick) as i64));
            let seq_delta = r.seq.wrapping_sub(next_seq);
            let escape = (u8::from(seq_delta != 0) * ESC_SEQ)
                | (u8::from(r.gtid != prev_gtid) * ESC_GTID)
                | (u8::from(r.region_id != prev_region) * ESC_REGION);
            let mut head = code;
            if escape == 0 {
                head |= SAME;
            } else {
                w.byte(escape);
                if escape & ESC_SEQ != 0 {
                    w.varint(zigzag(seq_delta as i64));
                }
                if escape & ESC_GTID != 0 {
                    w.varint(u64::from(r.gtid));
                }
                if escape & ESC_REGION != 0 {
                    let delta = r.region_id.wrapping_sub(prev_region);
                    w.varint(zigzag(delta as i64));
                }
            }
            let last = &mut waits[wait_slot(code)];
            let mode = match r.wait_id.wrapping_sub(*last) {
                0 => WAIT_EQUAL,
                1 => WAIT_NEXT,
                delta => {
                    w.varint(zigzag(delta as i64));
                    WAIT_DELTA
                }
            };
            *last = r.wait_id;
            head_at.write(head | mode << WAIT_SHIFT);
        }
        bounds.cover(r.tick, r.region_id);
        (prev_tick, next_seq, prev_gtid, prev_region) =
            (r.tick, r.seq.wrapping_add(1), r.gtid, r.region_id);
    }
    // SAFETY: the loop above wrote every byte from `start` to `w`, all
    // within the spare capacity.
    unsafe { payload.set_len(w.0.offset_from(start) as usize) };
    bounds.settled(records.len() as u64)
}

/// A write position in reserved, uninitialised bytes. Every method is
/// `unsafe`: the caller guarantees the room for what it writes.
struct Writer(*mut u8);

impl Writer {
    /// Leave `n` bytes to be written later.
    #[inline(always)]
    unsafe fn skip(&mut self, n: usize) {
        self.0 = self.0.add(n);
    }

    /// Write one byte.
    #[inline(always)]
    unsafe fn byte(&mut self, b: u8) {
        self.0.write(b);
        self.0 = self.0.add(1);
    }

    /// Write `v` LEB128-encoded: at most [`MAX_VARINT_BYTES`].
    #[inline(always)]
    unsafe fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

/// `Ok` if the CRC of `data` is `stored`.
fn check_crc(stored: u32, data: &[u8]) -> Result<(), TraceError> {
    match crc32(data) {
        actual if actual == stored => Ok(()),
        actual => Err(TraceError::CrcMismatch {
            expected: stored,
            actual,
        }),
    }
}

/// Hand each record of a chunk, whose CRC and count a walk has checked,
/// to `f` in order: the one record decoder, which reads the v1 or the
/// v2 grammar as the chunk's tag said. Stops at the first error, `f`'s
/// or the records' (a truncated record, a reserved code or mode, an
/// event or gtid past `u32`, records that disagree with the chunk's
/// bounds, or bytes left over after the last record).
#[inline]
pub fn for_each_record(
    chunk: &Chunk<'_>,
    f: impl FnMut(RawRecord) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    match chunk.bounds {
        Some(bounds) => for_each_v2(chunk.payload, chunk.count, bounds, f),
        None => for_each_v1(chunk.payload, chunk.count, f),
    }
}

/// [`for_each_record`] for a v2 chunk, checking the records against its
/// `bounds`.
#[inline]
fn for_each_v2(
    payload: &[u8],
    count: u64,
    bounds: Bounds,
    mut f: impl FnMut(RawRecord) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut p = Cursor::new(payload);
    let mut seen = Bounds::NOTHING;
    let mut waits = [0u64; WAIT_SLOTS];
    let mut prev = BEFORE_FIRST;
    for _ in 0..count {
        let head = p.u8()?;
        let code = head & CODE_MASK;
        let event = match code {
            1..=26 => u32::from(code),
            CODE_META => match p.u8()? {
                META_GOVERNOR => GOVERNOR_EVENT_CODE,
                _ => return Err(TraceError::Malformed("unknown metadata subtype")),
            },
            CODE_EXPLICIT => {
                u32::try_from(p.varint()?).map_err(|_| TraceError::UnknownEvent(u32::MAX))?
            }
            _ => return Err(TraceError::Malformed("reserved record code")),
        };
        let tick = prev.tick.wrapping_add(unzigzag(p.varint()?) as u64);
        let (mut seq, mut gtid, mut region_id) =
            (prev.seq.wrapping_add(1), prev.gtid, prev.region_id);
        if head & SAME == 0 {
            let escape = p.u8()?;
            if escape == 0 || escape > ESC_SEQ | ESC_GTID | ESC_REGION {
                return Err(TraceError::Malformed("escape byte names no field it can"));
            }
            if escape & ESC_SEQ != 0 {
                seq = seq.wrapping_add(unzigzag(p.varint()?) as u64);
            }
            if escape & ESC_GTID != 0 {
                gtid = u32::try_from(p.varint()?)
                    .map_err(|_| TraceError::Malformed("gtid overflows u32"))?;
            }
            if escape & ESC_REGION != 0 {
                region_id = region_id.wrapping_add(unzigzag(p.varint()?) as u64);
            }
        }
        let last = &mut waits[wait_slot(code)];
        *last = match head >> WAIT_SHIFT {
            WAIT_EQUAL => *last,
            WAIT_NEXT => last.wrapping_add(1),
            WAIT_DELTA => last.wrapping_add(unzigzag(p.varint()?) as u64),
            _ => return Err(TraceError::Malformed("reserved wait-id mode")),
        };
        seen.cover(tick, region_id);
        prev = RawRecord {
            tick,
            seq,
            event,
            gtid,
            region_id,
            wait_id: *last,
        };
        f(prev)?;
    }
    p.finish()?;
    if seen.settled(count) != bounds {
        return Err(TraceError::Malformed(
            "records disagree with their chunk's tick range or region mask",
        ));
    }
    Ok(())
}

/// [`for_each_record`] for a v1 chunk.
#[inline]
fn for_each_v1(
    payload: &[u8],
    count: u64,
    mut f: impl FnMut(RawRecord) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut p = Cursor::new(payload);
    let mut prev = RawRecord::default();
    for i in 0..count {
        let (tick, seq) = if i == 0 {
            (p.varint()?, p.varint()?)
        } else {
            let dt = unzigzag(p.varint()?) as u64;
            let ds = unzigzag(p.varint()?) as u64;
            (prev.tick.wrapping_add(dt), prev.seq.wrapping_add(ds))
        };
        let event = p.varint()?;
        let gtid = p.varint()?;
        let region_id = prev.region_id.wrapping_add(unzigzag(p.varint()?) as u64);
        let wait_id = p.varint()?;
        prev = RawRecord {
            tick,
            seq,
            event: u32::try_from(event).map_err(|_| TraceError::UnknownEvent(u32::MAX))?,
            gtid: u32::try_from(gtid).map_err(|_| TraceError::Malformed("gtid overflows u32"))?,
            region_id,
            wait_id,
        };
        f(prev)?;
    }
    p.finish()?;
    Ok(())
}

/// A chunk whose CRC and record count are checked; [`for_each_record`]
/// decodes its records.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    /// Ring lane the records came from.
    pub lane: u64,
    /// Records in the chunk (at most one per two payload bytes in v2,
    /// per six in v1).
    pub count: u64,
    /// The chunk's own tick range and region mask: `Some` for a v2
    /// chunk, `None` for a v1 chunk, which carries none.
    pub bounds: Option<Bounds>,
    /// The encoded records.
    pub payload: &'a [u8],
}

/// One unit of a trace's chunk stream: what the recorder hands its sink
/// in one write.
#[derive(Debug)]
pub enum Unit<'a> {
    /// The file header, version checked: a v2 header's clock anchor, or
    /// `None` for a v1 header.
    Header(Option<Anchor>),
    /// One chunk.
    Chunk(Chunk<'a>),
    /// The footer, which runs to the end of the walked bytes.
    Footer(Footer),
}

/// The walker under every reader of trace bytes: yields each unit of
/// `buf` with the bytes it spans. A unit is told by its first byte —
/// a chunk tag, the footer tag, or else a header. The first unit that
/// fails to read is yielded as the error and ends the walk.
pub fn units(buf: &[u8]) -> impl Iterator<Item = Result<(&[u8], Unit<'_>), TraceError>> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        let read = match *rest.first()? {
            TAG_CHUNK => read_chunk(rest).map(|(len, c)| (len, Unit::Chunk(c))),
            TAG_CHUNK_V1 => read_chunk_v1(rest).map(|(len, c)| (len, Unit::Chunk(c))),
            TAG_FOOTER => read_footer(rest).map(|f| (rest.len(), Unit::Footer(f))),
            _ => read_header(rest).map(|(len, anchor)| (len, Unit::Header(anchor))),
        };
        Some(match read {
            Ok((len, unit)) => {
                let (span, tail) = rest.split_at(len);
                rest = tail;
                Ok((span, unit))
            }
            Err(e) => {
                rest = &[];
                Err(e)
            }
        })
    })
}

/// The one unit `buf` holds, which must span all of it: how one sink
/// write arrives.
pub fn unit(buf: &[u8]) -> Result<Unit<'_>, TraceError> {
    match units(buf).next().ok_or(TraceError::Truncated)?? {
        (span, unit) if span.len() == buf.len() => Ok(unit),
        _ => Err(TraceError::Malformed("bytes follow the unit")),
    }
}

/// Read the v2 chunk at the start of `rest`, checking its CRC, tick
/// range and count; returns its length in bytes with it.
fn read_chunk(rest: &[u8]) -> Result<(usize, Chunk<'_>), TraceError> {
    let mut c = Cursor::new(rest);
    c.u8()?; // the tag
    let len = c.varint()?;
    let body = c.bytes(len)?;
    check_crc(c.u32_le()?, body)?;
    let mut b = Cursor::new(body);
    let (lane, count, min_tick, span) = (b.varint()?, b.varint()?, b.varint()?, b.varint()?);
    let bounds = Bounds {
        min_tick,
        max_tick: (min_tick.checked_add(span))
            .ok_or(TraceError::Malformed("chunk tick range overflows"))?,
        region_mask: b.varint()?,
    };
    let payload = &body[b.position()..];
    check_count(count, payload, MIN_RECORD_BYTES)?;
    Ok((
        c.position(),
        Chunk {
            lane,
            count,
            bounds: Some(bounds),
            payload,
        },
    ))
}

/// Read the v1 chunk at the start of `rest`, checking its CRC and count;
/// returns its length in bytes with it.
fn read_chunk_v1(rest: &[u8]) -> Result<(usize, Chunk<'_>), TraceError> {
    let mut c = Cursor::new(rest);
    c.u8()?; // the tag
    let (lane, count, len) = (c.varint()?, c.varint()?, c.varint()?);
    let payload = c.bytes(len)?;
    check_crc(c.u32_le()?, payload)?;
    check_count(count, payload, 6)?;
    Ok((
        c.position(),
        Chunk {
            lane,
            count,
            bounds: None,
            payload,
        },
    ))
}

/// A count the payload cannot hold at `min_record_bytes` a record is a
/// lie — refused here, before it sizes an allocation.
fn check_count(count: u64, payload: &[u8], min_record_bytes: usize) -> Result<(), TraceError> {
    if count > (payload.len() / min_record_bytes) as u64 {
        return Err(TraceError::Malformed(
            "chunk count exceeds what its payload can hold",
        ));
    }
    Ok(())
}

/// Decode the chunk whose tag byte is at `*pos` of `buf` into its lane
/// and records, advancing `*pos` past it: [`for_each_record`],
/// collected.
pub fn decode_chunk(buf: &[u8], pos: &mut usize) -> Result<(u64, Vec<RawRecord>), TraceError> {
    let rest = buf.get(*pos..).ok_or(TraceError::Truncated)?;
    let (len, chunk) = match rest.first() {
        Some(&TAG_CHUNK_V1) => read_chunk_v1(rest)?,
        Some(&TAG_CHUNK) => read_chunk(rest)?,
        Some(_) => return Err(TraceError::Malformed("expected chunk tag")),
        None => return Err(TraceError::Truncated),
    };
    let mut records = Vec::with_capacity(reservation::<RawRecord>(chunk.count, len));
    for_each_record(&chunk, |r| {
        records.push(r);
        Ok(())
    })?;
    *pos += len;
    Ok((chunk.lane, records))
}

// ---------------------------------------------------------------------
// Header / footer
// ---------------------------------------------------------------------

/// Per-lane accounting persisted in the footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Records committed into the lane's ring.
    pub written: u64,
    /// Records discarded under [`crate::DropPolicy::Newest`].
    pub dropped_newest: u64,
    /// Records reclaimed under [`crate::DropPolicy::Oldest`].
    pub dropped_oldest: u64,
    /// Records the drainer persisted into chunks.
    pub drained: u64,
}

impl LaneStats {
    /// Total records lost to backpressure.
    pub fn dropped(&self) -> u64 {
        self.dropped_newest + self.dropped_oldest
    }
}

/// Everything the footer carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footer {
    /// Per-lane counters (index = lane number).
    pub lanes: Vec<LaneStats>,
    /// The chunk index, in file order.
    pub chunks: Vec<ChunkMeta>,
}

impl Footer {
    /// Records persisted across all lanes.
    pub fn total_drained(&self) -> u64 {
        self.lanes.iter().map(|l| l.drained).sum()
    }

    /// Records lost to backpressure across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped()).sum()
    }
}

/// Where a recording's ticks sit in wall-clock time: the clock anchor a
/// v2 header carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Ticks per second of the recording's clock.
    pub ticks_per_sec: u64,
    /// A tick of the recording's clock.
    pub tick: u64,
    /// Nanoseconds since the Unix epoch at `tick`.
    pub unix_ns: u64,
}

impl Anchor {
    /// This process's clock (`ora_core::clock`): tick zero and its Unix
    /// time, the same for every header the process writes.
    pub fn process() -> Anchor {
        Anchor {
            ticks_per_sec: ora_core::clock::TICKS_PER_SEC,
            tick: 0,
            unix_ns: ora_core::clock::unix_ns_at_zero(),
        }
    }

    /// Nanoseconds since the Unix epoch at `tick` (clamped to `u64`; a
    /// zero tick rate reads as the anchor itself).
    pub fn unix_ns_at(&self, tick: u64) -> u64 {
        let since = i128::from(tick) - i128::from(self.tick);
        let ns = since * 1_000_000_000 / i128::from(self.ticks_per_sec.max(1));
        let ns = if self.ticks_per_sec == 0 { 0 } else { ns };
        (i128::from(self.unix_ns) + ns).clamp(0, i128::from(u64::MAX)) as u64
    }
}

/// Append the file header, anchored to this process's clock.
pub fn encode_header(out: &mut Vec<u8>) {
    let anchor = Anchor::process();
    out.extend_from_slice(FILE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for v in [anchor.ticks_per_sec, anchor.tick, anchor.unix_ns] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Check the file header at the start of `rest`; returns its length and,
/// for a v2 header, its clock anchor.
fn read_header(rest: &[u8]) -> Result<(usize, Option<Anchor>), TraceError> {
    let mut c = Cursor::new(rest);
    if c.bytes(6)? != FILE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = c.bytes(2)?;
    match u16::from_le_bytes([version[0], version[1]]) {
        FORMAT_VERSION => {
            let anchor = Anchor {
                ticks_per_sec: c.u64_le()?,
                tick: c.u64_le()?,
                unix_ns: c.u64_le()?,
            };
            Ok((HEADER_LEN, Some(anchor)))
        }
        FORMAT_VERSION_V1 => Ok((HEADER_LEN_V1, None)),
        version => Err(TraceError::BadVersion(version)),
    }
}

/// Append the footer (tag, payload, CRC, length, trailing magic).
pub fn encode_footer(out: &mut Vec<u8>, footer: &Footer) {
    let mut payload = Vec::new();
    put_varint(&mut payload, footer.lanes.len() as u64);
    for l in &footer.lanes {
        put_varint(&mut payload, l.written);
        put_varint(&mut payload, l.dropped_newest);
        put_varint(&mut payload, l.dropped_oldest);
        put_varint(&mut payload, l.drained);
    }
    put_varint(&mut payload, footer.chunks.len() as u64);
    for c in &footer.chunks {
        put_varint(&mut payload, c.offset);
        put_varint(&mut payload, c.lane);
        put_varint(&mut payload, c.count);
        put_varint(&mut payload, c.min_tick);
        put_varint(&mut payload, c.max_tick);
        put_varint(&mut payload, c.region_mask);
    }
    out.push(TAG_FOOTER);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
}

/// Locate, CRC-check, and parse the footer of a complete trace file
/// from its trailing length and magic.
pub fn decode_footer(buf: &[u8]) -> Result<Footer, TraceError> {
    let len_at = buf.len().checked_sub(10).ok_or(TraceError::Truncated)?;
    let payload_len = Cursor::new(&buf[len_at..]).u32_le()? as usize;
    let start = (len_at.checked_sub(5)).and_then(|at| at.checked_sub(payload_len));
    read_footer(&buf[start.ok_or(TraceError::Truncated)?..])
}

/// Read the footer that spans all of `unit`: tag, payload, CRC, length,
/// magic.
fn read_footer(unit: &[u8]) -> Result<Footer, TraceError> {
    let payload_len = unit.len().checked_sub(15).ok_or(TraceError::Truncated)?;
    let mut tail = Cursor::new(&unit[1 + payload_len..]);
    let stored = tail.u32_le()?;
    let len = tail.u32_le()?;
    if tail.bytes(6)? != FOOTER_MAGIC {
        return Err(TraceError::MissingFooter);
    }
    if unit[0] != TAG_FOOTER {
        return Err(TraceError::Malformed("expected footer tag"));
    }
    if len as usize != payload_len {
        return Err(TraceError::Malformed(
            "footer length disagrees with its unit",
        ));
    }
    let payload = &unit[1..1 + payload_len];
    check_crc(stored, payload)?;

    // A lane is four varints and a chunk entry six, so neither count
    // can size more than the payload holds.
    let mut c = Cursor::new(payload);
    let lane_count = c.count(4)?;
    let mut lanes = Vec::with_capacity(lane_count);
    for _ in 0..lane_count {
        lanes.push(LaneStats {
            written: c.varint()?,
            dropped_newest: c.varint()?,
            dropped_oldest: c.varint()?,
            drained: c.varint()?,
        });
    }
    let chunk_count = c.count(6)?;
    let mut chunks = Vec::with_capacity(chunk_count);
    for _ in 0..chunk_count {
        chunks.push(ChunkMeta {
            offset: c.varint()?,
            lane: c.varint()?,
            count: c.varint()?,
            min_tick: c.varint()?,
            max_tick: c.varint()?,
            region_mask: c.varint()?,
        });
    }
    c.finish()?;
    Ok(Footer { lanes, chunks })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// The byte-at-a-time table loop the slicing implementation
    /// replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Lengths and offsets the folded path must get right: every length
    /// up to 1 KiB (below, at and across the 128-byte threshold, every
    /// 64-byte fold and 16-byte tail boundary) at 16 start alignments,
    /// then a few long inputs.
    fn check_against_bytewise(crc: impl Fn(&[u8]) -> u32) {
        let mut rng = ora_core::testutil::XorShift64::new(0xc4c3_2001);
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| (rng.next_u64() & 0xff) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=1_024 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc(data),
                    crc32_bytewise(data),
                    "start {start}, length {len}"
                );
            }
        }
        for len in [4_095, 4_096, 65_537, 1 << 20] {
            let data = &buf[..len];
            assert_eq!(crc(data), crc32_bytewise(data), "length {len}");
        }
    }

    /// `crc32` as callers see it: the carry-less-multiply path on hosts
    /// that have it, the slicing loop elsewhere.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        check_against_bytewise(crc32);
    }

    /// The slicing loop called directly, so the fallback stays covered
    /// on hosts where `crc32` always takes the folded path.
    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        check_against_bytewise(|data| !crc32_slicing(!0, data));
    }

    #[test]
    fn chunk_round_trips() {
        let recs: Vec<RawRecord> = (0..100)
            .map(|i| RawRecord {
                tick: 1_000 + i * 3,
                seq: i,
                event: 1 + (i % 26) as u32,
                gtid: (i % 4) as u32,
                region_id: i / 10,
                wait_id: i % 2,
            })
            .collect();
        let mut buf = Vec::new();
        let meta = encode_chunk(&mut buf, 0, 7, &recs);
        assert_eq!(meta.lane, 7);
        assert_eq!(meta.count, 100);
        assert_eq!(meta.min_tick, 1_000);
        assert_eq!(meta.max_tick, 1_000 + 99 * 3);
        let mut pos = 0;
        let (lane, got) = decode_chunk(&buf, &mut pos).unwrap();
        assert_eq!(lane, 7);
        assert_eq!(got, recs);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn chunk_crc_detects_corruption() {
        let recs = vec![RawRecord {
            tick: 5,
            ..RawRecord::default()
        }];
        let mut buf = Vec::new();
        encode_chunk(&mut buf, 0, 0, &recs);
        let flip_at = buf.len() - 6; // inside the payload
        buf[flip_at] ^= 0x40;
        assert!(matches!(
            decode_chunk(&buf, &mut 0),
            Err(TraceError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn footer_round_trips() {
        let footer = Footer {
            lanes: vec![
                LaneStats {
                    written: 10,
                    dropped_newest: 1,
                    dropped_oldest: 2,
                    drained: 7,
                },
                LaneStats::default(),
            ],
            chunks: vec![ChunkMeta {
                offset: 8,
                lane: 0,
                count: 7,
                min_tick: 3,
                max_tick: 99,
                region_mask: 0b1010,
            }],
        };
        let mut buf = Vec::new();
        encode_footer(&mut buf, &footer);
        assert_eq!(decode_footer(&buf).unwrap(), footer);
    }

    #[test]
    fn footer_magic_and_crc_are_checked() {
        let mut buf = Vec::new();
        encode_footer(&mut buf, &Footer::default());
        assert!(matches!(
            decode_footer(&buf[..buf.len() - 1]),
            Err(TraceError::MissingFooter) | Err(TraceError::Truncated)
        ));
        let mut corrupt = buf.clone();
        corrupt[1] ^= 1; // inside the payload
        assert!(matches!(
            decode_footer(&corrupt),
            Err(TraceError::CrcMismatch { .. }) | Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn the_header_carries_the_process_clock_anchor() {
        let mut header = Vec::new();
        encode_header(&mut header);
        assert_eq!(header.len(), HEADER_LEN);
        match unit(&header) {
            Ok(Unit::Header(Some(anchor))) => assert_eq!(anchor, Anchor::process()),
            other => panic!("{other:?}"),
        }
        let a = Anchor {
            ticks_per_sec: 1_000_000_000,
            tick: 1_000,
            unix_ns: 5_000,
        };
        assert_eq!(a.unix_ns_at(1_500), 5_500);
        assert_eq!(a.unix_ns_at(0), 4_000);
        assert_eq!(a.unix_ns_at(u64::MAX), u64::MAX);
        let micros = Anchor {
            ticks_per_sec: 1_000_000,
            ..a
        };
        assert_eq!(micros.unix_ns_at(1_003), 8_000);
        let stopped = Anchor {
            ticks_per_sec: 0,
            ..a
        };
        assert_eq!(stopped.unix_ns_at(9), 5_000);
    }

    #[test]
    fn region_mask_filters() {
        let m = ChunkMeta {
            offset: 0,
            lane: 0,
            count: 0,
            min_tick: 10,
            max_tick: 20,
            region_mask: 1 << 5,
        };
        assert!(m.may_contain_region(5));
        assert!(m.may_contain_region(69)); // 69 % 64 == 5: false positive by design
        assert!(!m.may_contain_region(6));
        assert!(m.overlaps_ticks(0, 10));
        assert!(m.overlaps_ticks(20, 30));
        assert!(!m.overlaps_ticks(21, 30));
    }
}
