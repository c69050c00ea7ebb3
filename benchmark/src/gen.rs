//! Seeded input generators.
//!
//! The stream workloads (`fleet-replay`, `offline-merge`) and the codec
//! probes run on synthetic rank traces built here from the seed alone.
//! The measured program never sees the seed: it receives the generated
//! bytes. A stream is a sequence of *sink write units* — the 8-byte file
//! header, one encoded chunk per unit, the footer — exactly what a
//! `Recorder` hands its `TraceSink`, so the same units feed
//! `SocketSink::write_all` (replay) or concatenate into a trace file
//! (offline).
//!
//! Each rank is a two-thread team recording into one trace lane. Its
//! regions are either barrier regions or task regions, and a seeded few
//! of them carry a planted detrimental pattern (a barrier convoy, or a
//! serialized spawn with its starved teammate); the generator returns
//! how many findings of each kind the analyzer must report.

use ora_core::event::Event;
use ora_trace::format::{encode_chunk, encode_footer, encode_header, Footer, LaneStats};
use ora_trace::RawRecord;

/// Records per encoded chunk: the recorder's default `max_chunk_records`.
pub const CHUNK_RECORDS: usize = 4096;
/// Records in a piece that is sent late. Small, and therefore many: each
/// late piece races the other connection on its own, so a round's cost
/// averages over many small races instead of hinging on one big one.
pub const LATE_PIECE_RECORDS: usize = 256;

/// xorshift64*: small, fast, and good enough to shape inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 scramble so nearby seeds give unrelated streams and
        // the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// Findings the analyzer must report for a generated fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plant {
    pub convoys: usize,
    pub serialized: usize,
    pub starvations: usize,
}

/// One generated rank trace.
#[derive(Debug, Clone)]
pub struct RankStream {
    /// Sink write units in send order: header, chunks, footer.
    pub units: Vec<Vec<u8>>,
    /// Event records in the stream.
    pub records: u64,
    /// Encoded chunk bytes (header and footer excluded).
    pub chunk_bytes: u64,
    /// Pieces sent late (see [`StreamShape::late_per_1000`]).
    pub displaced_chunks: u64,
}

impl RankStream {
    /// The units concatenated: a complete, readable trace file.
    pub fn file_bytes(&self) -> Vec<u8> {
        self.units.concat()
    }
}

/// What a generated stream looks like.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Records to generate, at least (generation stops at the first
    /// region boundary past it).
    pub min_records: u64,
    /// Tick offset of this rank's clock against rank 0 (interleaves the
    /// ranks' ticks in the merge).
    pub tick_skew: u64,
    /// Per thousand records, how many are sent late: in pieces of
    /// [`LATE_PIECE_RECORDS`] cut from the front of a chunk and sent after
    /// the rest of it, so they can arrive below the daemon's settled
    /// frontier. The count is fixed by the stream's length and the pieces
    /// are evenly spaced, not drawn: what late records cost the daemon
    /// must not depend on the seed.
    pub late_per_1000: u64,
}

struct Emitter {
    records: Vec<RawRecord>,
    seq: u64,
}

impl Emitter {
    fn push(&mut self, tick: u64, gtid: u32, event: Event, region_id: u64, wait_id: u64) {
        self.records.push(RawRecord {
            tick,
            seq: self.seq,
            event: event as u32,
            gtid,
            region_id,
            wait_id,
        });
        self.seq += 1;
    }
}

/// A barrier region: `episodes` explicit barriers between fork and join.
/// Clean regions alternate the last arrival; a convoy region has thread 1
/// arrive last every time, its teammate waiting three quarters of each
/// episode.
fn barrier_region(em: &mut Emitter, rng: &mut Rng, tick: &mut u64, region: u64, convoy: bool) {
    em.push(*tick, 0, Event::Fork, region, 0);
    let episodes = rng.range(8, 24);
    for ep in 0..episodes {
        *tick += rng.range(200, 900);
        let laggard = if convoy { 1 } else { (ep % 2) as u32 };
        let early = 1 - laggard;
        let gap = rng.range(300, 600);
        let release = gap / 3;
        let wait_id = ep + 1;
        em.push(
            *tick,
            early,
            Event::ThreadBeginExplicitBarrier,
            region,
            wait_id,
        );
        em.push(
            *tick + gap,
            laggard,
            Event::ThreadBeginExplicitBarrier,
            region,
            wait_id,
        );
        let end = *tick + gap + release;
        em.push(end, early, Event::ThreadEndExplicitBarrier, region, wait_id);
        em.push(
            end + 1,
            laggard,
            Event::ThreadEndExplicitBarrier,
            region,
            wait_id,
        );
        *tick = end + 1;
    }
    *tick += rng.range(100, 400);
    em.push(*tick, 0, Event::Join, region, 0);
}

/// A task region: both threads sit in a taskwait while `tasks` tasks run.
/// Clean regions alternate the executing thread; a serialized region runs
/// every task on thread 0 while thread 1 waits, executing nothing.
fn task_region(em: &mut Emitter, rng: &mut Rng, tick: &mut u64, region: u64, serialized: bool) {
    em.push(*tick, 0, Event::Fork, region, 0);
    *tick += rng.range(100, 300);
    em.push(*tick, 0, Event::TaskWaitBegin, region, 1);
    em.push(*tick + 1, 1, Event::TaskWaitBegin, region, 1);
    *tick += 2;
    let tasks = rng.range(16, 48);
    for t in 0..tasks {
        let gtid = if serialized { 0 } else { (t % 2) as u32 };
        *tick += rng.range(50, 200);
        em.push(*tick, gtid, Event::TaskBegin, region, t + 1);
        *tick += rng.range(200, 1500);
        em.push(*tick, gtid, Event::TaskEnd, region, t + 1);
    }
    *tick += rng.range(50, 200);
    em.push(*tick, 0, Event::TaskWaitEnd, region, 1);
    em.push(*tick + 1, 1, Event::TaskWaitEnd, region, 1);
    *tick += rng.range(100, 400);
    em.push(*tick, 0, Event::Join, region, 0);
}

/// Generate rank `rank`'s stream and the findings planted in it.
pub fn rank_stream(rng: &mut Rng, shape: StreamShape) -> (RankStream, Plant) {
    let mut em = Emitter {
        records: Vec::with_capacity(shape.min_records as usize + 256),
        seq: 0,
    };
    let mut plant = Plant::default();
    let mut tick = 1_000_000 + shape.tick_skew;
    let mut region = 0u64;
    while (em.records.len() as u64) < shape.min_records {
        region += 1;
        tick += rng.range(500, 5_000);
        // One region in sixteen carries a planted pattern.
        let planted = rng.chance(1, 16);
        if rng.chance(7, 10) {
            barrier_region(&mut em, rng, &mut tick, region, planted);
            plant.convoys += usize::from(planted);
        } else {
            task_region(&mut em, rng, &mut tick, region, planted);
            // The serialized spawner is one finding; its teammate's
            // task-less wait through the whole region is another.
            plant.serialized += usize::from(planted);
            plant.starvations += usize::from(planted);
        }
    }
    // Records were emitted in strictly increasing tick order, so every
    // chunk covers a tick window later than its predecessor's.
    debug_assert!(em.records.windows(2).all(|w| w[0].tick < w[1].tick));

    let mut header = Vec::new();
    encode_header(&mut header);
    let mut offset = header.len() as u64;
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut index = Vec::new();
    let mut chunk_bytes = 0u64;
    // Cut the records into chunks, then make `displaced` evenly spaced
    // chunks send their first `LATE_PIECE_RECORDS` records *after* the
    // rest, as a chunk of their own. Done before encoding so file
    // offsets follow send order, as they would had a drainer produced
    // this stream.
    let whole: Vec<&[RawRecord]> = em.records.chunks(CHUNK_RECORDS).collect();
    let late_records = em.records.len() as u64 * shape.late_per_1000 / 1000;
    let displaced = (late_records / LATE_PIECE_RECORDS as u64).min(whole.len() as u64);
    let mut pieces: Vec<&[RawRecord]> = Vec::with_capacity(whole.len() + displaced as usize);
    let mut next_late = 0u64;
    for (i, chunk) in whole.iter().enumerate() {
        // The middle of the next of `displaced` equal stretches.
        let due = next_late < displaced
            && i as u64 == (2 * next_late + 1) * whole.len() as u64 / (2 * displaced);
        if due && chunk.len() > LATE_PIECE_RECORDS {
            let (head, rest) = chunk.split_at(LATE_PIECE_RECORDS);
            pieces.extend([rest, head]);
            next_late += 1;
        } else {
            pieces.push(chunk);
        }
    }
    let displaced = next_late;
    for piece in pieces {
        let mut buf = Vec::with_capacity(piece.len() * 8 + 16);
        let meta = encode_chunk(&mut buf, offset, 0, piece);
        offset += buf.len() as u64;
        chunk_bytes += buf.len() as u64;
        index.push(meta);
        chunks.push(buf);
    }
    let n = em.records.len() as u64;
    let mut footer = Vec::new();
    encode_footer(
        &mut footer,
        &Footer {
            lanes: vec![LaneStats {
                written: n,
                drained: n,
                ..LaneStats::default()
            }],
            chunks: index,
        },
    );

    let mut units = Vec::with_capacity(chunks.len() + 2);
    units.push(header);
    units.extend(chunks);
    units.push(footer);
    (
        RankStream {
            units,
            records: n,
            chunk_bytes,
            displaced_chunks: displaced,
        },
        plant,
    )
}

/// Generate a fleet of `ranks` streams from `seed`. Rank `r`'s clock is
/// skewed by `r * 137` ticks so the ranks interleave in the merge; only
/// rank 1 sends chunks late.
pub fn fleet(
    seed: u64,
    ranks: usize,
    records_per_rank: u64,
    late_per_1000: u64,
) -> (Vec<RankStream>, Plant) {
    let mut streams = Vec::with_capacity(ranks);
    let mut plant = Plant::default();
    for rank in 0..ranks {
        let mut rng = Rng::new(seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let (stream, p) = rank_stream(
            &mut rng,
            StreamShape {
                min_records: records_per_rank,
                tick_skew: rank as u64 * 137,
                late_per_1000: if rank == 1 { late_per_1000 } else { 0 },
            },
        );
        plant.convoys += p.convoys;
        plant.serialized += p.serialized;
        plant.starvations += p.starvations;
        streams.push(stream);
    }
    (streams, plant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_trace::{analyze::analyze, merge_ranks, AnalyzeConfig, PatternKind, TraceReader};

    #[test]
    fn same_seed_same_bytes_and_bytes_per_record_repeats_exactly() {
        let (a, plant_a) = fleet(7, 2, 30_000, 20);
        let (b, plant_b) = fleet(7, 2, 30_000, 20);
        assert_eq!(plant_a, plant_b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.units, y.units);
            assert_eq!(
                x.chunk_bytes as f64 / x.records as f64,
                y.chunk_bytes as f64 / y.records as f64
            );
        }
        let (c, _) = fleet(8, 2, 30_000, 20);
        assert_ne!(a[0].units, c[0].units, "another seed, another stream");
    }

    #[test]
    fn streams_are_readable_traces_with_the_declared_record_count() {
        let (streams, _) = fleet(11, 2, 20_000, 50);
        for s in &streams {
            let reader = TraceReader::from_bytes(s.file_bytes()).unwrap();
            assert_eq!(reader.record_count(), s.records);
            let records = reader.records().unwrap();
            assert_eq!(records.len() as u64, s.records);
            assert!(records.windows(2).all(|w| w[0].key() < w[1].key()));
            assert!(s.records >= 20_000);
            assert_eq!(
                s.units.len() as u64,
                s.records.div_ceil(CHUNK_RECORDS as u64) + s.displaced_chunks + 2
            );
        }
        assert_eq!(streams[0].displaced_chunks, 0, "only rank 1 is skewed");
        // 50 per thousand of 20 000 records: three late pieces of 256.
        assert_eq!(streams[1].displaced_chunks, 3);
    }

    #[test]
    fn analyzer_finds_exactly_the_plant() {
        for seed in [1u64, 2, 3] {
            let (streams, plant) = fleet(seed, 3, 40_000, 0);
            assert!(
                plant.convoys + plant.serialized > 0,
                "seed {seed} plants something"
            );
            let readers: Vec<TraceReader> = streams
                .iter()
                .map(|s| TraceReader::from_bytes(s.file_bytes()).unwrap())
                .collect();
            let merged = merge_ranks(&readers).unwrap();
            let report = analyze(&merged, &AnalyzeConfig::default());
            let count = |k| report.of_kind(k).count();
            assert_eq!(
                count(PatternKind::BarrierConvoy),
                plant.convoys,
                "seed {seed}"
            );
            assert_eq!(
                count(PatternKind::SerializedSpawn),
                plant.serialized,
                "seed {seed}"
            );
            assert_eq!(
                count(PatternKind::Starvation),
                plant.starvations,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rng_ranges_stay_in_bounds() {
        let mut rng = Rng::new(0);
        for _ in 0..10_000 {
            let v = rng.range(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert!(!Rng::new(1).chance(0, 10));
        assert!(Rng::new(1).chance(10, 10));
    }
}
