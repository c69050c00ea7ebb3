//! The offline pipeline — open, decode, merge, analyze, query — and the
//! `offline-merge` workload that times it on seeded rank traces.
//!
//! The same pass is what every trace-producing workload verifies its own
//! output with.

use std::time::Instant;

use ora_fleet::{loopback, Daemon, DaemonConfig, FleetStore, SocketSink};
use ora_trace::analyze::{analyze, decode_timeline, timeline_bytes};
use ora_trace::{
    merge_ranks, AnalysisReport, AnalyzeConfig, PatternKind, RankedEvent, TraceEvent, TraceReader,
    TraceSink,
};

use crate::gen::{self, Plant, RankStream, Rng};
use crate::metrics::Report;
use crate::rt;
use crate::spans;
use crate::stats;
use crate::Opts;

/// Ranks in the `offline-merge` fleet.
pub const RANKS: usize = 4;
/// Records per rank: one pass over all four ranks is about 150 ms on the
/// reference host.
pub const RECORDS_PER_RANK: u64 = 60_000;
/// Seconds one `offline-merge` round takes on the reference host.
pub const ROUND_SECONDS: f64 = 0.3;
/// Store queries per pass, of each of the three kinds.
pub const QUERIES: usize = 24;

/// One pass of the offline pipeline over a set of rank trace files.
pub struct Pass {
    pub open_s: f64,
    pub merge_s: f64,
    pub analyze_s: f64,
    /// Per-rank decoded records (`TraceReader::records`).
    pub per_rank: Vec<Vec<TraceEvent>>,
    pub merged: Vec<RankedEvent>,
    pub analysis: AnalysisReport,
}

impl Pass {
    pub fn records(&self) -> u64 {
        self.merged.len() as u64
    }

    pub fn total_s(&self) -> f64 {
        self.open_s + self.merge_s + self.analyze_s
    }
}

/// Open and fully decode every file, merge the ranks, analyze the merged
/// timeline. `files` are consumed because `TraceReader` owns its bytes;
/// callers clone outside the timing.
pub fn pass(files: Vec<Vec<u8>>) -> Result<Pass, String> {
    let t = Instant::now();
    let (readers, per_rank) = {
        let _span = spans::enter("trace.reader.open");
        let mut readers = Vec::with_capacity(files.len());
        let mut per_rank = Vec::with_capacity(files.len());
        for bytes in files {
            let reader = TraceReader::from_bytes(bytes).map_err(|e| format!("open: {e}"))?;
            per_rank.push(reader.records().map_err(|e| format!("decode: {e}"))?);
            readers.push(reader);
        }
        (readers, per_rank)
    };
    let open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let merged = {
        let _span = spans::enter("trace.reader.merge");
        merge_ranks(&readers).map_err(|e| format!("merge: {e}"))?
    };
    let merge_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let analysis = {
        let _span = spans::enter("trace.analyze");
        analyze(&merged, &AnalyzeConfig::default())
    };
    let analyze_s = t.elapsed().as_secs_f64();
    Ok(Pass {
        open_s,
        merge_s,
        analyze_s,
        per_rank,
        merged,
        analysis,
    })
}

/// Replay rank streams into an in-process daemon over `loopback()`
/// connections, one thread per rank, and return its report. Used where a
/// `FleetStore` is needed but the fleet path is not what is measured
/// (the store has no public constructor that takes records).
pub fn store_via_loopback(streams: &[RankStream]) -> Result<ora_fleet::FleetReport, String> {
    let mut daemon = Daemon::new(DaemonConfig::default());
    std::thread::scope(|scope| -> Result<(), String> {
        let mut senders = Vec::new();
        for (rank, stream) in streams.iter().enumerate() {
            let (producer, consumer) = loopback().map_err(|e| format!("loopback: {e}"))?;
            daemon.spawn_conn(consumer);
            senders.push(scope.spawn(move || -> Result<(), String> {
                let mut sink = SocketSink::start(producer, rank as u64, 1_000_000_000, 8)
                    .map_err(|e| format!("hello: {e}"))?;
                for unit in &stream.units {
                    sink.write_all(unit).map_err(|e| format!("write: {e}"))?;
                }
                sink.finish(stream.records, stream.records, 0)
                    .map_err(|e| format!("fin: {e}"))?;
                Ok(())
            }));
        }
        for s in senders {
            s.join().map_err(|_| "sender panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(daemon.finish())
}

/// Time the three store queries with seeded parameters; returns
/// `(hits, seconds)` and checks each answer against a filter over the
/// merged timeline.
fn store_queries(
    store: &FleetStore,
    merged: &[RankedEvent],
    rng: &mut Rng,
    report: &mut Report,
) -> (u64, f64) {
    let (lo_tick, hi_tick) = match (merged.first(), merged.last()) {
        (Some(a), Some(b)) => (a.record.tick, b.record.tick),
        _ => return (0, 0.0),
    };
    let max_region = merged.iter().map(|e| e.record.region_id).max().unwrap_or(1);
    let mut hits = 0u64;
    let mut secs = 0.0;
    for q in 0..QUERIES {
        let a = rng.range(lo_tick, hi_tick);
        let b = (a + (hi_tick - lo_tick) / 64).min(hi_tick);
        let rank = q % RANKS;
        let region = rng.range(1, max_region);
        let t = Instant::now();
        let (by_time, by_rank, by_region) = {
            let _span = spans::enter("fleet.store.query");
            (
                store.time_range(a, b),
                store.for_rank(rank),
                store.for_region(region),
            )
        };
        secs += t.elapsed().as_secs_f64();
        hits += (by_time.len() + by_rank.len() + by_region.len()) as u64;
        let want_time = merged
            .iter()
            .filter(|e| (a..=b).contains(&e.record.tick))
            .count();
        let want_rank = merged.iter().filter(|e| e.rank == rank).count();
        let want_region = merged
            .iter()
            .filter(|e| e.record.region_id == region)
            .count();
        report.expect(
            by_time.len() == want_time
                && by_rank.len() == want_rank
                && by_region.len() == want_region,
            || format!("store query {q} disagrees with a filter over the merged timeline"),
        );
    }
    (hits, secs)
}

/// Check an analysis against the planted findings.
pub fn check_plant(analysis: &AnalysisReport, plant: &Plant, report: &mut Report) {
    for (kind, want) in [
        (PatternKind::BarrierConvoy, plant.convoys),
        (PatternKind::SerializedSpawn, plant.serialized),
        (PatternKind::Starvation, plant.starvations),
    ] {
        let got = analysis.of_kind(kind).count();
        report.expect(got == want, || {
            format!(
                "analyzer found {got} {} finding(s), planted {want}",
                kind.name()
            )
        });
    }
}

/// What set-up builds for `offline-merge`.
struct Setup {
    files: Vec<Vec<u8>>,
    plant: Plant,
    store: FleetStore,
    records: u64,
    chunk_bytes: u64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let _span = spans::enter("setup");
    let (streams, plant) = gen::fleet(seed, RANKS, RECORDS_PER_RANK, 0);
    let files: Vec<Vec<u8>> = streams.iter().map(RankStream::file_bytes).collect();
    let fleet = store_via_loopback(&streams)?;
    // Warm-up: one untimed pass.
    pass(files.clone())?;
    Ok(Setup {
        files,
        plant,
        records: streams.iter().map(|s| s.records).sum(),
        chunk_bytes: streams.iter().map(|s| s.chunk_bytes).sum(),
        store: fleet.store,
    })
}

/// The `offline-merge` workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(opts.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = built.expect("set up at least once");
    report.set("setup_s", stats::median(&setups));
    report.set(
        "trace_bytes_per_event",
        s.chunk_bytes as f64 / s.records as f64,
    );
    report.set(
        "trace.format.bytes_per_record",
        s.chunk_bytes as f64 / s.records as f64,
    );

    // Each round: the file pass, then export → decode → store queries on
    // the merged timeline. `offline_records_per_s` counts the records
    // once per round over the whole round.
    let mut rng = Rng::new(opts.seed ^ 0x000F_F11E);
    let (mut rates, mut export, mut query) = (vec![], vec![], vec![]);
    let (mut open, mut merge, mut analyze) = (vec![], vec![], vec![]);
    let mut totals = Vec::new();
    for round in 0..rt::rounds_for_run(opts, ROUND_SECONDS) {
        spans::enable_for_round(opts.traced, round);
        let _round = spans::enter("round");
        let p = pass(s.files.clone())?;
        let n = p.records() as f64;
        let t = Instant::now();
        let decoded = {
            let _span = spans::enter("fleet.store.export");
            let bytes = timeline_bytes(&p.merged);
            decode_timeline(&bytes).map_err(|e| format!("decode timeline: {e}"))?
        };
        let codec_s = t.elapsed().as_secs_f64();
        let (hits, query_s) = store_queries(&s.store, &p.merged, &mut rng, &mut report);
        let round_s = p.total_s() + codec_s + query_s;
        totals.push(round_s);
        rates.push(n / round_s);
        open.push(p.open_s * 1e9 / n);
        merge.push(p.merge_s * 1e9 / n);
        analyze.push(p.analyze_s * 1e9 / n);
        export.push(codec_s * 1e9 / n);
        query.push(query_s * 1e9 / hits.max(1) as f64);

        report.check(s.records, s.records.abs_diff(p.records()), || {
            format!(
                "merged {} of {} generated record(s)",
                p.records(),
                s.records
            )
        });
        report.expect(decoded == p.merged, || {
            "timeline codec does not round-trip".into()
        });
        report.expect(s.store.records() == p.merged.as_slice(), || {
            "store built online differs from the offline merge".into()
        });
        check_plant(&p.analysis, &s.plant, &mut report);
    }
    spans::set_enabled(opts.traced);
    if opts.traced {
        report.set("bench.trace_overhead_frac", spans::overhead_frac(&totals));
    }
    let r = stats::summarize(&rates);
    eprintln!(
        "  offline_records_per_s {:.0} [{:.0}, {:.0}] n={}",
        r.median, r.q1, r.q3, r.n
    );
    report.set("offline_records_per_s", r.median);
    for (name, per_record) in [
        ("trace.reader.open_ns_per_record", &open),
        ("trace.reader.merge_ns_per_record", &merge),
        ("trace.analyze.ns_per_record", &analyze),
        ("fleet.store.export_ns_per_record", &export),
        ("fleet.store.query_ns_per_hit", &query),
    ] {
        report.set(name, stats::median(per_record));
    }
    report.set("peak_rss_mib", crate::peak_rss_mib()?);
    Ok(report)
}
