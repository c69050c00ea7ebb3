//! Offline timeline analysis: the one begin/end pairing, the
//! region/wait summary, and the detrimental-pattern detectors.
//!
//! [`pair_intervals`] is the only place in the workspace that decides
//! how a begin event finds its end; everything that reads intervals off
//! a timeline — [`summarize`], [`analyze`], the fuzzer's pairing check —
//! consumes it. [`analyze`] replays a recorded trace and reports the
//! task-parallel performance pathologies catalogued for OpenMP tasking
//! (arXiv 2406.03077):
//!
//! * **Starvation** — a thread sits in a task wait executing nothing
//!   while a substantial number of tasks run elsewhere in the team.
//!   With tied tasks this is structural (the work is pinned to another
//!   thread); the signature is a `TaskWaitBegin`/`TaskWaitEnd` interval
//!   containing zero of the waiter's `TaskBegin` events but many of the
//!   team's.
//! * **Serialized spawn** — one thread both produces and consumes
//!   nearly all tasks of a region while teammates are parked in task
//!   waits: the fan-out the construct promises never happens.
//! * **Barrier convoy** — the same thread arrives last at barrier after
//!   barrier, so the whole team repeatedly pays that thread's imbalance
//!   as wait time.
//!
//! The analyzer consumes the rank-attributed timeline shape shared by
//! every trace source in this workspace: a single-rank
//! [`TraceReader`](crate::TraceReader) (rank 0), the offline
//! [`merge_ranks`](crate::reader::merge_ranks) output, or a fleet
//! aggregator timeline export
//! ([`decode_timeline`]). All evidence is reported as tick ranges in
//! the source trace's clock domain, so findings can be drilled into
//! with the existing `trace report --from-us/--to-us` queries.
//!
//! **Fleet timeline export (v2).** A merged timeline is exported as a
//! magic, a record count and a stream of **segments** of
//! [`TIMELINE_SEGMENT`] records (the last may hold fewer), in
//! `(tick, gtid, seq, rank)` order, every integer a LEB128 varint and
//! every signed delta zigzag-mapped first:
//!
//! ```text
//! timeline := magic "ORAFL2" (6 bytes)
//!           | varint count           — records in the timeline
//!           | segment*               — ⌈count / 1024⌉ of them
//! segment  := record × min(1024, records left)
//! record   := zigzag Δtick | varint gtid | zigzag Δseq | varint rank
//!           | varint event | zigzag Δregion_id | varint wait_id
//! ```
//!
//! `tick`, `seq` and `region_id` are stored as wrapping deltas against
//! the previous record *of the same segment*; a segment's first record
//! takes its deltas against zero, so every segment decodes on its own
//! and a timeline's bytes are its segments' bytes back to back. Ticks
//! and sequence numbers climb within a segment, so the common delta
//! fits one byte; regions repeat, so the common region delta is 0.
//! [`encode_segments`] is the one segment encoder: [`timeline_bytes`]
//! and the fleet store, which keeps its settled records as these
//! segments, both call it, and [`decode_segments`] is the one decoder.
//! A v1 export (magic `ORAFLT`, plain varints, no segments) is refused
//! with [`TraceError::BadVersion`]`(1)`.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hasher};

use ora_core::bytes::Cursor;
use ora_core::event::{Event, EVENT_COUNT};

use crate::format::{put_varint, unzigzag, write_varint, zigzag, MAX_VARINT_BYTES};
use crate::reader::{RankedEvent, TraceEvent};
use crate::TraceError;

/// Magic starting every exported fleet timeline, version 2 (`ora-fleet`
/// encodes through this module's [`encode_segments`]; the codec lives
/// here so the trace crate can decode exports without a dependency
/// cycle).
pub const TIMELINE_MAGIC: &[u8; 6] = b"ORAFL2";

/// Magic of a version-1 export, which [`decode_timeline`] refuses.
const TIMELINE_MAGIC_V1: &[u8; 6] = b"ORAFLT";

/// Records in each segment of a timeline export (the last may hold
/// fewer).
pub const TIMELINE_SEGMENT: usize = 1024;

/// Fewest bytes one timeline record takes: seven one-byte varints.
pub const MIN_TIMELINE_RECORD_BYTES: usize = 7;

/// Most bytes one timeline record takes: seven varints of a `u64`.
pub const MAX_TIMELINE_RECORD_BYTES: usize = 7 * MAX_VARINT_BYTES;

/// Detection thresholds. The defaults are deliberately conservative:
/// each pattern needs both a minimum amount of evidence (tasks,
/// episodes) and a minimum *severity* (fraction of the region's span or
/// of the team's time) before it is reported, so balanced traces stay
/// clean.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeConfig {
    /// Minimum tasks that must run elsewhere during a wait (starvation)
    /// or in a region (serialized spawn) before either detector fires.
    pub min_tasks: u64,
    /// Minimum fraction of the region's task-active span a zero-task
    /// wait must cover to count as starvation.
    pub starvation_frac: f64,
    /// Minimum fraction of a region's task executions on one thread to
    /// count as serialized spawn.
    pub dominance_frac: f64,
    /// Minimum barrier episodes in a region before the convoy detector
    /// considers it.
    pub convoy_min_episodes: usize,
    /// Minimum fraction of those episodes with the *same* last-arriving
    /// thread.
    pub convoy_frac: f64,
    /// Minimum fraction of the convoy episodes' combined span the other
    /// threads spend waiting on the laggard.
    pub convoy_waste_frac: f64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            min_tasks: 16,
            starvation_frac: 0.25,
            dominance_frac: 0.8,
            convoy_min_episodes: 8,
            convoy_frac: 0.8,
            convoy_waste_frac: 0.25,
        }
    }
}

/// Which detrimental pattern a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// A thread waited through `tick_lo..tick_hi` executing nothing
    /// while the team ran tasks.
    Starvation,
    /// One thread executed nearly all of a region's tasks.
    SerializedSpawn,
    /// The same thread arrived last at most of a region's barriers.
    BarrierConvoy,
}

impl PatternKind {
    /// Stable lowercase name for rendering and filtering.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Starvation => "starvation",
            PatternKind::SerializedSpawn => "serialized-spawn",
            PatternKind::BarrierConvoy => "barrier-convoy",
        }
    }
}

/// One detected pattern instance with its tick-ranged evidence.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pattern.
    pub kind: PatternKind,
    /// Rank the evidence came from (0 for single-rank traces).
    pub rank: usize,
    /// Parallel region the pattern occurred in.
    pub region_id: u64,
    /// The implicated thread: the starved waiter, the serializing
    /// spawner, or the convoy laggard.
    pub gtid: usize,
    /// First tick of the evidence window.
    pub tick_lo: u64,
    /// Last tick of the evidence window.
    pub tick_hi: u64,
    /// Human-readable explanation with the detector's numbers.
    pub detail: String,
}

/// The analysis result: findings plus scan accounting.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Detected patterns, ordered by (rank, region, first tick).
    pub findings: Vec<Finding>,
    /// Parallel regions that had analyzable activity.
    pub regions_scanned: usize,
    /// Events consumed.
    pub events_scanned: u64,
}

impl AnalysisReport {
    /// Findings of one kind.
    pub fn of_kind(&self, kind: PatternKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }

    /// Render the report as the CLI prints it.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "detrimental-pattern analysis: {} finding(s) over {} region(s), {} event(s)",
            self.findings.len(),
            self.regions_scanned,
            self.events_scanned
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{:<16}] rank {} region {} thread {}: ticks {}..{} — {}",
                f.kind.name(),
                f.rank,
                f.region_id,
                f.gtid,
                f.tick_lo,
                f.tick_hi,
                f.detail
            );
        }
        if self.findings.is_empty() {
            let _ = writeln!(out, "  clean: no detrimental patterns detected");
        }
        out
    }
}

/// One begin event matched with its end by [`pair_intervals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Rank both halves were recorded on.
    pub rank: usize,
    /// Thread that fired the begin.
    pub gtid: usize,
    /// The begin event (`Fork`, `TaskBegin`, `ThreadBeginLockWait`, …).
    pub begin: Event,
    /// Region the begin record carried.
    pub region_id: u64,
    /// Wait ID shared by both halves (0 for `Fork`).
    pub wait_id: u64,
    /// Begin tick.
    pub start: u64,
    /// End tick, never before `start`.
    pub end: u64,
}

impl Interval {
    /// Interval length in ticks.
    pub fn ticks(&self) -> u64 {
        self.end - self.start
    }
}

/// The halves [`pair_intervals`] could not match, indexed by the *begin*
/// event's [`Event::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Unpaired {
    /// Begins still open when the timeline ended.
    pub begins: [u64; EVENT_COUNT],
    /// Ends that arrived with no open begin under their key.
    pub ends: [u64; EVENT_COUNT],
}

impl Unpaired {
    /// Unmatched halves of the pair opened by `begin`, both kinds.
    pub fn of(&self, begin: Event) -> u64 {
        self.begins[begin.index()] + self.ends[begin.index()]
    }
}

/// The analyzer's per-record maps hash with one folded multiply per
/// word — a 64×64→128-bit product whose halves are xored, so high key
/// bits reach the low bits that pick a bucket — instead of SipHash-1-3.
/// Each map is keyed from a fresh [`RandomState`], so a crafted trace
/// cannot choose its collisions.
#[derive(Clone, Copy)]
struct FoldState {
    seed: u64,
    multiplier: u64,
}

impl FoldState {
    fn new() -> FoldState {
        let random = RandomState::new();
        FoldState {
            seed: random.hash_one(0u64),
            multiplier: random.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// The hasher a [`FoldState`] builds.
struct FoldHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// What a begin and its end agree on: `(rank, gtid, begin event, region,
/// wait id)` — `(rank, 0, Fork, region, 0)` for a region, and region 0
/// for an idle period.
type PairKey = (usize, usize, Event, u64, u64);

/// A begin waiting for its end.
struct Open {
    start: u64,
    gtid: usize,
    region_id: u64,
}

impl Open {
    fn at(r: &TraceEvent) -> Open {
        Open {
            start: r.tick,
            gtid: r.gtid,
            region_id: r.region_id,
        }
    }
}

/// Match every begin event in `events` with its end and hand each
/// completed [`Interval`] to `visit`, in end order.
///
/// `Fork`/`Join` pair per `(rank, region)` — the join may fire on
/// another thread than the fork did. Every other pair is keyed by
/// `(rank, gtid, begin event, region, wait id)`. One thread's begins and
/// ends nest, so gtid and wait ID alone would pair a trace of this
/// runtime; the region keeps apart the threads of traces recorded while
/// a worker leased to a nested team fired under its member ID, sharing
/// gtid and wait ID with the outer thread of that ID. Idle periods leave
/// the region out, because
/// `ThreadBeginIdle` carries region 0 and `ThreadEndIdle` the team's.
/// Begins under one key stack, and an end closes the innermost: a
/// serialized nested region keeps the outer region's ID, so its master
/// reuses the outer master's key, and both intervals must close.
pub fn pair_intervals(
    events: impl IntoIterator<Item = RankedEvent>,
    mut visit: impl FnMut(Interval),
) -> Unpaired {
    // Open begins per key: the innermost, then the ones it nests in
    // (outermost first). Nesting under one key is rare, so the common
    // begin/end costs one map operation and no allocation.
    let mut open: HashMap<PairKey, (Open, Vec<Open>), FoldState> =
        HashMap::with_hasher(FoldState::new());
    let mut unpaired = Unpaired::default();
    for RankedEvent { rank, record: r } in events {
        let begin = if r.event.is_begin() {
            r.event
        } else {
            r.event.pair().expect("every event is half of a pair")
        };
        let key = match begin {
            Event::Fork => (rank, 0, begin, r.region_id, 0),
            Event::ThreadBeginIdle => (rank, r.gtid, begin, 0, r.wait_id),
            _ => (rank, r.gtid, begin, r.region_id, r.wait_id),
        };
        match open.entry(key) {
            Entry::Vacant(slot) if r.event == begin => {
                slot.insert((Open::at(&r), Vec::new()));
            }
            Entry::Occupied(mut slot) if r.event == begin => {
                let (innermost, outer) = slot.get_mut();
                outer.push(std::mem::replace(innermost, Open::at(&r)));
            }
            Entry::Vacant(_) => unpaired.ends[begin.index()] += 1,
            Entry::Occupied(mut slot) => {
                let o = match slot.get_mut().1.pop() {
                    Some(outer) => std::mem::replace(&mut slot.get_mut().0, outer),
                    None => slot.remove().0,
                };
                visit(Interval {
                    rank,
                    gtid: o.gtid,
                    begin,
                    region_id: o.region_id,
                    wait_id: r.wait_id,
                    start: o.start,
                    end: r.tick.max(o.start),
                });
            }
        }
    }
    for ((_, _, begin, _, _), (_, outer)) in open {
        unpaired.begins[begin.index()] += 1 + outer.len() as u64;
    }
    unpaired
}

/// The region/wait/concurrency view of a timeline — what a Vampir-style
/// tool would plot. All quantities are in the source trace's ticks.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Every completed fork→join interval, in join order.
    pub regions: Vec<Interval>,
    /// Every other completed begin→end interval, in end order.
    pub waits: Vec<Interval>,
    /// Records summarized.
    pub events: u64,
    /// Ticks from the earliest record to the latest.
    pub span_ticks: u64,
    /// Halves that found no partner.
    pub unpaired: Unpaired,
}

/// Summarize a timeline (sorted or not).
pub fn summarize(events: impl IntoIterator<Item = RankedEvent>) -> Summary {
    let (mut count, mut lo, mut hi) = (0, u64::MAX, 0);
    let events = events.into_iter().inspect(|e| {
        count += 1;
        lo = lo.min(e.record.tick);
        hi = hi.max(e.record.tick);
    });
    let (mut regions, mut waits) = (Vec::new(), Vec::new());
    let unpaired = pair_intervals(events, |iv| match iv.begin {
        Event::Fork => regions.push(iv),
        _ => waits.push(iv),
    });
    Summary {
        regions,
        waits,
        events: count,
        span_ticks: hi.saturating_sub(lo),
        unpaired,
    }
}

impl Summary {
    /// Total ticks inside parallel regions.
    pub fn total_region_ticks(&self) -> u64 {
        self.regions.iter().map(Interval::ticks).sum()
    }

    /// The completed intervals opened by `begin`.
    pub fn waits_of(&self, begin: Event) -> impl Iterator<Item = &Interval> {
        self.waits.iter().filter(move |w| w.begin == begin)
    }

    /// The maximum number of parallel regions in flight at once (1 for a
    /// single runtime; >1 indicates nested or multi-rank timelines).
    pub fn peak_region_concurrency(&self) -> usize {
        let mut edges: Vec<(u64, i32)> = Vec::with_capacity(self.regions.len() * 2);
        for r in &self.regions {
            edges.push((r.start, 1));
            edges.push((r.end, -1));
        }
        edges.sort_unstable();
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in edges {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }
}

/// A closed `[begin, end]` tick span attributed to a thread — the
/// detectors' compact form of an [`Interval`].
#[derive(Debug, Clone, Copy)]
struct Span {
    gtid: usize,
    begin: u64,
    end: u64,
}

/// Everything the detectors need about one `(rank, region)`.
#[derive(Debug, Default)]
struct RegionActivity {
    /// Completed task executions: thread + begin/end ticks.
    task_execs: Vec<Span>,
    /// Completed task-wait intervals per thread.
    task_waits: Vec<Span>,
    /// Completed barrier-wait intervals, tagged implicit/explicit.
    /// Episode grouping happens later by tick overlap (see
    /// [`cluster_episodes`]) — the records' wait IDs pair a thread's
    /// own begin/end but are per-thread counters, so nested parallel
    /// regions push them out of lockstep across the team.
    barrier_intervals: Vec<(bool, Span)>,
    /// Threads that fired any event in the region.
    threads: BTreeSet<usize>,
}

/// Analyze a rank-attributed event timeline. The input need not be
/// sorted; each record is bucketed by `(rank, region)` and the
/// detectors order evidence internally.
pub fn analyze(events: &[RankedEvent], cfg: &AnalyzeConfig) -> AnalysisReport {
    // Each `(rank, region)` indexes its activity through a hashed map;
    // a record whose `(rank, region, gtid)` matches one of the last two
    // distinct triples seen has nothing new to add, which is most of
    // them (a team's members interleave). Region 0 is skipped before the
    // comparison, so the initial triples match nothing.
    let mut index: HashMap<(usize, u64), usize, FoldState> = HashMap::with_hasher(FoldState::new());
    let mut regions: Vec<((usize, u64), RegionActivity)> = Vec::new();
    let mut recent = [(usize::MAX, 0, 0); 2];
    for e in events {
        let triple = (e.rank, e.record.region_id, e.record.gtid);
        if triple.1 == 0 || recent.contains(&triple) {
            continue;
        }
        recent = [triple, recent[0]];
        let key = (e.rank, e.record.region_id);
        let slot = *index.entry(key).or_insert_with(|| {
            regions.push((key, RegionActivity::default()));
            regions.len() - 1
        });
        regions[slot].1.threads.insert(e.record.gtid);
    }
    // The detectors keep only the interval kinds they read, compactly.
    // Intervals of one region tend to close in a row, so the last
    // lookup is cached.
    let mut last: Option<((usize, u64), usize)> = None;
    pair_intervals(events.iter().copied(), |iv| {
        let key = (iv.rank, iv.region_id);
        let slot = match last {
            Some((cached, slot)) if cached == key => slot,
            _ => {
                let Some(&slot) = index.get(&key) else {
                    return;
                };
                last = Some((key, slot));
                slot
            }
        };
        let act = &mut regions[slot].1;
        let span = Span {
            gtid: iv.gtid,
            begin: iv.start,
            end: iv.end,
        };
        match iv.begin {
            Event::TaskBegin => act.task_execs.push(span),
            Event::TaskWaitBegin => act.task_waits.push(span),
            Event::ThreadBeginImplicitBarrier => act.barrier_intervals.push((true, span)),
            Event::ThreadBeginExplicitBarrier => act.barrier_intervals.push((false, span)),
            _ => {}
        }
    });

    let mut report = AnalysisReport {
        events_scanned: events.len() as u64,
        regions_scanned: regions.len(),
        ..AnalysisReport::default()
    };
    // Regions in key order: findings that tie on the sort below keep it.
    regions.sort_unstable_by_key(|&(key, _)| key);
    for ((rank, region_id), act) in &mut regions {
        detect_starvation(*rank, *region_id, act, cfg, &mut report.findings);
        detect_serialized_spawn(*rank, *region_id, act, cfg, &mut report.findings);
        detect_barrier_convoy(*rank, *region_id, act, cfg, &mut report.findings);
    }
    report
        .findings
        .sort_by_key(|f| (f.rank, f.region_id, f.tick_lo, f.gtid));
    report
}

/// The task-active span of a region: first task begin to last task end.
fn task_span(act: &RegionActivity) -> Option<(u64, u64)> {
    let lo = act.task_execs.iter().map(|t| t.begin).min()?;
    let hi = act.task_execs.iter().map(|t| t.end).max()?;
    Some((lo, hi))
}

/// Flag each task wait that ran none of its own thread's tasks while
/// enough ran elsewhere. Sorts the region's task executions by thread
/// and begin, in place: a wait's counts are then two binary searches in
/// each thread's stretch.
fn detect_starvation(
    rank: usize,
    region_id: u64,
    act: &mut RegionActivity,
    cfg: &AnalyzeConfig,
    out: &mut Vec<Finding>,
) {
    let Some((span_lo, span_hi)) = task_span(act) else {
        return;
    };
    let span = span_hi.saturating_sub(span_lo);
    if span == 0 {
        return;
    }
    act.task_execs.sort_unstable_by_key(|t| (t.gtid, t.begin));
    let threads: Vec<&[Span]> = act.task_execs.chunk_by(|a, b| a.gtid == b.gtid).collect();
    for w in &act.task_waits {
        let (mut own, mut elsewhere) = (0, 0u64);
        for stretch in &threads {
            let begun = stretch.partition_point(|t| t.begin <= w.end)
                - stretch.partition_point(|t| t.begin < w.begin);
            if stretch[0].gtid == w.gtid {
                own = begun;
            } else {
                elsewhere += begun as u64;
            }
        }
        if own > 0 {
            continue;
        }
        let window = w.end.saturating_sub(w.begin);
        if elsewhere >= cfg.min_tasks && window as f64 >= cfg.starvation_frac * span as f64 {
            out.push(Finding {
                kind: PatternKind::Starvation,
                rank,
                region_id,
                gtid: w.gtid,
                tick_lo: w.begin,
                tick_hi: w.end,
                detail: format!(
                    "0 tasks executed in a task wait spanning {:.0}% of the region's \
                     task-active window while {elsewhere} task(s) ran elsewhere",
                    100.0 * window as f64 / span as f64
                ),
            });
        }
    }
}

fn detect_serialized_spawn(
    rank: usize,
    region_id: u64,
    act: &RegionActivity,
    cfg: &AnalyzeConfig,
    out: &mut Vec<Finding>,
) {
    let total = act.task_execs.len() as u64;
    if total < cfg.min_tasks || act.threads.len() < 2 {
        return;
    }
    let mut by_thread: BTreeMap<usize, u64> = BTreeMap::new();
    for t in &act.task_execs {
        *by_thread.entry(t.gtid).or_insert(0) += 1;
    }
    let (&dominant, &count) = by_thread
        .iter()
        .max_by_key(|(gtid, n)| (**n, std::cmp::Reverse(**gtid)))
        .expect("total >= min_tasks implies task_execs is non-empty");
    let share = count as f64 / total as f64;
    if share < cfg.dominance_frac {
        return;
    }
    // The pattern needs an idle audience: some other thread must have
    // been in a task wait (available, not off doing worksharing) while
    // the dominant thread churned. Otherwise a legitimately solo task
    // phase would be flagged.
    let audience = act.task_waits.iter().any(|w| w.gtid != dominant);
    if !audience {
        return;
    }
    let (lo, hi) = task_span(act).expect("task_execs is non-empty");
    out.push(Finding {
        kind: PatternKind::SerializedSpawn,
        rank,
        region_id,
        gtid: dominant,
        tick_lo: lo,
        tick_hi: hi,
        detail: format!(
            "thread executed {count} of {total} task(s) ({:.0}%) while teammates \
             waited — the task fan-out serialized on its spawner",
            share * 100.0
        ),
    });
}

/// Group one class of completed barrier intervals into episodes by
/// mutual tick overlap. A barrier serializes its team — every member
/// of an episode is inside the barrier at the release point, and the
/// next episode cannot begin before the previous one released — so
/// overlapping intervals with distinct threads are one episode.
/// Clustering by overlap rather than by the records' wait IDs keeps
/// the grouping correct under nested parallelism: a thread that forks
/// an inner team advances its per-thread barrier counter inside the
/// inner region, so its raw wait IDs fall out of lockstep with its
/// outer teammates and would scatter one real episode across several
/// phantom ones (misattributing the convoy to an innocent thread).
fn cluster_episodes(mut intervals: Vec<Span>) -> Vec<Vec<Span>> {
    intervals.sort_by_key(|iv| (iv.begin, iv.end, iv.gtid));
    let mut episodes: Vec<Vec<Span>> = Vec::new();
    let mut current: Vec<Span> = Vec::new();
    let mut min_end = 0u64;
    for iv in intervals {
        let joins = !current.is_empty()
            && iv.begin <= min_end
            && !current.iter().any(|c| c.gtid == iv.gtid);
        if joins {
            min_end = min_end.min(iv.end);
        } else {
            if !current.is_empty() {
                episodes.push(std::mem::take(&mut current));
            }
            min_end = iv.end;
        }
        current.push(iv);
    }
    if !current.is_empty() {
        episodes.push(current);
    }
    episodes
}

fn detect_barrier_convoy(
    rank: usize,
    region_id: u64,
    act: &RegionActivity,
    cfg: &AnalyzeConfig,
    out: &mut Vec<Finding>,
) {
    let mut clustered: Vec<Vec<Span>> = Vec::new();
    for implicit in [false, true] {
        let class: Vec<Span> = act
            .barrier_intervals
            .iter()
            .filter(|(imp, _)| *imp == implicit)
            .map(|(_, iv)| *iv)
            .collect();
        clustered.extend(cluster_episodes(class));
    }
    // Only full-team episodes count as convoy evidence. Partial
    // clusters are the residue of nesting — a serialized inner
    // region's solo barriers carry the outer region's ID, and an
    // episode can split around a member's inner-team excursion — and
    // must not be charged to this region's barrier discipline.
    let team = act.threads.len();
    let episodes: Vec<&Vec<Span>> = clustered
        .iter()
        .filter(|arrivals| arrivals.len() >= 2 && arrivals.len() == team)
        .collect();
    if episodes.len() < cfg.convoy_min_episodes {
        return;
    }
    // Per episode: who arrived last, and how long the rest spent
    // waiting for that arrival.
    let mut laggard_counts: BTreeMap<usize, usize> = BTreeMap::new();
    let mut waste_by_laggard: BTreeMap<usize, u64> = BTreeMap::new();
    let mut span_total = 0u64;
    for arrivals in &episodes {
        let last = arrivals
            .iter()
            .max_by_key(|a| (a.begin, a.gtid))
            .expect("episode has arrivals");
        *laggard_counts.entry(last.gtid).or_insert(0) += 1;
        let waste: u64 = arrivals
            .iter()
            .filter(|a| a.gtid != last.gtid)
            .map(|a| last.begin.saturating_sub(a.begin))
            .sum();
        *waste_by_laggard.entry(last.gtid).or_insert(0) += waste;
        let lo = arrivals.iter().map(|a| a.begin).min().expect("non-empty");
        let hi = arrivals.iter().map(|a| a.end).max().expect("non-empty");
        span_total += (hi - lo) * (arrivals.len() as u64 - 1);
    }
    let (&laggard, &led) = laggard_counts
        .iter()
        .max_by_key(|(gtid, n)| (**n, std::cmp::Reverse(**gtid)))
        .expect("episodes is non-empty");
    let led_frac = led as f64 / episodes.len() as f64;
    if led_frac < cfg.convoy_frac || span_total == 0 {
        return;
    }
    let waste_frac = waste_by_laggard[&laggard] as f64 / span_total as f64;
    if waste_frac < cfg.convoy_waste_frac {
        return;
    }
    let lo = episodes
        .iter()
        .flat_map(|a| a.iter().map(|i| i.begin))
        .min()
        .expect("non-empty");
    let hi = episodes
        .iter()
        .flat_map(|a| a.iter().map(|i| i.end))
        .max()
        .expect("non-empty");
    out.push(Finding {
        kind: PatternKind::BarrierConvoy,
        rank,
        region_id,
        gtid: laggard,
        tick_lo: lo,
        tick_hi: hi,
        detail: format!(
            "thread arrived last at {led} of {} barrier episode(s); teammates spent \
             {:.0}% of the barrier time waiting on it",
            episodes.len(),
            waste_frac * 100.0
        ),
    });
}

/// Start a timeline export of `count` records: magic and count.
/// [`timeline_bytes`] and the fleet store's export both begin here, and
/// append the records with [`encode_segments`].
pub fn put_timeline_head(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(TIMELINE_MAGIC);
    put_varint(out, count as u64);
}

/// Encode a rank-attributed timeline in the canonical fleet-export
/// byte form (see the module docs): magic, record count, segments.
/// `ora-fleet`'s store export and this function must stay
/// byte-identical — both encode through [`encode_segments`].
pub fn timeline_bytes(events: &[RankedEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * MAX_VARINT_BYTES + events.len() * 9);
    put_timeline_head(&mut out, events.len());
    encode_segments(&mut out, events);
    out
}

/// Append `events` to `out` as timeline segments: the one segment
/// encoder. `events` must start a segment of the timeline they belong
/// to (its first record, or one a multiple of [`TIMELINE_SEGMENT`]
/// records later). Each segment is written varint by varint straight
/// into `out`'s spare capacity, whose room for the segment's worst case
/// is checked once per segment, not per byte.
pub fn encode_segments(out: &mut Vec<u8>, events: &[RankedEvent]) {
    for segment in events.chunks(TIMELINE_SEGMENT) {
        out.reserve(segment.len() * MAX_TIMELINE_RECORD_BYTES);
        let len = out.len();
        let buf = out.spare_capacity_mut();
        let mut at = 0;
        let (mut tick, mut seq, mut region) = (0u64, 0u64, 0u64);
        for e in segment {
            let r = &e.record;
            at = write_varint(buf, at, zigzag(r.tick.wrapping_sub(tick) as i64));
            at = write_varint(buf, at, r.gtid as u64);
            at = write_varint(buf, at, zigzag(r.seq.wrapping_sub(seq) as i64));
            at = write_varint(buf, at, e.rank as u64);
            at = write_varint(buf, at, r.event as u64);
            at = write_varint(buf, at, zigzag(r.region_id.wrapping_sub(region) as i64));
            at = write_varint(buf, at, r.wait_id);
            (tick, seq, region) = (r.tick, r.seq, r.region_id);
        }
        // SAFETY: the loop above initialised `len..len + at`, within the
        // room reserved for the segment.
        unsafe { out.set_len(len + at) };
    }
}

/// Decode `count` records of back-to-back timeline segments, which must
/// be all of `bytes`, onto `out`: the one segment decoder, under
/// [`decode_timeline`] and the fleet store's reads and reopens. A
/// record that is cut short, an event code this build does not know,
/// or bytes left over are typed errors. `out` is only pushed to, so
/// the caller sizes what it allocates.
pub fn decode_segments(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<RankedEvent>,
) -> Result<(), TraceError> {
    let mut c = Cursor::new(bytes);
    let mut left = count;
    while left > 0 {
        let records = left.min(TIMELINE_SEGMENT);
        left -= records;
        let (mut tick, mut seq, mut region) = (0u64, 0u64, 0u64);
        for _ in 0..records {
            tick = tick.wrapping_add(unzigzag(c.varint()?) as u64);
            let gtid = c.varint()? as usize;
            seq = seq.wrapping_add(unzigzag(c.varint()?) as u64);
            let rank = c.varint()? as usize;
            let raw_event = u32::try_from(c.varint()?)
                .map_err(|_| TraceError::Malformed("timeline event code overflows u32"))?;
            let event = Event::from_u32(raw_event).ok_or(TraceError::UnknownEvent(raw_event))?;
            region = region.wrapping_add(unzigzag(c.varint()?) as u64);
            out.push(RankedEvent {
                rank,
                record: TraceEvent {
                    tick,
                    gtid,
                    seq,
                    event,
                    region_id: region,
                    wait_id: c.varint()?,
                },
            });
        }
    }
    c.finish()?;
    Ok(())
}

/// Decode a fleet timeline export ([`timeline_bytes`]) back into
/// rank-attributed records, validating magic, count, and event codes.
/// A v1 export is [`TraceError::BadVersion`]`(1)`.
pub fn decode_timeline(bytes: &[u8]) -> Result<Vec<RankedEvent>, TraceError> {
    let mut c = Cursor::new(bytes);
    match c.bytes(TIMELINE_MAGIC.len() as u64) {
        Ok(magic) if magic == TIMELINE_MAGIC => {}
        Ok(magic) if magic == TIMELINE_MAGIC_V1 => return Err(TraceError::BadVersion(1)),
        _ => return Err(TraceError::Malformed("not a fleet timeline export")),
    }
    let count = c.count(MIN_TIMELINE_RECORD_BYTES)?;
    let mut out = Vec::with_capacity(count);
    decode_segments(&bytes[c.position()..], count, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, gtid: usize, event: Event, region_id: u64, wait_id: u64) -> RankedEvent {
        // seq follows tick — uniqueness is all the analyzer needs.
        RankedEvent {
            rank: 0,
            record: TraceEvent {
                tick,
                gtid,
                seq: tick,
                event,
                region_id,
                wait_id,
            },
        }
    }

    /// Master executes `n` tasks over ticks [100, 100+10n]; workers 1/2
    /// wait through the whole drain.
    fn serialized_region(n: u64, region: u64) -> Vec<RankedEvent> {
        let mut out = Vec::new();
        for w in 1..3usize {
            out.push(ev(90, w, Event::TaskWaitBegin, region, 1));
        }
        for i in 0..n {
            let t = 100 + i * 10;
            out.push(ev(t, 0, Event::TaskBegin, region, i + 1));
            out.push(ev(t + 8, 0, Event::TaskEnd, region, i + 1));
        }
        let end = 100 + n * 10;
        for w in 1..3usize {
            out.push(ev(end, w, Event::TaskWaitEnd, region, 1));
        }
        out
    }

    /// Every thread executes `n` of its own tasks inside its wait.
    fn balanced_region(threads: usize, n: u64, region: u64) -> Vec<RankedEvent> {
        let mut out = Vec::new();
        let mut id = 1u64;
        for gtid in 0..threads {
            out.push(ev(90, gtid, Event::TaskWaitBegin, region, 1));
            for i in 0..n {
                let t = 100 + i * 10 + gtid as u64;
                out.push(ev(t, gtid, Event::TaskBegin, region, id));
                out.push(ev(t + 8, gtid, Event::TaskEnd, region, id));
                id += 1;
            }
            out.push(ev(100 + n * 10 + 5, gtid, Event::TaskWaitEnd, region, 1));
        }
        out
    }

    /// `episodes` explicit barriers where `laggard` arrives `skew`
    /// ticks after everyone else.
    fn convoy_region(
        threads: usize,
        episodes: u64,
        laggard: usize,
        skew: u64,
        region: u64,
    ) -> Vec<RankedEvent> {
        let mut out = Vec::new();
        for ep in 0..episodes {
            let base = 1000 + ep * 1000;
            let arrive_last = base + skew;
            for gtid in 0..threads {
                let begin = if gtid == laggard { arrive_last } else { base };
                out.push(ev(
                    begin,
                    gtid,
                    Event::ThreadBeginExplicitBarrier,
                    region,
                    ep,
                ));
                out.push(ev(
                    arrive_last + 5,
                    gtid,
                    Event::ThreadEndExplicitBarrier,
                    region,
                    ep,
                ));
            }
        }
        out
    }

    fn intervals(events: &[RankedEvent]) -> (Vec<Interval>, Unpaired) {
        let mut out = Vec::new();
        let unpaired = pair_intervals(events.iter().copied(), |iv| out.push(iv));
        (out, unpaired)
    }

    #[test]
    fn same_key_nested_begins_both_close() {
        // An outer `master` on gtid 0 forks an inner team whose master is
        // gtid 0 again and also enters `master`: two begins under the
        // key (rank 0, gtid 0, ThreadBeginMaster, wait 0). A single-slot
        // open map overwrote the outer begin and orphaned its end.
        let events = [
            ev(10, 0, Event::ThreadBeginMaster, 1, 0),
            ev(20, 0, Event::Fork, 2, 0),
            ev(30, 0, Event::ThreadBeginMaster, 2, 0),
            ev(40, 0, Event::ThreadEndMaster, 2, 0),
            ev(50, 0, Event::Join, 2, 0),
            ev(60, 0, Event::ThreadEndMaster, 1, 0),
        ];
        let (ivs, unpaired) = intervals(&events);
        assert_eq!(unpaired, Unpaired::default());
        let masters: Vec<(u64, u64, u64)> = ivs
            .iter()
            .filter(|iv| iv.begin == Event::ThreadBeginMaster)
            .map(|iv| (iv.region_id, iv.start, iv.end))
            .collect();
        assert_eq!(masters, [(2, 30, 40), (1, 10, 60)], "innermost first");
    }

    #[test]
    fn same_wait_key_in_two_regions_never_swaps_ends() {
        // A trace from a runtime that fired member IDs: a worker leased
        // to region 2 fires as member 1, the same gtid and wait ID as
        // thread 1 of region 1; their barrier intervals interleave
        // without nesting.
        let events = [
            ev(10, 1, Event::ThreadBeginExplicitBarrier, 1, 5),
            ev(20, 1, Event::ThreadBeginExplicitBarrier, 2, 5),
            ev(30, 1, Event::ThreadEndExplicitBarrier, 1, 5),
            ev(40, 1, Event::ThreadEndExplicitBarrier, 2, 5),
        ];
        let (ivs, unpaired) = intervals(&events);
        assert_eq!(unpaired, Unpaired::default());
        let got: Vec<(u64, u64, u64)> = ivs
            .iter()
            .map(|iv| (iv.region_id, iv.start, iv.end))
            .collect();
        assert_eq!(got, [(1, 10, 30), (2, 20, 40)]);
    }

    #[test]
    fn regions_pair_fork_with_join_across_threads() {
        let s = summarize([
            ev(100, 0, Event::Fork, 1, 0),
            ev(200, 1, Event::Fork, 2, 0),
            ev(300, 1, Event::Join, 2, 0),
            ev(400, 0, Event::Join, 1, 0),
            ev(600, 0, Event::Fork, 3, 0),
            // The join of region 3 fires on another thread than its fork.
            ev(900, 2, Event::Join, 3, 0),
        ]);
        assert_eq!(s.regions.len(), 3);
        assert_eq!(s.regions[0].ticks(), 100);
        assert_eq!((s.regions[2].gtid, s.regions[2].ticks()), (0, 300));
        assert_eq!(s.total_region_ticks(), 100 + 300 + 300);
        assert_eq!(s.peak_region_concurrency(), 2, "regions 1 and 2 nest");
        assert_eq!((s.events, s.span_ticks), (6, 800));
    }

    #[test]
    fn waits_pair_by_thread_and_wait_id() {
        let s = summarize([
            ev(10, 1, Event::ThreadBeginImplicitBarrier, 1, 7),
            ev(15, 2, Event::ThreadBeginImplicitBarrier, 1, 3),
            ev(40, 1, Event::ThreadEndImplicitBarrier, 1, 7),
            ev(60, 2, Event::ThreadEndImplicitBarrier, 1, 3),
        ]);
        assert_eq!(s.waits.len(), 2);
        let w1 = s.waits.iter().find(|w| w.gtid == 1).unwrap();
        assert_eq!((w1.wait_id, w1.ticks()), (7, 30));
        let total: u64 = s
            .waits_of(Event::ThreadBeginImplicitBarrier)
            .map(Interval::ticks)
            .sum();
        assert_eq!(total, 30 + 45);
    }

    #[test]
    fn unpaired_halves_are_counted_per_begin_event() {
        let s = summarize([
            ev(10, 0, Event::Join, 9, 0),                       // join without fork
            ev(20, 0, Event::ThreadEndExplicitBarrier, 1, 1),   // end without begin
            ev(30, 0, Event::ThreadBeginExplicitBarrier, 1, 2), // begin without end
        ]);
        assert!(s.regions.is_empty() && s.waits.is_empty());
        assert_eq!(s.unpaired.ends[Event::Fork.index()], 1);
        assert_eq!(s.unpaired.of(Event::ThreadBeginExplicitBarrier), 2);
        assert_eq!(s.unpaired.begins.iter().sum::<u64>(), 1);

        let empty = summarize([]);
        assert_eq!((empty.events, empty.span_ticks), (0, 0));
        assert_eq!(empty.peak_region_concurrency(), 0);
    }

    #[test]
    fn serialized_spawn_and_starvation_are_flagged() {
        let report = analyze(&serialized_region(32, 1), &AnalyzeConfig::default());
        let ser: Vec<_> = report.of_kind(PatternKind::SerializedSpawn).collect();
        assert_eq!(ser.len(), 1);
        assert_eq!(ser[0].gtid, 0);
        assert_eq!(ser[0].region_id, 1);
        assert!(
            (ser[0].tick_lo, ser[0].tick_hi) == (100, 418),
            "evidence span"
        );
        let starved: Vec<_> = report.of_kind(PatternKind::Starvation).collect();
        assert_eq!(starved.len(), 2, "both waiting workers starved");
        assert!(starved.iter().all(|f| f.gtid == 1 || f.gtid == 2));
        assert_eq!(report.of_kind(PatternKind::BarrierConvoy).count(), 0);
    }

    /// The quadratic count `detect_starvation` replaced, kept as its
    /// oracle: every wait scans every task execution twice. Yields each
    /// flagged wait and the tasks that ran elsewhere during it.
    fn starvation_by_scan(
        act: &RegionActivity,
        cfg: &AnalyzeConfig,
    ) -> Vec<(usize, u64, u64, u64)> {
        let Some((lo, hi)) = task_span(act) else {
            return Vec::new();
        };
        let span = hi.saturating_sub(lo);
        let in_window = |w: &Span, t: &Span| (w.begin..=w.end).contains(&t.begin);
        act.task_waits
            .iter()
            .filter_map(|w| {
                let own = (act.task_execs.iter())
                    .filter(|t| t.gtid == w.gtid && in_window(w, t))
                    .count() as u64;
                let elsewhere = (act.task_execs.iter())
                    .filter(|t| t.gtid != w.gtid && in_window(w, t))
                    .count() as u64;
                let window = w.end.saturating_sub(w.begin);
                let flagged = span > 0
                    && own == 0
                    && elsewhere >= cfg.min_tasks
                    && window as f64 >= cfg.starvation_frac * span as f64;
                flagged.then_some((w.gtid, w.begin, w.end, elsewhere))
            })
            .collect()
    }

    #[test]
    fn starvation_counts_equal_the_quadratic_scan() {
        let mut rng = ora_core::testutil::XorShift64::new(0x57a7_0001);
        let cfg = AnalyzeConfig {
            min_tasks: 3,
            ..AnalyzeConfig::default()
        };
        let mut flagged = 0;
        for case in 0..1000 {
            let threads = 2 + rng.below(3) as usize;
            // Coarse ticks, so task begins often sit on a wait's ends.
            let span = |rng: &mut ora_core::testutil::XorShift64, len: u64| {
                let begin = rng.below(40);
                Span {
                    gtid: rng.below(threads as u64) as usize,
                    begin,
                    end: begin + rng.below(len),
                }
            };
            let mut act = RegionActivity {
                task_execs: (0..rng.below(24)).map(|_| span(&mut rng, 4)).collect(),
                task_waits: (0..rng.below(12)).map(|_| span(&mut rng, 40)).collect(),
                ..RegionActivity::default()
            };
            let want = starvation_by_scan(&act, &cfg);
            let mut found = Vec::new();
            detect_starvation(0, 1, &mut act, &cfg, &mut found);
            assert_eq!(found.len(), want.len(), "case {case}");
            for (f, &(gtid, lo, hi, elsewhere)) in found.iter().zip(&want) {
                assert_eq!(
                    (f.gtid, f.tick_lo, f.tick_hi),
                    (gtid, lo, hi),
                    "case {case}"
                );
                let ran = format!("while {elsewhere} task(s) ran elsewhere");
                assert!(f.detail.contains(&ran), "case {case}: {}", f.detail);
            }
            flagged += want.len();
        }
        assert!(
            flagged > 20,
            "the cases must exercise the detector: {flagged}"
        );
    }

    #[test]
    fn balanced_task_regions_are_clean() {
        let report = analyze(&balanced_region(4, 32, 1), &AnalyzeConfig::default());
        assert!(
            report.findings.is_empty(),
            "clean trace produced {:?}",
            report.findings
        );
        assert_eq!(report.regions_scanned, 1);
    }

    #[test]
    fn small_task_counts_stay_below_the_evidence_floor() {
        // Same serialized shape, but under min_tasks: not reportable.
        let report = analyze(&serialized_region(8, 1), &AnalyzeConfig::default());
        assert!(report.findings.is_empty());
    }

    #[test]
    fn barrier_convoys_need_a_consistent_laggard() {
        let cfg = AnalyzeConfig::default();
        let report = analyze(&convoy_region(4, 12, 2, 900, 1), &cfg);
        let convoys: Vec<_> = report.of_kind(PatternKind::BarrierConvoy).collect();
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].gtid, 2);

        // Rotate the laggard: no single thread leads enough episodes.
        let mut rotating = Vec::new();
        for ep in 0..12u64 {
            let base = 1000 + ep * 1000;
            for gtid in 0..4usize {
                let begin = if gtid as u64 == ep % 4 {
                    base + 900
                } else {
                    base
                };
                rotating.push(ev(begin, gtid, Event::ThreadBeginExplicitBarrier, 1, ep));
                rotating.push(ev(base + 905, gtid, Event::ThreadEndExplicitBarrier, 1, ep));
            }
        }
        assert_eq!(
            analyze(&rotating, &cfg)
                .of_kind(PatternKind::BarrierConvoy)
                .count(),
            0
        );

        // Tight arrivals (no skew): a stable "last" thread but no waste.
        let report = analyze(&convoy_region(4, 12, 2, 0, 1), &cfg);
        assert_eq!(report.of_kind(PatternKind::BarrierConvoy).count(), 0);
    }

    #[test]
    fn desynced_wait_ids_still_cluster_into_full_episodes() {
        // A nested fork advances the forking thread's per-descriptor
        // barrier counter, so its outer arrivals carry wait IDs out of
        // lockstep with its teammates. Episode grouping must rely on
        // temporal overlap, not wait-id equality — keying on wait IDs
        // scatters the laggard's arrivals into phantom partial episodes
        // and an innocent teammate takes the blame.
        let mut events = Vec::new();
        for ep in 0..12u64 {
            let base = 1000 + ep * 1000;
            for gtid in 0..4usize {
                // Thread 2 lags by 900 ticks and its wait IDs run ahead
                // (it ran inner-team barriers between outer episodes).
                let (begin, wid) = if gtid == 2 {
                    (base + 900, ep * 3 + 7)
                } else {
                    (base, ep)
                };
                events.push(ev(begin, gtid, Event::ThreadBeginExplicitBarrier, 1, wid));
                events.push(ev(
                    base + 905,
                    gtid,
                    Event::ThreadEndExplicitBarrier,
                    1,
                    wid,
                ));
            }
        }
        let report = analyze(&events, &AnalyzeConfig::default());
        let convoys: Vec<_> = report.of_kind(PatternKind::BarrierConvoy).collect();
        assert_eq!(convoys.len(), 1, "{}", report.render());
        assert_eq!(
            convoys[0].gtid, 2,
            "the desynced laggard itself must be blamed"
        );
    }

    #[test]
    fn partial_episodes_from_nested_residue_are_not_convoy_evidence() {
        // Four genuine full-team episodes (below convoy_min_episodes)
        // padded with a pile of solo barrier intervals from thread 0 —
        // the shape a serialized inner region leaves behind, since its
        // solo barriers carry the outer region's ID. The residue must
        // not be promoted into episodes that clear the threshold.
        let mut events = convoy_region(4, 4, 2, 900, 1);
        for i in 0..20u64 {
            let t = 50_000 + i * 100;
            events.push(ev(t, 0, Event::ThreadBeginExplicitBarrier, 1, 100 + i));
            events.push(ev(t + 10, 0, Event::ThreadEndExplicitBarrier, 1, 100 + i));
        }
        let report = analyze(&events, &AnalyzeConfig::default());
        assert_eq!(
            report.of_kind(PatternKind::BarrierConvoy).count(),
            0,
            "nesting residue inflated the episode count:\n{}",
            report.render()
        );
    }

    #[test]
    fn ranks_are_analyzed_independently() {
        let mut events = serialized_region(32, 1);
        let clean: Vec<RankedEvent> = balanced_region(4, 32, 1)
            .into_iter()
            .map(|mut e| {
                e.rank = 1;
                e
            })
            .collect();
        events.extend(clean);
        let report = analyze(&events, &AnalyzeConfig::default());
        assert!(report.findings.iter().all(|f| f.rank == 0));
        assert_eq!(report.of_kind(PatternKind::SerializedSpawn).count(), 1);
        assert_eq!(report.regions_scanned, 2, "(rank, region) buckets");
    }

    #[test]
    fn timeline_export_round_trips() {
        let events = serialized_region(20, 7);
        let bytes = timeline_bytes(&events);
        let back = decode_timeline(&bytes).expect("decodes");
        assert_eq!(back.len(), events.len());
        for (a, b) in events.iter().zip(&back) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.record, b.record);
        }
        assert!(decode_timeline(b"NOTAFLT").is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(decode_timeline(&truncated).is_err());
    }

    /// `n` records whose fields sweep the extremes: ticks, seqs, regions
    /// and wait IDs at and near `u64::MAX` and 0, so deltas wrap both
    /// ways; descending runs; ranks and gtids up to `usize::MAX`.
    fn extreme_timeline(n: usize) -> Vec<RankedEvent> {
        let wide = [0, 1, 127, 128, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        (0..n)
            .map(|i| {
                let pick = |salt: usize| wide[(i * 7 + salt) % wide.len()];
                let descending = u64::MAX - i as u64;
                RankedEvent {
                    rank: [0, 1, usize::MAX, usize::MAX - 3][i % 4],
                    record: TraceEvent {
                        tick: if i % 3 == 0 { descending } else { pick(1) },
                        gtid: [usize::MAX, 0, 300][i % 3],
                        seq: if i % 2 == 0 { pick(2) } else { descending },
                        event: Event::from_u32(1 + (i % 26) as u32).expect("events 1..=26"),
                        region_id: pick(3),
                        wait_id: pick(5),
                    },
                }
            })
            .collect()
    }

    #[test]
    fn timeline_codec_round_trips_at_segment_edges_and_extreme_fields() {
        for n in [0, 1, 1023, 1024, 1025, 5000] {
            let events = extreme_timeline(n);
            let bytes = timeline_bytes(&events);
            assert_eq!(&bytes[..6], TIMELINE_MAGIC);
            assert_eq!(decode_timeline(&bytes), Ok(events.clone()), "{n} records");
            // Segments decode on their own: the bytes of the first k
            // whole segments are the export of the first k·1024 records.
            let whole = n / TIMELINE_SEGMENT * TIMELINE_SEGMENT;
            let mut head = Vec::new();
            encode_segments(&mut head, &events[..whole]);
            let mut rest = Vec::new();
            encode_segments(&mut rest, &events[whole..]);
            let mut out = Vec::new();
            decode_segments(&head, whole, &mut out).expect("whole segments");
            decode_segments(&rest, n - whole, &mut out).expect("the last segment");
            assert_eq!(out, events, "{n} records, decoded in two parts");
            let body = bytes.len() - head.len() - rest.len();
            assert_eq!(bytes[body..], [head.clone(), rest.clone()].concat());
            // A count one past the records is cut short; one short of
            // them leaves bytes over.
            assert!(decode_segments(&head, whole + 1, &mut Vec::new()).is_err());
            assert!(decode_segments(&rest, n - whole + 1, &mut Vec::new()).is_err());
            if n > 0 {
                assert!(decode_segments(&bytes[body..], n - 1, &mut Vec::new()).is_err());
            }
        }
    }

    #[test]
    fn a_v1_timeline_is_refused_with_its_version() {
        // What the v1 encoder wrote for an empty and a one-record timeline.
        assert_eq!(
            decode_timeline(b"ORAFLT\x00"),
            Err(TraceError::BadVersion(1))
        );
        assert_eq!(
            decode_timeline(b"ORAFLT\x01\x05\x00\x00\x00\x01\x00\x00"),
            Err(TraceError::BadVersion(1))
        );
        assert_eq!(
            decode_timeline(b"ORAFL3\x00"),
            Err(TraceError::Malformed("not a fleet timeline export"))
        );
        assert_eq!(decode_timeline(b"ORAFL2\x00"), Ok(Vec::new()));
    }

    #[test]
    fn render_lists_findings_with_tick_evidence() {
        let report = analyze(&serialized_region(32, 1), &AnalyzeConfig::default());
        let text = report.render();
        assert!(text.contains("serialized-spawn"));
        assert!(text.contains("starvation"));
        assert!(text.contains("ticks 100..418"));
        let clean = analyze(&[], &AnalyzeConfig::default());
        assert!(clean.render().contains("clean"));
    }
}
