//! The benchmark's own span recorder (traced runs only).
//!
//! A span is recorded around each call the benchmark makes into a layer
//! that takes about a microsecond or more (a block of regions, attach,
//! finish, a sink write, a daemon finish, open / merge / analyze /
//! export); sub-microsecond probe loops get one span per batch with the
//! iteration count attached. Spans stay in memory and are written out
//! once, at exit. Nothing here is compiled into the measured program.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (1 for a single call).
    pub count: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH
        .lock()
        .expect("span epoch lock")
        .get_or_insert_with(Instant::now)
}

/// Turn recording on or off. Off (the default), [`enter`] costs one
/// relaxed load.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    live: Option<(u64, Option<u64>, &'static str, Instant, u64)>,
}

/// Open a span covering one call.
pub fn enter(name: &'static str) -> Guard {
    enter_batch(name, 1)
}

/// Open a span covering `count` operations of a batch loop.
pub fn enter_batch(name: &'static str, count: u64) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Guard {
        live: Some((id, parent, name, Instant::now(), count)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start, count)) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&id) {
                open.pop();
            }
        });
        let epoch = epoch();
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            count,
        };
        // A poisoned lock means another thread panicked mid-push; the
        // run is failing anyway, so the span is simply not recorded.
        if let Ok(mut finished) = FINISHED.lock() {
            finished.push(span);
        }
    }
}

/// Record spans in even rounds only (traced runs): the odd rounds are
/// the untraced control the recorder's own cost is measured against.
pub fn enable_for_round(traced: bool, round: usize) {
    set_enabled(traced && round.is_multiple_of(2));
}

/// The recorder's cost as a share of untraced time, from per-round
/// totals of a run that traced its even rounds only: median traced over
/// median untraced, minus one. Zero when either side has no rounds.
pub fn overhead_frac(round_totals: &[f64]) -> f64 {
    let side = |parity: usize| -> Vec<f64> {
        round_totals
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, t)| *t)
            .collect()
    };
    let (traced, untraced) = (side(0), side(1));
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    crate::stats::median(&traced) / crate::stats::median(&untraced) - 1.0
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *FINISHED.lock().expect("span store lock"))
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.clamp(frontier, s.end_ns);
                let hi = hi.clamp(frontier, s.end_ns);
                covered += hi - lo;
                frontier = frontier.max(hi);
            }
            duration - covered
        })
        .collect()
}

/// Total self time per span name, as `(name, spans, operations, self_ns)`
/// sorted by name: the per-layer view of a span file.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    use std::collections::BTreeMap;
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = totals.entry(s.name).or_default();
        t.0 += 1;
        t.1 += s.count;
        t.2 += self_ns;
    }
    totals
        .into_iter()
        .map(|(name, (n, ops, ns))| (name, n, ops, ns))
        .collect()
}

/// Render a span file: every span with its self time, then the per-name
/// totals.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write;
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{},\"count\":{},\"self\":{self_ns}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.count
        );
    }
    out.push_str("\n],\"by_name\":[");
    for (i, (name, n, ops, ns)) in by_name(spans).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{name}\",\"spans\":{n},\"operations\":{ops},\"self\":{ns}}}"
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps span 2 on [20, 30): that part counts once.
            span(3, Some(1), 20, 50),
            span(4, Some(3), 25, 45),
            // Sticks out past its parent: clamped to the parent's end.
            span(5, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Parent: 100 - ([10,50) = 40) - ([90,100) = 10) = 50.
        assert_eq!(selfs, vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn overhead_compares_even_rounds_with_odd_ones() {
        assert_eq!(overhead_frac(&[]), 0.0);
        assert_eq!(overhead_frac(&[1.0]), 0.0);
        let frac = overhead_frac(&[1.1, 1.0, 1.1, 1.0, 5.0]);
        assert!((frac - 0.1).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_times(&[span(1, None, 5, 9)]), vec![4]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing_and_enabled_nests() {
        // One test owns the global recorder so parallel tests cannot
        // interleave with it.
        set_enabled(false);
        drop(enter("off"));
        set_enabled(true);
        {
            let _outer = enter("outer");
            let _inner = enter_batch("inner", 7);
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.count, 7);
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = to_json("w", &spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"by_name\""));
    }
}
