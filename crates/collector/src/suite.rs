//! One attachment, every report.
//!
//! ORA gives each event a single callback slot shared by all threads
//! (paper §IV-C), so two tools attached to the same runtime would clobber
//! each other's registrations. Real tools therefore multiplex: register
//! once, fan the stream out internally. [`ToolSuite`] is that multiplexer
//! — one collector whose lane fans out to the profiler's, tracer's and
//! state-timer's lanes, registering the union of the events they need.

use std::sync::atomic::{AtomicU64, Ordering};

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::OraResult;
use ora_trace::analyze::{summarize, Summary};
use ora_trace::{MemorySink, RankedEvent, Recorder, TraceConfig, TraceReader};

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::lane::{Collector, Lane};
use crate::profiler::{ProfState, Profile, ProfilerConfig};
use crate::report;
use crate::state_timer::{StateProfile, TimerState};
use crate::tracer::TraceLane;

/// Which reports the suite assembles.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Produce the profiler report (region timings, barrier times, join
    /// callstacks).
    pub profile: bool,
    /// Record the full event trace.
    pub trace: bool,
    /// Produce per-thread time-in-state accounting.
    pub state_times: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            profile: true,
            trace: true,
            state_times: true,
        }
    }
}

/// The enabled tools' callback states, fed by the suite's one callback.
struct SuiteState {
    profile: Option<ProfState>,
    trace: Option<TraceLane>,
    state_times: Option<TimerState>,
    events: AtomicU64,
}

impl Lane for SuiteState {
    fn wants(&self, event: Event) -> bool {
        self.profile.as_ref().is_some_and(|l| l.wants(event))
            || self.trace.as_ref().is_some_and(|l| l.wants(event))
            || self.state_times.as_ref().is_some_and(|l| l.wants(event))
    }

    fn on_event(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.on_event(d);
        }
        if let Some(profile) = &self.profile {
            profile.on_event(d);
        }
        if let Some(state_times) = &self.state_times {
            state_times.on_event(d);
        }
    }
}

/// The multiplexing tool.
pub struct ToolSuite {
    collector: Collector<SuiteState>,
    recorder: Option<Recorder<MemorySink>>,
}

impl ToolSuite {
    /// Attach with `cfg`: one `Start`, one registration pass over the
    /// events the enabled lanes need.
    pub fn attach(handle: RuntimeHandle, cfg: SuiteConfig) -> OraResult<ToolSuite> {
        let recorder = cfg.trace.then(|| {
            Recorder::start(TraceConfig::default(), MemorySink::new())
                .expect("memory sink cannot fail")
        });
        let state = SuiteState {
            profile: cfg
                .profile
                .then(|| ProfState::new(&ProfilerConfig::default())),
            trace: recorder.as_ref().map(|r| TraceLane::new(r.rings())),
            state_times: cfg.state_times.then(|| TimerState::new(handle.clone())),
            events: AtomicU64::new(0),
        };
        let collector = Collector::attach(handle, state)?;
        Ok(ToolSuite {
            collector,
            recorder,
        })
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.collector.lane().events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble every configured report.
    pub fn finish(mut self) -> SuiteReport {
        self.collector.stop();
        let api_health = self.collector.handle().query_health().unwrap_or_default();
        let trace = self.recorder.map(|recorder| {
            let (sink, _) = recorder.finish().expect("memory sink cannot fail");
            TraceReader::from_bytes(sink.into_bytes()).expect("self-encoded trace decodes")
        });
        let state = self.collector.lane();
        SuiteReport {
            profile: state.profile.as_ref().map(|p| p.profile(api_health)),
            trace,
            state_times: state.state_times.as_ref().map(TimerState::profile),
        }
    }
}

/// Everything one attachment produced.
pub struct SuiteReport {
    /// Region/barrier/call-tree profile (if configured).
    pub profile: Option<Profile>,
    /// The encoded event trace, opened for querying (if configured).
    pub trace: Option<TraceReader>,
    /// Per-thread state times (if configured).
    pub state_times: Option<StateProfile>,
}

impl SuiteReport {
    /// Render all configured reports as one text document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(p) = &self.profile {
            out.push_str("=== profile ===\n");
            out.push_str(&p.render());
        }
        if let Some(s) = &self.state_times {
            out.push_str("\n=== state times ===\n");
            out.push_str(&s.render());
        }
        if let Some(t) = &self.trace {
            let records = t.records().expect("self-encoded trace decodes");
            out.push_str(&format!(
                "\n=== trace === ({} records, {} dropped)\n",
                records.len(),
                t.dropped()
            ));
            let ranked = records
                .into_iter()
                .map(|record| RankedEvent { rank: 0, record });
            out.push_str(&render_summary(&summarize(ranked)));
        }
        out
    }
}

/// The timeline summary as text: ticks become seconds on the collector's
/// clock.
fn render_summary(s: &Summary) -> String {
    let span_secs = clock::to_secs(s.span_ticks);
    let event_rate = if span_secs > 0.0 {
        s.events as f64 / span_secs
    } else {
        0.0
    };
    let mut out = format!(
        "span {:.6}s | {} regions ({:.6}s inside) | {:.0} events/s | peak concurrency {}\n",
        span_secs,
        s.regions.len(),
        clock::to_secs(s.total_region_ticks()),
        event_rate,
        s.peak_region_concurrency()
    );
    let by_kind = [
        Event::ThreadBeginImplicitBarrier,
        Event::ThreadBeginExplicitBarrier,
        Event::ThreadBeginLockWait,
        Event::ThreadBeginCriticalWait,
        Event::ThreadBeginOrderedWait,
        Event::TaskWaitBegin,
    ]
    .into_iter()
    .map(|e| {
        let (n, ticks) = s
            .waits_of(e)
            .fold((0, 0), |(n, ticks), w| (n + 1, ticks + w.ticks()));
        (e, clock::to_secs(ticks), n)
    })
    .filter(|(_, _, n)| *n > 0);
    out.push_str(&report::table(
        &["wait kind", "total (s)", "intervals"],
        by_kind.map(|(e, secs, n)| vec![e.name().to_string(), format!("{secs:.6}"), n.to_string()]),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::OpenMp;
    use ora_trace::RawRecord;

    /// The suite's trace lane is the ring pipeline, so its finished trace
    /// is keyed `(tick, gtid, seq)`: records with *colliding ticks* come
    /// out gtid-ascending, per-thread arrival order within a gtid — not
    /// in whatever order the threads reached a shared buffer.
    #[test]
    fn equal_tick_records_order_deterministically() {
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
        let cfg = SuiteConfig {
            profile: false,
            trace: true,
            state_times: false,
        };
        let tool = ToolSuite::attach(handle, cfg).unwrap();
        // Thread 1's records arrive first at every tick collision.
        let rings = tool.recorder.as_ref().unwrap().rings();
        for i in 0..20u32 {
            rings.record(RawRecord {
                tick: 500,
                gtid: (i + 1) % 2,
                event: Event::Fork as u32,
                region_id: u64::from(i),
                ..RawRecord::default()
            });
        }
        let records = tool.finish().trace.unwrap().records().unwrap();
        assert_eq!(records.len(), 20);
        assert!(records.windows(2).all(|w| w[0].key() < w[1].key()));
        let t0: Vec<u64> = records
            .iter()
            .filter(|r| r.gtid == 0)
            .map(|r| r.region_id)
            .collect();
        assert_eq!(t0, (0..20u64).filter(|i| i % 2 == 1).collect::<Vec<_>>());
        assert!(records[..10].iter().all(|r| r.gtid == 0));
    }
}
