//! The fleet path: `SocketSink` → socket → `Daemon` lane → watermark
//! merge → `FleetStore::export`, as a ladder rung (`fleet-live`'s trace
//! rung, and sync-storm's loopback ablation; `rt.rs` drives both) and as
//! a replay of seeded streams (`fleet-replay`).
//!
//! Time spent inside the sink and waiting for ACKs is measured from
//! outside with two wrappers the benchmark owns: [`TimedSink`] around the
//! sink the drainer writes to, and [`TimedConn`] around the connection
//! the sink reads ACKs from.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use collector::{clock, StreamingTracer};
use omprt::OpenMp;
use ora_fleet::sink::DEFAULT_WINDOW;
use ora_fleet::transport::FrameConn;
use ora_fleet::{
    connect, loopback, Daemon, DaemonConfig, Endpoint, FleetListener, FleetReport, SocketSink,
};
use ora_trace::analyze::timeline_bytes;
use ora_trace::TraceSink;

use crate::gen::{self, RankStream};
use crate::ladder::{self, BlockOut, Env, Rung, Sample};
use crate::metrics::Report;
use crate::offline;
use crate::rt;
use crate::spans;
use crate::stats;
use crate::Opts;

/// Connections (ranks) in `fleet-replay`.
pub const REPLAY_RANKS: usize = 2;
/// Records per replayed rank: one replay round is about 150 ms.
pub const REPLAY_RECORDS_PER_RANK: u64 = 200_000;
/// Per thousand of rank 1's records sent late (in 256-record pieces), so
/// about 2 % of them can arrive below the daemon's settled frontier.
pub const REPLAY_LATE_PER_1000: u64 = 20;

/// Seconds one `fleet-replay` round takes on the reference host.
pub const REPLAY_ROUND_SECONDS: f64 = 0.21;

/// How the producer reaches the daemon.
pub enum Transport {
    /// A same-process socket pair.
    Loopback,
    /// A Unix socket bound at this path.
    Unix(PathBuf),
}

/// A connection that accounts the time its reader spends blocked: the
/// only reads a `SocketSink` makes are waits for ACK and FIN-ACK frames.
pub struct TimedConn {
    inner: Box<dyn FrameConn>,
    read_ns: Arc<AtomicU64>,
}

impl Read for TimedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.read(buf);
        self.read_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        n
    }
}

impl Write for TimedConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A `SocketSink` that accounts its `write_all` calls.
pub struct TimedSink {
    inner: SocketSink,
    /// Nanoseconds per `write_all` call, in call order.
    write_ns: Vec<u64>,
    bytes: u64,
}

impl TraceSink for TimedSink {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _span = spans::enter("fleet.sink.write");
        let t = Instant::now();
        let r = self.inner.write_all(bytes);
        self.write_ns.push(t.elapsed().as_nanos() as u64);
        self.bytes += bytes.len() as u64;
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An established producer → daemon connection.
struct Link {
    sink: TimedSink,
    ack_wait_ns: Arc<AtomicU64>,
}

fn timed_sink(conn: Box<dyn FrameConn>, rank: u64) -> Result<Link, String> {
    let ack_wait_ns = Arc::new(AtomicU64::new(0));
    let conn = TimedConn {
        inner: conn,
        read_ns: ack_wait_ns.clone(),
    };
    let inner = SocketSink::start(Box::new(conn), rank, clock::TICKS_PER_SEC, DEFAULT_WINDOW)
        .map_err(|e| format!("hello: {e}"))?;
    Ok(Link {
        sink: TimedSink {
            inner,
            write_ns: Vec::new(),
            bytes: 0,
        },
        ack_wait_ns,
    })
}

/// What the fleet side of one socket rung or replay round saw.
#[derive(Debug, Default)]
pub struct FleetSide {
    pub export: Vec<u8>,
    pub late_events: u64,
    pub quarantined: u64,
    /// FIN sent → `Daemon::finish` returned, seconds.
    pub daemon_finish_s: f64,
    /// `FleetStore::export`, seconds.
    pub export_s: f64,
    /// Nanoseconds of every `SocketSink::write_all` call.
    pub write_ns: Vec<u64>,
    /// Nanoseconds the sink spent blocked reading ACKs.
    pub ack_wait_ns: u64,
    /// Records in the store at export.
    pub records: u64,
}

impl FleetSide {
    /// Share of the sink's write time spent blocked on ACKs.
    pub fn ack_wait_frac(&self) -> f64 {
        let total: u64 = self.write_ns.iter().sum();
        self.ack_wait_ns.min(total) as f64 / total.max(1) as f64
    }
}

fn check_fleet_report(fleet: &FleetReport, ranks: usize, failures: &mut Vec<String>) -> u64 {
    let quarantined = fleet
        .lanes
        .iter()
        .filter(|l| l.quarantined.is_some())
        .count() as u64;
    if fleet.lanes.len() != ranks || fleet.lanes.iter().any(|l| !l.finished) {
        failures.push(format!(
            "{} of {ranks} lane(s) finished",
            fleet.lanes.iter().filter(|l| l.finished).count()
        ));
    }
    if quarantined > 0 || !fleet.rejected.is_empty() {
        failures.push(format!(
            "{quarantined} lane(s) quarantined, {} connection(s) rejected",
            fleet.rejected.len()
        ));
    }
    if !fleet.reconciled() {
        failures.push("FleetReport::reconciled() is false".into());
    }
    quarantined
}

/// The `socket` rung: `block` under a `StreamingTracer` whose sink is a
/// `SocketSink` feeding an in-process daemon. The sample's finish time
/// covers quiesce, tracer finish, FIN, `Daemon::finish` and the store
/// export; `persisted` is `FleetStore::len`. With a `tee`, the sample's
/// trace is the teed rank file.
pub fn socket_rung(
    env: &Env,
    block: &dyn Fn(&OpenMp) -> BlockOut,
    transport: &Transport,
    tee: Option<&Path>,
) -> (Sample, FleetSide) {
    let _rung_span = spans::enter(Rung::Socket.key());
    let mut sample = Sample::default();
    let mut side = FleetSide::default();
    let mark = ladder::token_mark(env);

    let t = Instant::now();
    let mut daemon = Daemon::new(DaemonConfig::default());
    let (ack_wait, tracer) = {
        let _span = spans::enter("collector.attach");
        let producer = match transport {
            Transport::Loopback => {
                let (producer, consumer) = loopback().expect("socketpair");
                daemon.spawn_conn(consumer);
                producer
            }
            Transport::Unix(path) => {
                let endpoint = Endpoint::Unix(path.clone());
                let listener = FleetListener::bind(&endpoint).expect("bind the daemon socket");
                let producer = connect(&endpoint).expect("connect to the daemon socket");
                daemon.spawn_conn(listener.accept().expect("accept the producer"));
                producer
            }
        };
        let mut link = timed_sink(producer, 0).expect("HELLO");
        if let Some(path) = tee {
            link.sink.inner = link.sink.inner.tee(path).expect("create the tee file");
        }
        let Link { sink, ack_wait_ns } = link;
        let tracer = StreamingTracer::attach(env.handle.clone(), ladder::trace_config(), sink)
            .expect("attach");
        (ack_wait_ns, tracer)
    };
    sample.attach_s = t.elapsed().as_secs_f64();

    (sample.block_s, sample.out) = ladder::timed_block(env, block);

    let t = Instant::now();
    ladder::settle(env, &tracer);
    let fleet = {
        let _span = spans::enter("collector.finish");
        sample.observed = ladder::sum_counts(&tracer);
        let (sink, stats) = tracer.finish().expect("finish");
        ladder::record_stats(&mut sample, &stats, sink.bytes);
        side.write_ns = sink.write_ns;
        let fin_sent = Instant::now();
        let fin = sink
            .inner
            .finish(sample.observed, stats.drained(), stats.dropped());
        if let Err(e) = fin {
            sample.failures.push(format!("FIN handshake: {e}"));
        }
        let fleet = {
            let _span = spans::enter("fleet.daemon.finish");
            daemon.finish()
        };
        side.daemon_finish_s = fin_sent.elapsed().as_secs_f64();
        let _span = spans::enter("fleet.store.export");
        let t = Instant::now();
        side.export = fleet.store.export();
        side.export_s = t.elapsed().as_secs_f64();
        fleet
    };
    sample.finish_s = t.elapsed().as_secs_f64();
    sample.left_interned = ladder::reclaim_since(env, mark);
    if let Some(path) = tee {
        match std::fs::read(path) {
            Ok(file) => {
                sample.bytes = file.len() as u64;
                sample.trace = Some(file);
            }
            Err(e) => sample.failures.push(format!("read the tee file: {e}")),
        }
    }

    side.ack_wait_ns = ack_wait.load(Ordering::Relaxed);
    side.late_events = fleet.store.late_events();
    side.quarantined = check_fleet_report(&fleet, 1, &mut sample.failures);
    // What reached the store is what counts as persisted.
    let drained = sample.persisted;
    sample.persisted = fleet.store.len() as u64;
    side.records = sample.persisted;
    if sample.persisted != drained {
        sample.failures.push(format!(
            "store holds {} of {drained} drained record(s)",
            sample.persisted
        ));
    }
    (sample, side)
}

/// Set the fleet per-layer metrics from the rounds' fleet sides.
pub fn set_layer_metrics(sides: &[FleetSide], records_per_s: f64, report: &mut Report) {
    let writes: Vec<f64> = sides
        .iter()
        .flat_map(|s| s.write_ns.iter().map(|n| *n as f64))
        .collect();
    if !writes.is_empty() {
        report.set("fleet.sink.write_ns_per_chunk", stats::median(&writes));
    }
    let med =
        |f: &dyn Fn(&FleetSide) -> f64| stats::median(&sides.iter().map(f).collect::<Vec<_>>());
    report.set("fleet.sink.ack_wait_frac", med(&|s| s.ack_wait_frac()));
    report.set("fleet.daemon.finish_s", med(&|s| s.daemon_finish_s));
    report.set("fleet.daemon.late_events", med(&|s| s.late_events as f64));
    report.set(
        "fleet.daemon.quarantined",
        sides.iter().map(|s| s.quarantined).sum::<u64>() as f64,
    );
    report.set("fleet.daemon.records_per_s", records_per_s);
    report.set(
        "fleet.store.export_ns_per_record",
        med(&|s| s.export_s * 1e9 / s.records.max(1) as f64),
    );
}

/// What set-up builds for `fleet-replay`.
struct ReplaySetup {
    streams: Vec<RankStream>,
    /// The offline merge of the streams, exported: what every round's
    /// store export must equal, byte for byte.
    expected: Vec<u8>,
}

/// One replay round: bind, two connections each replaying its stream
/// from its own thread, FIN, daemon finish, export.
fn replay_round(
    streams: &[RankStream],
    socket: &Path,
) -> Result<(f64, u64, FleetSide, Vec<String>), String> {
    let endpoint = Endpoint::Unix(socket.to_path_buf());
    let listener = FleetListener::bind(&endpoint).map_err(|e| format!("bind: {e}"))?;
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut side = FleetSide::default();
    let mut failures = Vec::new();

    let t = Instant::now();
    let fin_sent = std::thread::scope(|scope| -> Result<Instant, String> {
        let mut senders = Vec::new();
        for (rank, stream) in streams.iter().enumerate() {
            let endpoint = &endpoint;
            senders.push(
                scope.spawn(move || -> Result<(Vec<u64>, u64, Instant), String> {
                    let conn = connect(endpoint).map_err(|e| format!("connect: {e}"))?;
                    let Link {
                        mut sink,
                        ack_wait_ns,
                    } = timed_sink(conn, rank as u64)?;
                    for unit in &stream.units {
                        sink.write_all(unit).map_err(|e| format!("write: {e}"))?;
                    }
                    let wait = ack_wait_ns.load(Ordering::Relaxed);
                    let fin_sent = Instant::now();
                    sink.inner
                        .finish(stream.records, stream.records, 0)
                        .map_err(|e| format!("fin: {e}"))?;
                    Ok((sink.write_ns, wait, fin_sent))
                }),
            );
        }
        for _ in streams {
            daemon.spawn_conn(listener.accept().map_err(|e| format!("accept: {e}"))?);
        }
        let mut first_fin: Option<Instant> = None;
        for s in senders {
            let (write_ns, wait, fin) = s.join().map_err(|_| "sender panicked".to_string())??;
            side.write_ns.extend(write_ns);
            side.ack_wait_ns += wait;
            first_fin = Some(first_fin.map_or(fin, |f| f.min(fin)));
        }
        first_fin.ok_or_else(|| "no streams".to_string())
    })?;
    let fleet = {
        let _span = spans::enter("fleet.daemon.finish");
        daemon.finish()
    };
    side.daemon_finish_s = fin_sent.elapsed().as_secs_f64();
    {
        let _span = spans::enter("fleet.store.export");
        let t = Instant::now();
        side.export = fleet.store.export();
        side.export_s = t.elapsed().as_secs_f64();
    }
    let secs = t.elapsed().as_secs_f64();
    side.records = fleet.store.len() as u64;
    side.late_events = fleet.store.late_events();
    side.quarantined = check_fleet_report(&fleet, streams.len(), &mut failures);
    Ok((secs, side.records, side, failures))
}

fn replay_setup(seed: u64, socket: &Path) -> Result<ReplaySetup, String> {
    let _span = spans::enter("setup");
    let (streams, _) = gen::fleet(
        seed,
        REPLAY_RANKS,
        REPLAY_RECORDS_PER_RANK,
        REPLAY_LATE_PER_1000,
    );
    let files: Vec<Vec<u8>> = streams.iter().map(RankStream::file_bytes).collect();
    let expected = timeline_bytes(&offline::pass(files)?.merged);
    // Warm-up: one untimed replay.
    replay_round(&streams, socket)?;
    Ok(ReplaySetup { streams, expected })
}

/// The `fleet-replay` workload.
pub fn run_replay(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let socket = opts.out_dir.join("fleet-replay.sock");
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(replay_setup(opts.seed, &socket)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = built.expect("set up at least once");
    report.set("setup_s", stats::median(&setups));
    let records: u64 = s.streams.iter().map(|r| r.records).sum();
    let chunk_bytes: u64 = s.streams.iter().map(|r| r.chunk_bytes).sum();
    report.set("trace_bytes_per_event", chunk_bytes as f64 / records as f64);
    report.set(
        "trace.format.bytes_per_record",
        chunk_bytes as f64 / records as f64,
    );

    eprintln!(
        "  {records} records, {} pieces of rank 1 sent late",
        s.streams[1].displaced_chunks
    );
    let mut rates = Vec::new();
    let mut totals = Vec::new();
    let mut sides = Vec::new();
    for round in 0..rt::rounds_for_run(opts, REPLAY_ROUND_SECONDS) {
        spans::enable_for_round(opts.traced, round);
        let _round = spans::enter("round");
        let (secs, stored, mut side, failures) = replay_round(&s.streams, &socket)?;
        rates.push(stored as f64 / secs);
        totals.push(secs);
        report.check(records, records.abs_diff(stored), || {
            format!("store holds {stored} of {records} replayed record(s)")
        });
        report.check(
            records,
            u64::from(side.export != s.expected) * records,
            || "store export differs from the offline merge of the streams".into(),
        );
        for why in failures {
            report.expect(false, || why);
        }
        side.export = Vec::new();
        sides.push(side);
    }
    spans::set_enabled(opts.traced);
    let r = stats::summarize(&rates);
    eprintln!(
        "  events_per_s {:.0} [{:.0}, {:.0}] n={}",
        r.median, r.q1, r.q3, r.n
    );
    report.set("events_per_s", r.median);

    if opts.traced {
        set_layer_metrics(&sides, r.median, &mut report);
        report.set("bench.trace_overhead_frac", spans::overhead_frac(&totals));
    }
    report.set("peak_rss_mib", crate::peak_rss_mib()?);
    let _ = std::fs::remove_file(&socket);
    Ok(report)
}
