//! Layer probes and stage-elision ablations (traced runs).
//!
//! A probe times one layer from outside by calling its public functions
//! in a loop: several batches, one span per batch, the median batch
//! divided by its operation count. Each probe runs once, in the traced
//! run of the workload that exercises its layer ([`run`]). The ablation
//! rungs (`null-callback`,
//! `ring-no-drain`, `trace` into a `MemorySink`, `socket` over
//! `loopback()`) add one stage at a time to the sync-storm ladder; their
//! per-event deltas are the paper's §V-B callbacks / measurement /
//! storage split extended to every layer, and what the probes cannot
//! account for is `bench.unattributed_frac`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use omprt::Schedule;
use ora_core::api::CollectorApi;
use ora_core::event::Event;
use ora_core::governor::{Governor, GovernorConfig};
use ora_core::message::RequestBatch;
use ora_core::registry::EventData;
use ora_core::request::Request;
use ora_fleet::protocol::{encode_frame, read_frame, write_frame, Message};
use ora_fleet::{connect, loopback, Endpoint, FleetListener};
use ora_trace::format::{crc32, decode_chunk, encode_chunk};
use ora_trace::{DropPolicy, MemorySink, RawRecord, RingSet, TraceSink};
use psx::symtab::{SymbolDesc, SymbolTable};
use psx::unwind::Backtrace;

use crate::gen::{self, RankStream, CHUNK_RECORDS};
use crate::ladder::{self, Env, Rounds, Rung};
use crate::metrics::Report;
use crate::rt::{self, Generator};
use crate::spans;
use crate::stats;
use crate::Opts;

/// Timed batches per probe.
const BATCHES: usize = 5;

/// Median nanoseconds per operation over [`BATCHES`] batches of `ops`
/// operations; `batch` runs one whole batch. One warm-up batch first.
fn ns_per_op(name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let _span = spans::enter_batch(name, ops);
        let t = Instant::now();
        batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&per_op)
}

fn sync_probes(env: &Env, report: &mut Report) {
    // Fork/join: every empty region timed on its own, for the tail.
    const REGIONS: usize = 20_000;
    let mut region_ns = Vec::with_capacity(REGIONS);
    {
        let _span = spans::enter_batch("omprt.forkjoin", REGIONS as u64);
        for _ in 0..REGIONS {
            let t = Instant::now();
            env.rt.parallel(|_| {});
            region_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    report.set("omprt.forkjoin.ns_per_region", stats::median(&region_ns));
    if let Some((_, tail)) = stats::tail_percentile(&region_ns) {
        report.set("omprt.forkjoin.p99_us", tail / 1e3);
    }

    const EPISODES: u64 = 50_000;
    report.set(
        "omprt.barrier.ns_per_episode",
        ns_per_op("omprt.barrier", EPISODES, || {
            env.rt.parallel(|ctx| {
                for _ in 0..EPISODES {
                    ctx.barrier();
                }
            });
        }),
    );
}

/// Tasks: one reduced task-flood block per batch; steals, overflows and
/// parks from the runtime's health counters around the batches.
fn task_probes(env: &Env, seed: u64, report: &mut Report) {
    let before = env.rt.health();
    let mut tasks = 0u64;
    let ns = ns_per_op("omprt.task", 1, || {
        tasks += rt::block(Generator::TaskFlood, seed, 4, &env.rt).ops;
    });
    let after = env.rt.health();
    let per_batch = tasks / (BATCHES as u64 + 1);
    report.set("omprt.task.ns_per_task", ns / per_batch as f64);
    report.set(
        "omprt.task.steal_frac",
        (after.tasks_stolen - before.tasks_stolen) as f64 / tasks as f64,
    );
    report.set(
        "omprt.task.overflows",
        (after.task_overflows - before.task_overflows) as f64,
    );
    report.set(
        "omprt.task.taskwait_parks",
        (after.taskwait_parks - before.taskwait_parks) as f64,
    );
}

fn schedule_probe(env: &Env, report: &mut Report) {
    const CLAIMS: i64 = 200_000;
    report.set(
        "omprt.schedule.ns_per_claim",
        ns_per_op("omprt.schedule", CLAIMS as u64, || {
            env.rt.parallel(|ctx| {
                ctx.for_schedule(Schedule::Dynamic(1), 0, CLAIMS - 1, 1, |i| {
                    black_box(i);
                });
            });
        }),
    );
}

fn dispatch_probes(env: &Env, report: &mut Report) {
    const EVENTS: u64 = 1_000_000;
    let data = EventData::bare(Event::Fork, 0);
    let dispatch = |api: &CollectorApi, name| {
        ns_per_op(name, EVENTS, || {
            for _ in 0..EVENTS {
                api.event(black_box(&data));
            }
        })
    };
    let api = CollectorApi::new();
    report.set(
        "core.dispatch.ns_unregistered",
        dispatch(&api, "core.dispatch.unregistered"),
    );
    api.handle_request(Request::Start).expect("start");
    api.register_callback(Event::Fork, Arc::new(|_| {}))
        .expect("register");
    report.set(
        "core.dispatch.ns_null_callback",
        dispatch(&api, "core.dispatch.null_callback"),
    );
    api.handle_request(Request::Pause).expect("pause");
    report.set(
        "core.dispatch.ns_paused",
        dispatch(&api, "core.dispatch.paused"),
    );

    // Byte-protocol round trips against the live runtime (the calling
    // thread is its master, so the state query has an answer).
    const QUERIES: u64 = 100_000;
    let live = env.rt.collector_api();
    live.handle_request(Request::Start).expect("start");
    for (metric, span, requests) in [
        (
            "core.message.ns_per_state_query",
            "core.message.state_query",
            1usize,
        ),
        ("core.message.ns_per_batch8", "core.message.batch8", 8),
    ] {
        let mut batch = RequestBatch::new(&vec![Request::QueryState; requests]);
        let ns = ns_per_op(span, QUERIES, || {
            for _ in 0..QUERIES {
                black_box(live.handle_bytes(black_box(batch.as_mut_bytes())));
            }
        });
        report.expect(batch.responses().iter().all(Result::is_ok), || {
            format!("{metric}: a state query failed")
        });
        report.set(metric, ns);
    }
    let _ = live.handle_request(Request::Stop);
}

/// Admission on one lane of an armed governor, begin/end alternating so
/// the pair's fate stack stays balanced.
fn governor_probe(report: &mut Report) {
    const EVENTS: u64 = 1_000_000;
    let governor = Governor::new();
    governor.prepare(GovernorConfig::default());
    governor.arm(1.0);
    let lane = governor.lane(0);
    report.set(
        "core.governor.ns_per_admit",
        ns_per_op("core.governor.admit", EVENTS, || {
            for _ in 0..EVENTS / 2 {
                black_box(governor.admit(lane, Event::Fork));
                black_box(governor.admit(lane, Event::Join));
            }
        }),
    );
}

/// The timestamp every tracer callback takes.
fn clock_probe(report: &mut Report) {
    const TICKS: u64 = 200_000;
    report.set(
        "collector.clock.ns_per_tick",
        ns_per_op("collector.clock", TICKS, || {
            for _ in 0..TICKS {
                black_box(collector::clock::ticks());
            }
        }),
    );
}

fn psx_probes(report: &mut Report) {
    const STACKS: u64 = 200_000;
    let table = SymbolTable::new();
    let main = table.register(SymbolDesc::user("main", "app.c", 1));
    let fork = table.register(SymbolDesc::runtime("__ompc_fork"));
    let outlined = table.register(SymbolDesc::outlined("__ompdo_main_1", "app.c", 9, main));
    let ibar = table.register(SymbolDesc::runtime("__ompc_ibarrier"));
    // The implementation-model stack a join callback sees.
    let frames = [main, fork, outlined, ibar].map(psx::enter);
    let mut bt = Backtrace::new();
    report.set(
        "psx.capture.ns_per_stack",
        ns_per_op("psx.capture", STACKS, || {
            for _ in 0..STACKS {
                psx::capture_into(black_box(&mut bt));
            }
        }),
    );
    drop(frames);
    let bt = Backtrace::from_ips(vec![main.0, fork.0, outlined.0, ibar.0]);
    report.set(
        "psx.usermodel.ns_per_stack",
        ns_per_op("psx.usermodel", STACKS, || {
            for _ in 0..STACKS {
                black_box(psx::reconstruct(black_box(&bt), &table));
            }
        }),
    );
}

fn record(i: u64, gtid: u32) -> RawRecord {
    RawRecord {
        tick: 1_000_000 + i * 300,
        seq: 0,
        event: Event::ThreadBeginExplicitBarrier as u32,
        gtid,
        region_id: 1 + i / 64,
        wait_id: i,
    }
}

fn ring_probes(report: &mut Report) {
    // Ring: one producer fills a lane, which is then drained untimed.
    const BATCH: u64 = 1 << 14;
    let rings = RingSet::new(1, BATCH as usize, DropPolicy::Newest);
    let mut scratch = Vec::with_capacity(BATCH as usize);
    let mut record_ns = Vec::new();
    for _ in 0..=BATCHES * 4 {
        let _span = spans::enter_batch("trace.ring.record", BATCH);
        let t = Instant::now();
        for i in 0..BATCH {
            rings.record(black_box(record(i, 0)));
        }
        record_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        scratch.clear();
        rings.lane(0).drain_into(&mut scratch, BATCH as usize);
    }
    report.set("trace.ring.ns_per_record", stats::median(&record_ns[1..]));
    report.expect(rings.total_stats().dropped() == 0, || {
        "ring probe dropped records".into()
    });

    // Two producers on one lane (gtids 0 and 2 of a two-lane set).
    const SHARED: u64 = 100_000;
    let mut shared_ns = Vec::new();
    for _ in 0..BATCHES {
        let rings = RingSet::new(2, 2 * SHARED as usize, DropPolicy::Newest);
        let _span = spans::enter_batch("trace.ring.record_shared", 2 * SHARED);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for gtid in [0u32, 2] {
                let rings = &rings;
                scope.spawn(move || {
                    for i in 0..SHARED {
                        rings.record(record(i, gtid));
                    }
                });
            }
        });
        shared_ns.push(t.elapsed().as_nanos() as f64 / SHARED as f64);
        report.expect(rings.total_stats().written == 2 * SHARED, || {
            "shared-lane ring probe lost records".into()
        });
    }
    report.set("trace.ring.ns_per_record_shared", stats::median(&shared_ns));

    // Drain: pop a full lane in chunk-sized pieces and encode each.
    let rings = RingSet::new(1, BATCH as usize, DropPolicy::Newest);
    let mut out = Vec::new();
    let mut drain_ns = Vec::new();
    for _ in 0..=BATCHES * 4 {
        for i in 0..BATCH {
            rings.record(record(i, 0));
        }
        let _span = spans::enter_batch("trace.drain", BATCH);
        let t = Instant::now();
        loop {
            scratch.clear();
            if rings.lane(0).drain_into(&mut scratch, CHUNK_RECORDS) == 0 {
                break;
            }
            out.clear();
            black_box(encode_chunk(&mut out, 0, 0, &scratch));
        }
        drain_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    report.set("trace.drain.ns_per_record", stats::median(&drain_ns[1..]));

    // MemorySink: 32 KiB writes (a typical encoded chunk), 32 MiB a batch.
    const MIB: usize = 1 << 20;
    let piece: Vec<u8> = (0..32 << 10).map(|i| (i * 31 % 251) as u8).collect();
    let writes = (32 * MIB / piece.len()) as u64;
    let write_ns = ns_per_op("trace.sink.write", writes, || {
        let mut sink = MemorySink::new();
        for _ in 0..writes {
            sink.write_all(black_box(&piece)).expect("memory sink");
        }
        black_box(sink.bytes().len());
    });
    report.set(
        "trace.sink.write_mib_per_s",
        piece.len() as f64 / MIB as f64 * 1e9 / write_ns,
    );
}

/// Codec and checksum on the seeded stream: decode every chunk, re-encode
/// it, and CRC a megabyte.
fn format_probes(streams: &[RankStream], report: &mut Report) {
    let mut out = Vec::new();
    let stream = &streams[0];
    let chunks = &stream.units[1..stream.units.len() - 1];
    let mut decoded: Vec<Vec<RawRecord>> = Vec::new();
    report.set(
        "trace.format.decode_ns_per_record",
        ns_per_op("trace.format.decode", stream.records, || {
            decoded.clear();
            for chunk in chunks {
                let mut pos = 0;
                decoded.push(
                    decode_chunk(chunk, &mut pos)
                        .expect("seeded chunk decodes")
                        .1,
                );
            }
        }),
    );
    let mut reencoded = 0u64;
    report.set(
        "trace.format.encode_ns_per_record",
        ns_per_op("trace.format.encode", stream.records, || {
            reencoded = 0;
            for records in &decoded {
                out.clear();
                encode_chunk(&mut out, 0, 0, records);
                reencoded += out.len() as u64;
            }
        }),
    );
    report.expect(reencoded == stream.chunk_bytes, || {
        "re-encoding the seeded stream changed its size".into()
    });
    const MIB: usize = 1 << 20;
    let block: Vec<u8> = (0..MIB).map(|i| (i * 31 % 251) as u8).collect();
    let crc_ns = ns_per_op("trace.format.crc", 8, || {
        for _ in 0..8 {
            black_box(crc32(black_box(&block)));
        }
    });
    report.set("trace.format.crc_mib_per_s", 1e9 / crc_ns);
}

/// Round trips of a one-record CHUNK and its ACK against an echo thread.
fn roundtrip_us(
    name: &'static str,
    mut producer: Box<dyn ora_fleet::transport::FrameConn>,
    mut consumer: Box<dyn ora_fleet::transport::FrameConn>,
) -> Result<f64, String> {
    const TRIPS: u64 = 2_000;
    let mut payload = Vec::new();
    encode_chunk(&mut payload, 0, 0, &[record(0, 0)]);
    let echo = std::thread::spawn(move || -> Result<(), String> {
        loop {
            match read_frame(&mut consumer) {
                Ok(Message::Chunk { epoch, .. }) => {
                    write_frame(&mut consumer, &Message::Ack { epoch })
                        .and_then(|()| std::io::Write::flush(&mut consumer))
                        .map_err(|e| format!("ack: {e}"))?;
                }
                Ok(Message::Fin { .. }) => return Ok(()),
                Ok(_) => return Err("unexpected frame".into()),
                Err(e) => return Err(format!("echo read: {e}")),
            }
        }
    });
    let mut epoch = 0u64;
    let mut failed = None;
    let ns = ns_per_op(name, TRIPS, || {
        for _ in 0..TRIPS {
            let sent = write_frame(
                &mut producer,
                &Message::Chunk {
                    epoch,
                    payload: payload.clone(),
                },
            )
            .and_then(|()| std::io::Write::flush(&mut producer));
            epoch += 1;
            match (sent, read_frame(&mut producer)) {
                (Ok(()), Ok(Message::Ack { .. })) => {}
                (sent, got) => failed = Some(format!("round trip: {sent:?} / {got:?}")),
            }
        }
    });
    let fin = Message::Fin {
        observed: 0,
        drained: 0,
        dropped: 0,
    };
    write_frame(&mut producer, &fin).map_err(|e| format!("fin: {e}"))?;
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())??;
    match failed {
        Some(why) => Err(why),
        None => Ok(ns / 1e3),
    }
}

fn fleet_probes(opts: &Opts, streams: &[RankStream], report: &mut Report) -> Result<(), String> {
    // Frame codec on a full 4 Ki-record chunk.
    const FRAMES: u64 = 2_000;
    let chunk = streams[0].units[1].clone();
    let message = Message::Chunk {
        epoch: 7,
        payload: chunk,
    };
    let mut framed = Vec::new();
    report.set(
        "fleet.protocol.encode_ns_per_frame",
        ns_per_op("fleet.protocol.encode", FRAMES, || {
            for _ in 0..FRAMES {
                framed = encode_frame(black_box(&message));
            }
        }),
    );
    // The whole receive side of a frame, from memory: length, CRC check,
    // then `decode_frame` on the verified section.
    let mut ok = true;
    report.set(
        "fleet.protocol.decode_ns_per_frame",
        ns_per_op("fleet.protocol.decode", FRAMES, || {
            for _ in 0..FRAMES {
                ok &= read_frame(&mut black_box(framed.as_slice())).is_ok();
            }
        }),
    );
    report.expect(ok, || "a CHUNK frame failed to decode".into());

    let (a, b) = loopback().map_err(|e| format!("loopback: {e}"))?;
    report.set(
        "fleet.transport.loopback_roundtrip_us",
        roundtrip_us("fleet.transport.loopback", a, b)?,
    );
    let path = opts.out_dir.join("probe.sock");
    let endpoint = Endpoint::Unix(path.clone());
    let listener = FleetListener::bind(&endpoint).map_err(|e| format!("bind: {e}"))?;
    let a = connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
    let b = listener.accept().map_err(|e| format!("accept: {e}"))?;
    report.set(
        "fleet.transport.roundtrip_us",
        roundtrip_us("fleet.transport.unix", a, b)?,
    );
    let _ = std::fs::remove_file(&path);

    Ok(())
}

/// Run the probes of the layers this workload exercises; each probe runs
/// in exactly one workload's traced run. `fleet-live` and `offline-merge`
/// time their layers on their own path and have none.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let _span = spans::enter("probes");
    match opts.workload.as_str() {
        "sync-storm" => {
            let env = Env::new();
            sync_probes(&env, report);
            dispatch_probes(&env, report);
            drop(env);
            clock_probe(report);
            ring_probes(report);
        }
        "task-flood" => {
            task_probes(&Env::new(), opts.seed, report);
            governor_probe(report);
        }
        "compute-npb" => {
            schedule_probe(&Env::new(), report);
            psx_probes(report);
        }
        "fleet-replay" => {
            let (streams, _) = gen::fleet(opts.seed, 2, 30_000, 0);
            format_probes(&streams, report);
            fleet_probes(opts, &streams, report)?;
        }
        _ => {}
    }
    Ok(())
}

/// The sync-storm ablation split: per-event wall cost each stage adds,
/// and the share of the `trace` rung's cost the stand-alone probes do not
/// account for.
///
/// Both generator threads emit events throughout a block, so one event's
/// CPU cost is about `THREADS x` its share of wall time; the attributed
/// side is the sum of the probes of the layers an event passes through
/// (dispatch with a callback, the callback's timestamp, ring commit,
/// drain + encode, sink write).
pub fn ablation_split(rounds: &Rounds, report: &mut Report) {
    let stage = |to, from| rounds.delta_ns_per_event(to, from, Rung::Trace).median;
    let callbacks = stage(Rung::NullCallback, None);
    let measurement = stage(Rung::RingNoDrain, Some(Rung::NullCallback));
    let storage = stage(Rung::Trace, Some(Rung::RingNoDrain));
    let fleet = stage(Rung::Socket, Some(Rung::Trace));
    report.set("ablation.null_callback.ns_per_event", callbacks);
    report.set("ablation.ring_no_drain.ns_per_event", measurement);
    report.set("ablation.memory_sink.ns_per_event", storage);
    report.set("ablation.socket_loopback.ns_per_event", fleet);
    eprintln!("  overhead split (wall ns per event, sync-storm):");
    eprintln!("    callbacks    (null-callback - absent)       {callbacks:8.1}");
    eprintln!("    measurement  (ring-no-drain - null-callback) {measurement:8.1}");
    eprintln!("    storage      (trace - ring-no-drain)        {storage:8.1}");
    eprintln!("    fleet        (socket - trace)               {fleet:8.1}");
}

/// `bench.unattributed_frac`, once both the ladder and the probes ran
/// (sync-storm only: `None` when an ablation or a probe is missing).
pub fn unattributed_frac(report: &Report) -> Option<f64> {
    let wall = report.get("ablation.null_callback.ns_per_event")?
        + report.get("ablation.ring_no_drain.ns_per_event")?
        + report.get("ablation.memory_sink.ns_per_event")?;
    let bytes = report.get("trace_bytes_per_event")?;
    let sink_ns = bytes / (report.get("trace.sink.write_mib_per_s")? * (1 << 20) as f64) * 1e9;
    let attributed = report.get("core.dispatch.ns_null_callback")?
        + report.get("collector.clock.ns_per_tick")?
        + report.get("trace.ring.ns_per_record")?
        + report.get("trace.drain.ns_per_record")?
        + sink_ns;
    Some(1.0 - attributed / (wall * ladder::THREADS as f64))
}
