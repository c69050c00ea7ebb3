//! Fleet properties: wire robustness, end-to-end merge fidelity, and
//! fault isolation.
//!
//! Three families:
//!
//! 1. **Wire protocol** — seeded property tests: round-trip of random
//!    messages, truncation at every byte boundary, bit-flip corruption
//!    anywhere in a frame stream. Every malformed input yields a typed
//!    [`FleetError`], never a panic.
//! 2. **End-to-end merge** — N ranks record through real
//!    ring→drainer→`SocketSink` pipelines into one daemon over loopback
//!    sockets, teeing local trace files; the daemon's export must be
//!    byte-identical to offline `merge_ranks` over those files and the
//!    per-lane ACK/drop accounting must reconcile exactly.
//! 3. **Quarantine / degradation** — an epoch replay, an epoch gap, a
//!    fault-injected (corrupting) transport, a rank killed mid-run, and
//!    a chunk whose header lies about its record count each degrade
//!    exactly one lane; the rest of the fleet's merged output is
//!    untouched.
//! 4. **Run-merge edge cases** — threads sharing a ring lane (chunks
//!    that are not key-sorted) and a rank lagging far behind the others
//!    in tick-space, driven frame by frame so the arrival order is the
//!    test's, not the scheduler's.
//!
//! A governor decision record in a lane's stream is metadata: it is
//! counted apart and the lane still reconciles (family 2).

use std::path::PathBuf;

use ora_core::testutil::XorShift64;
use ora_fleet::protocol::{encode_frame, read_frame, write_frame};
use ora_fleet::{
    loopback, timeline_bytes, ConnFaultMode, Daemon, DaemonConfig, FaultConn, FleetError, Message,
    SocketSink,
};
use ora_trace::format::{self, ChunkMeta, Footer, LaneStats};
use ora_trace::{
    merge_ranks, DropPolicy, RawRecord, Recorder, RecordingStats, TraceConfig, TraceReader,
};

fn quiet_config(lanes: usize, capacity_per_lane: usize) -> TraceConfig {
    TraceConfig {
        lanes,
        capacity_per_lane,
        policy: DropPolicy::Newest,
        epoch: std::time::Duration::from_secs(3600),
        ..TraceConfig::default()
    }
}

fn rec(tick: u64, gtid: u32, seq_hint: u64) -> RawRecord {
    RawRecord {
        tick,
        gtid,
        event: 1, // Fork
        region_id: seq_hint / 16,
        ..RawRecord::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ora_fleet_{}_{name}.oratrace", std::process::id()))
}

fn random_message(rng: &mut XorShift64) -> Message {
    match rng.below(5) {
        0 => Message::Hello {
            rank: rng.next_u64(),
            format_version: (rng.next_u64() & 0xffff) as u16,
            ticks_per_sec: rng.next_u64(),
        },
        1 => {
            let len = rng.below(64) as usize;
            let payload = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            Message::Chunk {
                epoch: rng.next_u64(),
                payload,
            }
        }
        2 => Message::Ack {
            epoch: rng.next_u64(),
        },
        3 => Message::Fin {
            observed: rng.next_u64(),
            drained: rng.next_u64(),
            dropped: rng.next_u64(),
        },
        _ => Message::FinAck {
            stored: rng.next_u64(),
            late: rng.next_u64(),
        },
    }
}

// ---------------------------------------------------------------------
// 1. Wire protocol robustness.
// ---------------------------------------------------------------------

#[test]
fn random_messages_round_trip() {
    let mut rng = XorShift64::new(0xf1ee_0001);
    for _ in 0..500 {
        let msg = random_message(&mut rng);
        let frame = encode_frame(&msg);
        let mut cursor = &frame[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
        assert!(cursor.is_empty());
    }
}

#[test]
fn truncation_anywhere_in_a_stream_is_a_typed_error() {
    let mut rng = XorShift64::new(0xf1ee_0002);
    let mut stream = Vec::new();
    for _ in 0..8 {
        stream.extend_from_slice(&encode_frame(&random_message(&mut rng)));
    }
    for cut in 0..stream.len() {
        let mut cursor = &stream[..cut];
        // Read until the stream runs out; the final result must be a
        // typed error (or a clean Closed exactly at a frame boundary).
        loop {
            match read_frame(&mut cursor) {
                Ok(_) => continue,
                Err(FleetError::Closed) | Err(FleetError::Truncated) => break,
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_pass_crc() {
    let mut rng = XorShift64::new(0xf1ee_0003);
    for _ in 0..300 {
        let msg = random_message(&mut rng);
        let mut frame = encode_frame(&msg);
        let at = rng.below(frame.len() as u64) as usize;
        let bit = 1u8 << rng.below(8);
        frame[at] ^= bit;
        let mut cursor = &frame[..];
        match read_frame(&mut cursor) {
            // A flip inside the length prefix can reframe the stream;
            // whatever it decodes to must then fail somewhere typed.
            Ok(m) => assert!(
                at < 4,
                "flip at {at} (content byte) slipped past the CRC: {m:?}"
            ),
            Err(e) => {
                let _ = e.to_string(); // Display never panics either
            }
        }
    }
}

#[test]
fn unknown_message_tags_are_refused() {
    let mut frame = encode_frame(&Message::Ack { epoch: 9 });
    frame[4] = 0x7f; // tag byte
                     // Fix up the CRC so only the tag is wrong.
    let len = frame.len();
    let crc = ora_trace::format::crc32(&frame[4..len - 4]).to_le_bytes();
    frame[len - 4..].copy_from_slice(&crc);
    assert_eq!(
        read_frame(&mut &frame[..]),
        Err(FleetError::UnknownMessage(0x7f))
    );
}

// ---------------------------------------------------------------------
// 2. End-to-end: loopback fleet, export fidelity, accounting.
// ---------------------------------------------------------------------

/// Stream `batch` through a real recorder into `daemon` as `rank`,
/// teeing to a temp file. Returns the stats and the tee path.
fn stream_rank(
    daemon: &mut Daemon,
    rank: u64,
    batch: Vec<RawRecord>,
    test: &str,
) -> (RecordingStats, PathBuf) {
    let (client, server) = loopback().unwrap();
    daemon.spawn_conn(server);
    let tee = temp_path(&format!("{test}_r{rank}"));
    let sink = SocketSink::start(client, rank, 1_000_000_000, 4)
        .unwrap()
        .tee(&tee)
        .unwrap();
    let recorder = Recorder::start(quiet_config(2, 4096), sink).expect("recorder");
    for r in &batch {
        recorder.rings().record(*r);
    }
    let (sink, stats) = recorder.finish().expect("finish");
    let fin = sink
        .finish(
            stats.drained() + stats.dropped(),
            stats.drained(),
            stats.dropped(),
        )
        .expect("fin handshake");
    assert_eq!(fin.stored, stats.drained(), "rank {rank} FIN-ACK stored");
    (stats, tee)
}

fn rank_batch(rng: &mut XorShift64, n: u64) -> Vec<RawRecord> {
    (0..n)
        .map(|i| rec(10_000 + rng.below(64), rng.below(4) as u32, i))
        .collect()
}

#[test]
fn loopback_fleet_export_matches_offline_merge() {
    let mut rng = XorShift64::new(0xf1ee_0010);
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut tees = Vec::new();
    for rank in 0..4u64 {
        let (stats, tee) = stream_rank(&mut daemon, rank, rank_batch(&mut rng, 400), "e2e");
        assert_eq!(stats.dropped(), 0);
        tees.push(tee);
    }
    let report = daemon.finish();

    // Every lane finished, saw header + footer, and reconciles.
    assert_eq!(report.lanes.len(), 4);
    for lane in &report.lanes {
        assert!(lane.finished, "rank {} finished", lane.rank);
        assert!(lane.header_seen);
        assert!(lane.quarantined.is_none());
        assert!(lane.reconciled(), "rank {} accounting", lane.rank);
        assert_eq!(lane.records, 400);
    }
    assert!(report.reconciled());
    assert_eq!(report.store.len(), 1600);

    // The online export is byte-identical to the offline merge of the
    // teed per-rank files.
    let readers: Vec<TraceReader> = tees
        .iter()
        .map(|p| TraceReader::open(p).expect("tee file decodes"))
        .collect();
    let offline = merge_ranks(&readers).unwrap();
    assert_eq!(report.store.export(), timeline_bytes(&offline));

    // Queries agree with filtering the merged timeline.
    let all = report.store.records().to_vec();
    for rank in 0..4usize {
        let want: Vec<_> = all.iter().copied().filter(|e| e.rank == rank).collect();
        assert_eq!(report.store.for_rank(rank), want);
    }
    let want_range: Vec<_> = all
        .iter()
        .copied()
        .filter(|e| (10_010..=10_040).contains(&e.record.tick))
        .collect();
    assert_eq!(report.store.time_range(10_010, 10_040), want_range);
    let mut regions: Vec<u64> = all.iter().map(|e| e.record.region_id).collect();
    regions.sort_unstable();
    regions.dedup();
    assert!(regions.len() > 1, "{regions:?}");
    for region in regions {
        let want: Vec<_> = all
            .iter()
            .copied()
            .filter(|e| e.record.region_id == region)
            .collect();
        assert_eq!(report.store.for_region(region), want, "region {region}");
    }

    for tee in tees {
        let _ = std::fs::remove_file(tee);
    }
}

#[test]
fn concurrent_ranks_merge_identically_to_offline() {
    let mut daemon = Daemon::new(DaemonConfig {
        // Slow consumer: exercises the producer-side ACK window.
        slow_chunk: std::time::Duration::from_micros(200),
    });
    let mut tees = Vec::new();
    let mut conns = Vec::new();
    for rank in 0..3u64 {
        let (client, server) = loopback().unwrap();
        daemon.spawn_conn(server);
        conns.push((rank, client));
    }
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (rank, client) in conns {
            let tee = temp_path(&format!("conc_r{rank}"));
            tees.push(tee.clone());
            joins.push(scope.spawn(move || {
                let mut rng = XorShift64::new(0xf1ee_0020 ^ rank);
                let sink = SocketSink::start(client, rank, 1_000_000_000, 2)
                    .unwrap()
                    .tee(&tee)
                    .unwrap();
                let recorder = Recorder::start(quiet_config(2, 4096), sink).unwrap();
                for i in 0..500u64 {
                    recorder
                        .rings()
                        .record(rec(20_000 + rng.below(128), rng.below(4) as u32, i));
                }
                let (sink, stats) = recorder.finish().unwrap();
                sink.finish(stats.drained(), stats.drained(), 0).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    });
    let report = daemon.finish();
    assert!(report.reconciled());
    assert_eq!(report.store.len(), 1500);
    let readers: Vec<TraceReader> = tees.iter().map(|p| TraceReader::open(p).unwrap()).collect();
    assert_eq!(
        report.store.export(),
        timeline_bytes(&merge_ranks(&readers).unwrap())
    );
    for tee in tees {
        let _ = std::fs::remove_file(tee);
    }
}

// ---------------------------------------------------------------------
// 3. Quarantine and single-lane degradation.
// ---------------------------------------------------------------------

#[test]
fn epoch_replay_and_gap_quarantine_the_lane() {
    for (bad_epoch, expect) in [(0u64, "re-sent"), (7, "expected")] {
        let mut daemon = Daemon::new(DaemonConfig::default());
        let (mut client, server) = loopback().unwrap();
        daemon.spawn_conn(server);
        write_frame(
            &mut client,
            &Message::Hello {
                rank: 5,
                format_version: ora_trace::format::FORMAT_VERSION,
                ticks_per_sec: 1,
            },
        )
        .unwrap();
        // Epoch 0: the trace header, accepted and acked.
        let mut header = Vec::new();
        ora_trace::format::encode_header(&mut header);
        write_frame(
            &mut client,
            &Message::Chunk {
                epoch: 0,
                payload: header.clone(),
            },
        )
        .unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), Message::Ack { epoch: 0 });
        // Misbehave: replay epoch 0 / skip to epoch 7.
        write_frame(
            &mut client,
            &Message::Chunk {
                epoch: bad_epoch,
                payload: header.clone(),
            },
        )
        .unwrap();
        // The daemon quarantines and closes; no ACK arrives.
        assert!(read_frame(&mut client).is_err());
        let report = daemon.finish();
        let lane = report.lane(5).expect("lane exists");
        let why = lane.quarantined.as_deref().expect("quarantined");
        assert!(why.contains(expect), "{why}");
        assert!(!lane.finished);
    }
}

#[test]
fn corrupting_transport_quarantines_only_its_lane() {
    let mut daemon = Daemon::new(DaemonConfig::default());

    // A healthy rank 0 completes its stream.
    let (_, tee) = stream_rank(
        &mut daemon,
        0,
        (0..200).map(|i| rec(30_000 + i, 0, i)).collect(),
        "quar",
    );

    // Rank 1 streams through a transport that corrupts every byte after
    // the HELLO + header frames made it through clean.
    let (client, server) = loopback().unwrap();
    daemon.spawn_conn(server);
    let faulty = Box::new(FaultConn::new(client, 64, ConnFaultMode::Corrupt));
    let sink = SocketSink::start(faulty, 1, 1_000_000_000, 4).unwrap();
    let recorder = Recorder::start(quiet_config(1, 256), sink).unwrap();
    for i in 0..100u64 {
        recorder.rings().record(rec(30_000 + i, 0, i));
    }
    // The daemon drops the lane on the first corrupt frame; the
    // producer sees the dead socket as a drainer failure (degraded
    // recording), exactly like a failing file sink.
    let _ = recorder.finish();

    let report = daemon.finish();
    let healthy = report.lane(0).unwrap();
    assert!(healthy.finished && healthy.reconciled());
    let bad = report.lane(1).expect("lane 1 registered via clean HELLO");
    assert!(bad.quarantined.is_some(), "corrupt lane quarantined");

    // Rank 0's merged output is exactly its offline trace — the
    // quarantined lane did not perturb it.
    let reader = TraceReader::open(&tee).unwrap();
    let offline = merge_ranks(&[reader]).unwrap();
    let surviving: Vec<_> = report
        .store
        .records()
        .iter()
        .copied()
        .filter(|e| e.rank == 0)
        .collect();
    assert_eq!(timeline_bytes(&surviving), timeline_bytes(&offline));
    let _ = std::fs::remove_file(tee);
}

#[test]
fn killed_rank_degrades_only_its_lane() {
    let mut daemon = Daemon::new(DaemonConfig::default());

    let (_, tee0) = stream_rank(
        &mut daemon,
        0,
        (0..300).map(|i| rec(40_000 + i, 0, i)).collect(),
        "kill",
    );

    // Rank 1 sends HELLO + a few chunks, then its process "dies": the
    // connection drops with no FIN.
    {
        let (client, server) = loopback().unwrap();
        daemon.spawn_conn(server);
        let sink = SocketSink::start(client, 1, 1_000_000_000, 4).unwrap();
        let recorder = Recorder::start(quiet_config(1, 256), sink).unwrap();
        for i in 0..50u64 {
            recorder.rings().record(rec(40_000 + i, 0, i));
        }
        let (sink, _) = recorder.finish().unwrap();
        drop(sink); // no FIN handshake — the rank is gone
    }

    let report = daemon.finish();
    let dead = report.lane(1).expect("killed lane registered");
    assert!(!dead.finished);
    assert!(dead.quarantined.is_some(), "disconnect recorded");

    // Rank 0 is whole: finished, reconciled, and byte-identical to its
    // offline trace within the merged store.
    let lane0 = report.lane(0).unwrap();
    assert!(lane0.finished && lane0.reconciled());
    let offline = merge_ranks(&[TraceReader::open(&tee0).unwrap()]).unwrap();
    let surviving: Vec<_> = report
        .store
        .records()
        .iter()
        .copied()
        .filter(|e| e.rank == 0)
        .collect();
    assert_eq!(timeline_bytes(&surviving), timeline_bytes(&offline));
    let _ = std::fs::remove_file(tee0);
}

/// A governor decision record is metadata the recorder persists and
/// streams like any record. The daemon skips it as the reader does —
/// it used to fail the chunk as "unknown event 255" and quarantine the
/// lane — and counts it apart, so the lane still reconciles.
#[test]
fn a_governor_decision_record_is_counted_not_quarantined() {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let (client, server) = loopback().unwrap();
    daemon.spawn_conn(server);
    let tee = temp_path("governor");
    let sink = SocketSink::start(client, 0, 1_000_000_000, 4)
        .unwrap()
        .tee(&tee)
        .unwrap();
    let recorder = Recorder::start(quiet_config(1, 256), sink).expect("recorder");
    for i in 0..10u64 {
        recorder.rings().record(rec(500 + i, 0, i));
    }
    recorder.rings().record(RawRecord {
        tick: 505,
        event: ora_trace::GOVERNOR_EVENT_CODE,
        region_id: u64::from(ora_core::event::Event::ThreadBeginExplicitBarrier as u32),
        wait_id: ora_trace::pack_governor_decision(0, 3, 91_000),
        ..RawRecord::default()
    });
    let (sink, stats) = recorder.finish().expect("finish");
    assert_eq!(stats.drained(), 11, "the decision is a persisted record");
    let fin = sink
        .finish(
            stats.drained() + stats.dropped(),
            stats.drained(),
            stats.dropped(),
        )
        .expect("fin handshake");
    assert_eq!(fin.stored, 10);

    let report = daemon.finish();
    let lane = report.lane(0).expect("lane registered");
    assert_eq!(lane.quarantined, None);
    assert!(lane.finished);
    assert_eq!((lane.records, lane.governor_records), (10, 1));
    assert!(lane.reconciled(), "events + governor records == drained");
    let offline = merge_ranks(&[TraceReader::open(&tee).unwrap()]).unwrap();
    assert_eq!(report.store.export(), timeline_bytes(&offline));
    let _ = std::fs::remove_file(tee);
}

#[test]
fn version_mismatch_is_rejected_before_a_lane_exists() {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let (mut client, server) = loopback().unwrap();
    daemon.spawn_conn(server);
    write_frame(
        &mut client,
        &Message::Hello {
            rank: 9,
            format_version: 0xbeef,
            ticks_per_sec: 1,
        },
    )
    .unwrap();
    assert!(read_frame(&mut client).is_err(), "daemon closes");
    let report = daemon.finish();
    assert!(report.lanes.is_empty());
    assert_eq!(report.rejected.len(), 1);
    assert!(
        report.rejected[0].contains("version"),
        "{:?}",
        report.rejected
    );
}

// ---------------------------------------------------------------------
// 4. Run-merge edge cases.
// ---------------------------------------------------------------------

/// A rank driven by hand, one acked frame at a time, so a test decides
/// the arrival order. Every sink write is kept: the same bytes read
/// back as the rank's offline trace file.
struct HandRank {
    conn: Box<dyn ora_fleet::transport::FrameConn>,
    epoch: u64,
    file: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    records: u64,
}

impl HandRank {
    /// Connect, introduce `rank`, and send the trace header.
    fn open(daemon: &mut Daemon, rank: u64) -> HandRank {
        let (mut conn, server) = loopback().unwrap();
        daemon.spawn_conn(server);
        write_frame(
            &mut conn,
            &Message::Hello {
                rank,
                format_version: format::FORMAT_VERSION,
                ticks_per_sec: 1_000_000_000,
            },
        )
        .unwrap();
        let mut hand = HandRank {
            conn,
            epoch: 0,
            file: Vec::new(),
            chunks: Vec::new(),
            records: 0,
        };
        let mut header = Vec::new();
        format::encode_header(&mut header);
        hand.send(header);
        hand
    }

    /// Send one sink write without waiting for its ACK.
    fn send_unacked(&mut self, unit: Vec<u8>) {
        write_frame(
            &mut self.conn,
            &Message::Chunk {
                epoch: self.epoch,
                payload: unit.clone(),
            },
        )
        .unwrap();
        self.epoch += 1;
        self.file.extend_from_slice(&unit);
    }

    /// Send one sink write; returns once the daemon has merged it.
    fn send(&mut self, unit: Vec<u8>) {
        self.send_unacked(unit);
        assert_eq!(
            read_frame(&mut self.conn).unwrap(),
            Message::Ack {
                epoch: self.epoch - 1
            }
        );
    }

    fn chunk(&mut self, records: &[RawRecord]) {
        let mut unit = Vec::new();
        let meta = format::encode_chunk(&mut unit, self.file.len() as u64, 0, records);
        self.chunks.push(meta);
        self.records += records.len() as u64;
        self.send(unit);
    }

    /// Footer, FIN handshake; returns what FIN-ACK said was stored and
    /// the rank's file.
    fn close(mut self) -> (u64, TraceReader) {
        let footer = Footer {
            lanes: vec![LaneStats {
                written: self.records,
                drained: self.records,
                ..LaneStats::default()
            }],
            chunks: std::mem::take(&mut self.chunks),
        };
        let mut unit = Vec::new();
        format::encode_footer(&mut unit, &footer);
        self.send(unit);
        write_frame(
            &mut self.conn,
            &Message::Fin {
                observed: self.records,
                drained: self.records,
                dropped: 0,
            },
        )
        .unwrap();
        let Message::FinAck { stored, .. } = read_frame(&mut self.conn).unwrap() else {
            panic!("expected FIN-ACK");
        };
        (stored, TraceReader::from_bytes(self.file).unwrap())
    }
}

/// `count` records at ticks `from, from + step, ...`, stamped with the
/// next sequence numbers of `seq`.
fn ticks(seq: &mut u64, from: u64, step: u64, count: u64) -> Vec<RawRecord> {
    (0..count)
        .map(|i| {
            *seq += 1;
            RawRecord {
                tick: from + i * step,
                seq: *seq,
                event: 1, // Fork
                ..RawRecord::default()
            }
        })
        .collect()
}

#[test]
fn a_chunk_header_claiming_u64_max_records_quarantines_only_its_lane() {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut honest = HandRank::open(&mut daemon, 0);
    let mut hostile = HandRank::open(&mut daemon, 1);
    let mut seq = 0;
    honest.chunk(&ticks(&mut seq, 70_000, 2, 50));

    // A well-formed one-record chunk, its count field rewritten to
    // u64::MAX. The CRC covers only the payload, so it still matches.
    let mut real = Vec::new();
    format::encode_chunk(&mut real, 0, 0, &ticks(&mut 0, 70_001, 1, 1));
    assert_eq!(&real[..3], &[format::TAG_CHUNK, 0, 1], "tag, lane, count");
    let mut lying = vec![format::TAG_CHUNK, 0];
    format::put_varint(&mut lying, u64::MAX);
    lying.extend_from_slice(&real[3..]);
    hostile.send_unacked(lying);
    // The daemon quarantines and closes; no ACK arrives.
    assert!(read_frame(&mut hostile.conn).is_err());

    // The other lane carries on, above and below what it already sent.
    honest.chunk(&ticks(&mut seq, 70_100, 2, 50));
    honest.chunk(&ticks(&mut seq, 69_000, 2, 50));
    let (stored, file) = honest.close();
    assert_eq!(stored, 150);

    let report = daemon.finish();
    let bad = report.lane(1).expect("hostile lane registered");
    let why = bad.quarantined.as_deref().expect("quarantined");
    assert!(why.contains("count"), "{why}");
    assert!(!bad.finished);
    assert_eq!(bad.records, 0);
    let good = report.lane(0).unwrap();
    assert!(good.finished && good.reconciled());
    assert_eq!(
        report.store.export(),
        timeline_bytes(&merge_ranks(&[file]).unwrap())
    );
    assert_eq!(report.store.late_events(), 50);
}

#[test]
fn threads_sharing_a_ring_lane_merge_identically_to_offline() {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let (client, server) = loopback().unwrap();
    daemon.spawn_conn(server);
    let tee = temp_path("shared_lane");
    let sink = SocketSink::start(client, 0, 1_000_000_000, 4)
        .unwrap()
        .tee(&tee)
        .unwrap();
    // One ring lane for both producers, drained only at finish: gtid 0
    // commits its first half (ticks from 60 000) before gtid 1 commits
    // anything (ticks from 50 000), so whatever the two do after the
    // barrier, the first chunk is not key-sorted.
    let recorder = Recorder::start(quiet_config(1, 4096), sink).unwrap();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for gtid in 0..2u32 {
            let (rings, start) = (recorder.rings(), &start);
            scope.spawn(move || {
                let base = 60_000 - 10_000 * u64::from(gtid);
                for i in 0..1500u64 {
                    if i == 750 * u64::from(1 - gtid) {
                        start.wait();
                    }
                    rings.record(rec(base + i, gtid, i));
                }
            });
        }
    });
    let (sink, stats) = recorder.finish().unwrap();
    assert_eq!((stats.drained(), stats.dropped()), (3000, 0));
    sink.finish(3000, 3000, 0).unwrap();

    let report = daemon.finish();
    assert!(report.reconciled());
    assert_eq!(report.store.len(), 3000);
    let offline = merge_ranks(&[TraceReader::open(&tee).unwrap()]).unwrap();
    assert_eq!(report.store.export(), timeline_bytes(&offline));
    let _ = std::fs::remove_file(tee);
}

#[test]
fn a_rank_lagging_far_behind_in_tick_space_still_merges_identically() {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut ahead: Vec<HandRank> = (0..2).map(|r| HandRank::open(&mut daemon, r)).collect();
    let mut laggard = HandRank::open(&mut daemon, 2);
    let mut seqs = [0u64; 3];

    // Ranks 0 and 1 run a million ticks ahead, on the *same* ticks (the
    // rank is the only tie-break), while rank 2 has acked nothing: the
    // watermark holds all of it back.
    for round in 0..10u64 {
        for (r, rank) in ahead.iter_mut().enumerate() {
            rank.chunk(&ticks(&mut seqs[r], 1_000_000 + round * 300, 3, 100));
        }
    }
    // Rank 2 creeps forward from far below: each of its chunks moves the
    // watermark a little and releases only its own records.
    for round in 0..20u64 {
        laggard.chunk(&ticks(&mut seqs[2], 1_000 + round * 50, 1, 50));
        if round % 4 == 0 {
            let r = (round / 4 % 2) as usize;
            ahead[r].chunk(&ticks(&mut seqs[r], 1_003_000 + round * 300, 3, 100));
        }
    }
    // It jumps into the middle of the others' window (a three-way
    // flush), then sends a chunk below everything settled so far.
    laggard.chunk(&ticks(&mut seqs[2], 1_001_500, 2, 200));
    laggard.chunk(&ticks(&mut seqs[2], 500, 1, 40));

    let mut files = Vec::new();
    let mut sent = 0;
    for rank in ahead.into_iter().chain([laggard]) {
        sent += rank.records;
        let records = rank.records;
        let (stored, file) = rank.close();
        assert_eq!(stored, records);
        files.push(file);
    }
    let report = daemon.finish();
    assert!(report.reconciled());
    assert_eq!(report.store.len() as u64, sent);
    // Only the last chunk settled below the frontier: a flush that
    // releases several ranks' records settles them as one merged run,
    // so ranks sharing a tick window are not late against each other.
    assert_eq!(report.store.late_events(), 40);
    assert_eq!(
        report.store.export(),
        timeline_bytes(&merge_ranks(&files).unwrap())
    );
}
