//! A recording killed mid-run is still a readable trace.
//!
//! `omp_prof trace record` is SIGKILLed once at least three chunks have
//! reached its file. Opening the file must salvage exactly the records
//! of its complete chunks — v2 chunks behind a v2 header — which this
//! test counts on its own by decoding chunk after chunk until one
//! fails.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ora_trace::format::{decode_chunk, FILE_MAGIC, FORMAT_VERSION, HEADER_LEN, TAG_CHUNK};
use ora_trace::{RawRecord, TraceEvent, TraceReader};

/// The records of every complete v2 chunk after the v2 header, decoded
/// one chunk at a time until one is torn or absent.
fn complete_chunks(bytes: &[u8]) -> Vec<Vec<RawRecord>> {
    let mut chunks = Vec::new();
    let mut pos = HEADER_LEN;
    while bytes.get(pos) == Some(&TAG_CHUNK) {
        let Ok((_, records)) = decode_chunk(bytes, &mut pos) else {
            break;
        };
        chunks.push(records);
    }
    chunks
}

/// Kills and reaps the child if the test fails first.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Poll `path`'s size, and decode it whenever it grew, until at least
/// `chunks` complete chunks are in it.
fn wait_for_chunks(path: &Path, child: &mut Child, chunks: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen = 0;
    loop {
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        if len > seen {
            seen = len;
            let bytes = std::fs::read(path).expect("read the growing trace");
            if complete_chunks(&bytes).len() >= chunks {
                return;
            }
        }
        let exited = child.try_wait().expect("poll the recording");
        assert!(exited.is_none(), "the recording exited ({exited:?}) first");
        assert!(Instant::now() < deadline, "{chunks} chunks never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_sigkilled_recording_reads_back_its_complete_chunks() {
    let path = std::env::temp_dir().join(format!(
        "ora_killed_recording_{}.oratrace",
        std::process::id()
    ));
    let child = Command::new(env!("CARGO_BIN_EXE_omp_prof"))
        .args(["trace", "record", "--workload", "lu-hp", "--class", "w"])
        .args(["--threads", "2", "--out"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn omp_prof");
    let mut child = Reaper(child);
    wait_for_chunks(&path, &mut child.0, 3);
    // `Child::kill` is SIGKILL on Unix: no destructor, no footer.
    child.0.kill().expect("SIGKILL the recording");
    child.0.wait().expect("reap the recording");

    let bytes = std::fs::read(&path).expect("the killed recording left its file");
    assert_eq!(&bytes[..6], FILE_MAGIC);
    assert_eq!(&bytes[6..8], FORMAT_VERSION.to_le_bytes(), "a v2 recording");
    let chunks = complete_chunks(&bytes);
    assert!(chunks.len() >= 3, "{} complete chunks", chunks.len());
    let mut want: Vec<TraceEvent> = chunks
        .iter()
        .flatten()
        .map(|r| TraceEvent::from_raw(r).expect("a recorded event"))
        .collect();
    want.sort_by_key(TraceEvent::key);

    let reader = TraceReader::open(&path);
    let _ = std::fs::remove_file(&path);
    let reader = reader.expect("a killed recording opens");
    let salvage = reader
        .salvaged()
        .expect("without a footer the trace is salvaged");
    assert_eq!(salvage.chunks, chunks.len());
    assert!(reader.anchor().is_some(), "the v2 header's clock anchor");
    assert_eq!(reader.dropped(), None, "drop counts are unknown");
    assert_eq!(reader.record_count(), want.len() as u64);
    assert_eq!(reader.records().expect("complete chunks decode"), want);
}
