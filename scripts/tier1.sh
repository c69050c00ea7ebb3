#!/usr/bin/env bash
# Tier-1 verification: the hermetic build-and-test gate (see ROADMAP.md).
#
# Runs fully offline — the workspace has no registry dependencies, so
# `--offline` both works and enforces that nobody reintroduces one.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with an actionable message when the rustfmt component is
# missing (a bare-bones toolchain install) — otherwise `cargo fmt`
# fails mid-gate with rustup noise that buries the real problem.
if ! cargo fmt --version >/dev/null 2>&1; then
  echo "tier1: 'cargo fmt' is unavailable — install the rustfmt component" >&2
  echo "tier1:   rustup component add rustfmt clippy" >&2
  echo "tier1: (rust-toolchain.toml pins it; a non-rustup toolchain must provide it itself)" >&2
  exit 1
fi

cargo fmt --all --check
# One wait primitive: every sleep/wake in the crates goes through
# `ora_core::park`: `EventCount`, or `Doorbell` for the trace drainer's
# timed wait. The parking slot and the raw `thread::park` calls live in
# park.rs alone, so a private copy of the protocol cannot come back
# anywhere else.
if grep -rn -e 'ParkSlot' -e 'thread::park' crates/ | grep -v '^crates/core/src/park.rs:'; then
  echo "tier1: ParkSlot / thread::park outside crates/core/src/park.rs — wait on an EventCount" >&2
  exit 1
fi
# One meter: overhead is measured in `benchmark/` only, so no crate
# carries bench targets or a feature-gated harness of its own.
if grep -rn -e '\[\[bench\]\]' -e 'criterion_main!' -e '^\[features\]' crates/; then
  echo "tier1: bench target / feature table under crates/ — overhead is measured in benchmark/ only" >&2
  exit 1
fi
# One time base: the process epoch lives in ora_core::clock alone.
if grep -rn 'OnceLock<Instant>' crates/ | grep -v '^crates/core/src/clock.rs:'; then
  echo "tier1: OnceLock<Instant> outside crates/core/src/clock.rs — read ora_core::clock::ticks" >&2
  exit 1
fi
# One counter read: the TSC is read in ora_core::clock alone, ordered
# and scaled to nanoseconds, so no second, unscaled or unordered time
# base comes back beside `ticks`.
if grep -rnE '_rdtsc|__rdtscp' crates/ | grep -v '^crates/core/src/clock.rs:'; then
  echo "tier1: _rdtsc / __rdtscp outside crates/core/src/clock.rs — read ora_core::clock::ticks" >&2
  exit 1
fi
# A lock-free state callback: each StateTimer slot has one writer (the
# thread that claimed it), which updates it with plain loads and stores.
if grep -n 'Mutex' crates/collector/src/state_timer.rs; then
  echo "tier1: Mutex in crates/collector/src/state_timer.rs — write the firing thread's own slot with single-writer atomics" >&2
  exit 1
fi
# One byte cursor: every decoder of outside bytes reads through
# `ora_core::bytes::Cursor`, so no private varint or fixed-width reader
# with its own bounds checks comes back beside it.
if grep -rnE 'fn (get_varint|read_u32|read_u64|body_varint)\b' crates/ \
    | grep -v '^crates/core/src/bytes.rs:'; then
  echo "tier1: hand-rolled byte reader outside crates/core/src/bytes.rs — read through ora_core::bytes::Cursor" >&2
  exit 1
fi
# One attach path: every collector tool is a lane of `lane::Collector`,
# whose attach is the only code in the collector crate that starts
# collection, so the handshake's failure handling exists once.
if [ "$(grep -rn 'Request::Start' crates/collector/src | wc -l)" -ne 1 ]; then
  grep -rn 'Request::Start' crates/collector/src >&2 || true
  echo "tier1: Request::Start must appear exactly once under crates/collector/src — attach through lane::Collector" >&2
  exit 1
fi
# One chunk-stream walker: only `ora_trace::format` classifies trace
# units by their tag bytes or magic; every other reader of trace bytes
# walks `format::units`. Test code (a file's `#[cfg(test)]` tail, and
# `tests/`) may still craft units by hand.
walkers=$(for f in $(grep -rlwE 'TAG_CHUNK|TAG_FOOTER|FILE_MAGIC' crates/*/src); do
  [ "$f" = crates/trace/src/format.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /(^|[^A-Za-z0-9_])(TAG_CHUNK|TAG_FOOTER|FILE_MAGIC)([^A-Za-z0-9_]|$)/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$walkers" ]; then
  echo "$walkers" >&2
  echo "tier1: trace tag/magic outside crates/trace/src/format.rs — walk the stream with format::units" >&2
  exit 1
fi
# One trace writer: version 2. The reader still decodes v1 chunks, but
# nothing under crates/*/src writes one again: the v1 tag and version
# appear only where format.rs defines and reads them, `fn encode_chunk`
# is defined once, and the v1 payload encoder is gone.
v1_writers=$( (grep -rnw -e 'TAG_CHUNK_V1' -e 'FORMAT_VERSION_V1' crates/*/src \
    | grep -vE 'pub const (TAG_CHUNK_V1|FORMAT_VERSION_V1)|TAG_CHUNK_V1\) =>|TAG_CHUNK_V1 =>|FORMAT_VERSION_V1 =>|FORMAT_VERSION_V1\.\.=' ;
  grep -rnE 'fn encode_payload\b' crates/*/src) || true)
if [ -n "$v1_writers" ] || [ "$(grep -rnE 'fn encode_chunk\b' crates/ | wc -l)" -ne 1 ]; then
  echo "$v1_writers" >&2
  grep -rnE 'fn encode_chunk\b' crates/ >&2 || true
  echo "tier1: a v1 trace writer under crates/*/src — write chunks with format::encode_chunk (v2); v1 is read only" >&2
  exit 1
fi
# One fork path: every team member, top-level or leased to a nested
# team, is handed its region through its descriptor's hand-off slot and
# runs it in `pool::serve`, the one place a worker calls the region body.
if [ "$(grep -rn '\.closure\.call(' crates/omprt/src | wc -l)" -ne 1 ]; then
  grep -rn '\.closure\.call(' crates/omprt/src >&2 || true
  echo "tier1: .closure.call( must appear exactly once under crates/omprt/src — run regions through pool::serve" >&2
  exit 1
fi
if grep -rnE 'TeamSlot|LeaseSlot' crates/; then
  echo "tier1: TeamSlot / LeaseSlot under crates/ — hand work through Shared::hand" >&2
  exit 1
fi
# One merge kernel: `ora_trace::merge_run` is the backward merge under
# both the reader's lane cursors and the fleet store, so no record heap
# comes back beside it: no RankMergeHeap under
# crates/, exactly one `fn merge_run`, and no heap at all in the fleet
# crate.
if grep -rn 'RankMergeHeap' crates/; then
  echo "tier1: RankMergeHeap under crates/ — merge sorted runs with ora_trace::merge_run" >&2
  exit 1
fi
if [ "$(grep -rnE 'fn merge_run\b' crates/ | wc -l)" -ne 1 ]; then
  grep -rnE 'fn merge_run\b' crates/ >&2 || true
  echo "tier1: fn merge_run must be defined exactly once under crates/ (ora_trace::reader)" >&2
  exit 1
fi
if grep -rn 'BinaryHeap' crates/fleet/src; then
  echo "tier1: BinaryHeap under crates/fleet/src — settle runs with ora_trace::merge_run" >&2
  exit 1
fi
# The daemon queues, the store merges: a flush settles each queued run's
# slice straight into the store, so the code of the non-test part of
# daemon.rs neither merges runs nor gathers them into a flush batch.
if awk '/^#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' crates/fleet/src/daemon.rs \
    | grep -E 'merge_run\(|\bbatch\b'; then
  echo "tier1: merge_run( or a batch in crates/fleet/src/daemon.rs — queue decoded runs and settle their slices with FleetStore::settle_run" >&2
  exit 1
fi
# One merge in the reader: every query collects the lane-cursor merge,
# so no eager decode-sort-merge comes back beside it.
if grep -rnE 'fn (kway_merge|merged_where)\b' crates/; then
  echo "tier1: a second merge in the reader — collect the lane-cursor merge (ora_trace::reader::collect_merge)" >&2
  exit 1
fi
# Store queries in their hits: `FleetStore::for_rank` / `for_region`
# copy their records out through the lazy query index, so no scan of the
# whole timeline comes back beside it in the non-test part of store.rs.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/fleet/src/store.rs \
    | grep -F -e '.filter(|e| e.rank ==' -e '.filter(|e| e.record.region_id =='; then
  echo "tier1: a timeline scan in crates/fleet/src/store.rs — answer rank and region queries through the query index" >&2
  exit 1
fi
# One timeline segment encoder: `ora_trace::analyze::encode_segments`
# writes every segment of a v2 timeline, for `timeline_bytes` and for
# the fleet store's settled records alike, so an export and the offline
# encoding cannot drift apart: exactly one `fn encode_segments` under
# crates/, and no delta coding of its own in the fleet crate.
if [ "$(grep -rnE 'fn encode_segments\b' crates/ | wc -l)" -ne 1 ] \
    || grep -rn 'zigzag(' crates/fleet/src; then
  grep -rnE 'fn encode_segments\b' crates/ >&2 || true
  echo "tier1: fn encode_segments must be defined exactly once under crates/ (ora_trace::analyze), and crates/fleet/src must not delta-code records itself" >&2
  exit 1
fi
# Export copies segments: the store keeps its settled records encoded,
# so the non-test part of store.rs never re-encodes the timeline.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/fleet/src/store.rs \
    | grep -F 'timeline_bytes('; then
  echo "tier1: timeline_bytes( in the non-test part of crates/fleet/src/store.rs — export copies the encoded segments" >&2
  exit 1
fi
# One delivery count: a delivered event is counted once, by its dispatch
# lane's `sampled` word, so no second fired counter, batch flush or
# quiet invoke path comes back beside it.
if grep -rnE 'invoke_quiet|add_fired|flush_event_counts|fire_count|pending_fired|flush_every' crates/; then
  echo "tier1: second delivery count under crates/ — count deliveries with the lane's sampled counter" >&2
  exit 1
fi
# Mapped rings: a slot stores its sequence relative to its index, so a
# ring's slots are an anonymous mapping of their own and no slot is
# written at construction; a lane nobody records into costs address
# space only, however many ring sets the process built and freed before
# (heap memory would be zeroed by writing once glibc raises its mmap
# threshold).
if grep -n 'AtomicU64::new(i as u64)' crates/trace/src/ring.rs \
    || ! grep -q 'mmap(' crates/trace/src/ring.rs; then
  echo "tier1: crates/trace/src/ring.rs initialises its slots or takes them from the heap — map them (mmap) and leave them untouched" >&2
  exit 1
fi
# A drain that follows the event rate: the drainer sleeps on the ring
# set's doorbell, which a Block lane rings when it needs a sweep, not on
# a channel timeout that only the epoch ends.
if grep -n 'recv_timeout' crates/trace/src/drain.rs; then
  echo "tier1: recv_timeout in crates/trace/src/drain.rs — wait on the ring set's Doorbell" >&2
  exit 1
fi
# Per-lane trace counters: a collector's per-event counters live one set
# per ring lane on its own cache line, so no team-shared counter array
# comes back on the traced path.
if grep -rn '\[AtomicU64; EVENT_COUNT\]' crates/collector/src \
    | grep -v 'CachePadded<\[AtomicU64; EVENT_COUNT\]>'; then
  echo "tier1: [AtomicU64; EVENT_COUNT] outside a CachePadded under crates/collector/src — count per ring lane" >&2
  exit 1
fi
# One status request: `OMP_REQ_HEALTH` (`ApiHealth`) is the collector
# API's one fixed-layout status reply and `handle_bytes` /
# `handle_request` its only serve paths, so no governor request, stats
# snapshot or typed batch path comes back beside them, and message.rs
# lays out one reply struct.
if grep -rnE 'QueryGovernor|OMP_REQ_GOVERNOR|GOVERNOR_RESPONSE_BYTES|ApiStats|fn handle_requests\b' crates/; then
  echo "tier1: a second status request or serve path under crates/ — answer status with OMP_REQ_HEALTH, read the governor in-process" >&2
  exit 1
fi
if [ "$(grep -c 'word_layout!(' crates/core/src/message.rs)" -gt 1 ]; then
  grep -n 'word_layout!(' crates/core/src/message.rs >&2
  echo "tier1: more than one word_layout! reply in crates/core/src/message.rs — OMP_REQ_HEALTH is the one fixed-layout reply" >&2
  exit 1
fi
# One lock word per critical name, one queue per task thread: a
# critical section takes the caller's `WordLock` (no runtime-wide name
# map), and a task push lands on its owner's deque (no shared spill).
if grep -rnE 'critical_lock|criticals:|pop_overflow|eligible_for' crates/omprt/src \
    || grep -rnF 'fn critical(&self, name: &str' crates/; then
  echo "tier1: a criticals map, a by-name critical or a task spill queue under crates/ — pass a WordLock, push onto the owner's deque" >&2
  exit 1
fi
# Unfenced pins: a monitored event's pin and unpin are plain stores
# (a relaxed store behind a compiler fence, a release store); the
# `SeqCst` fence lives in `fenced_pin`, the fallback for hosts that
# refuse membarrier, and the writer's barrier pays for the rest.
pins=$(awk '/^pub fn pin\(/,/^}/ { print FILENAME ":" FNR ": " $0 }
  /^impl Drop for Pin /,/^}/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/rcu.rs)
if [ -z "$pins" ] || grep -v 'compiler_fence(Ordering::SeqCst)' <<<"$pins" | grep 'SeqCst'; then
  echo "tier1: SeqCst in rcu::pin / Pin::drop outside the fallback — pin with plain stores, fence in fenced_pin" >&2
  exit 1
fi
# The reserved cursor is the record: a ring's seq is the cursor its CAS
# took and its written count is the enqueue cursor, so no second counter
# is bumped per record.
if grep -nE 'next_seq|take_seq|written\.fetch_add' crates/trace/src/ring.rs; then
  echo "tier1: a per-record seq or written counter in crates/trace/src/ring.rs — read both off the enqueue cursor" >&2
  exit 1
fi
# Hand-declared system calls: `syscall` is declared against the C
# library in two audited places only (DESIGN.md §4).
if grep -rn 'fn syscall(' crates/ | grep -v -e '^crates/core/src/rcu.rs:' -e '^crates/core/src/clock.rs:'; then
  echo "tier1: syscall( declared outside crates/core/src/rcu.rs and clock.rs — keep the unsafe surface where DESIGN.md §4 audits it" >&2
  exit 1
fi
# One lane per thread: the governor's lanes are keyed by the thread's
# slot and written only by that thread, so no gtid-hashed lane table, no
# round-robin request lanes and no locked add on a lane counter comes
# back.
if grep -rnE 'RequestLanes|NEXT_LANE|QUEUE_SHARDS|gtid & \(LANE_COUNT' crates/; then
  echo "tier1: a gtid-hashed or round-robin lane under crates/ — count on the thread's own governor lane (ora_core::thread::slot)" >&2
  exit 1
fi
# One thread identity: every per-thread structure is an
# `ora_core::thread::SlotTable` keyed by the thread's slot, so no
# gtid-indexed collector table and no second lazily boxed per-slot table
# comes back.
if grep -rn 'MAX_THREADS' crates/collector/src; then
  echo "tier1: MAX_THREADS under crates/collector/src — key per-thread accounting by ora_core::thread::SlotTable" >&2
  exit 1
fi
if grep -rnE 'lanes_high|Box<\[AtomicPtr' crates/ | grep -v '^crates/core/src/thread.rs:'; then
  echo "tier1: a per-slot pointer table outside crates/core/src/thread.rs — use ora_core::thread::SlotTable" >&2
  exit 1
fi
if grep -rnE '(\bsampled|\bskipped|\bobserved\[[^]]*\]|\bpace\[[^]]*\])\.fetch_add' crates/core/src; then
  echo "tier1: .fetch_add on a governor lane counter in crates/core/src — a lane has one writer: load and store" >&2
  exit 1
fi
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The RCU reclaim tests once more, optimized: only there is a reader's
# pin close enough to its pointer load for the store buffer to hide it,
# so only there does the churn test catch a writer that skips its
# barrier.
cargo test -q --release --offline -p ora-core --lib rcu::
# The governor's exactness test once more, optimized: a lane shared by
# two threads loses updates most reliably there.
cargo test -q --release --offline -p ora-core --test governor_exactness

# The standalone benchmark package builds against the crates' public
# API from outside the workspace: a deletion that breaks it must fail
# here, not in the benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Fuzzer smoke slice: replay every curated regression case through the
# oracle-differential harness via the CLI (the deep seeded sweep is the
# nightly fuzz job; this is the fast fixed net).
cargo run -q --release --offline -p ora-bench --bin omp_prof -- \
  fuzz --cases tests/fuzz_cases
# A short seeded sweep of the governed rung alone: its ledger,
# summary/status agreement and sampled-trace pairing, on scenarios the
# governor actually samples down.
cargo run -q --release --offline -p ora-bench --bin omp_prof -- \
  fuzz --seeds 25 --rungs governed

# CLI smoke of the timeline surfaces no test drives: record → report →
# analyze on a file, a report with combined filters, a report of the
# same file with its footer cut off,
# the in-memory `--tool trace` with its CSV export,
# the three-section `--tool suite`, the `--tool selective` savings line,
# and a two-rank and a four-rank `fleet` whose online merge must equal
# the offline one (a merge-order regression, or one in flushes that
# settle several lanes' queued runs, fails the push gate, not the
# nightly stress sweep). Output goes to files first
# so a short-circuiting grep cannot break the pipe under `pipefail`.
omp_prof=target/release/omp_prof
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
"$omp_prof" trace record --workload epcc --out "$smoke/run.oratrace" >"$smoke/record.txt"
# Trace format v2 writes a dense record in two bytes: the epcc recording
# stays at or below 6 bytes a record (v1 wrote about 9).
awk '/B\/record\)$/ { v = $(NF-1); gsub(/[(]/, "", v); n = v + 0; seen = 1 }
  END { if (!seen || n > 6.0) { print "tier1: epcc trace at " n " B/record, above 6.0" > "/dev/stderr"; exit 1 } }' \
  "$smoke/record.txt"
"$omp_prof" trace report --in "$smoke/run.oratrace" --head 5 >"$smoke/report.txt"
grep -q '^first 5 records:$' "$smoke/report.txt"
grep -Eq '^  started [0-9]{4}-[0-9]{2}-[0-9]{2} [0-9:.]+ UTC' "$smoke/report.txt"
# Filters combine: a region's records inside a window that starts long
# after the run are none of them.
"$omp_prof" trace report --in "$smoke/run.oratrace" --region 1 --from-us 1000000000000 \
  >"$smoke/filtered.txt"
grep -q 'query matched 0 records$' "$smoke/filtered.txt"
# analyze exits 4 when it has findings to report; both are a working CLI.
"$omp_prof" trace analyze --in "$smoke/run.oratrace" >/dev/null || [ $? -eq 4 ]
# A recording killed before its footer: cut the footer off (its payload
# length is the u32 before the 6-byte trailing magic; tag, CRC, length
# and magic add 15 bytes). `trace report` salvages the chunks, says so,
# and exits 5.
size=$(wc -c <"$smoke/run.oratrace")
footer=$(( $(tail -c 10 "$smoke/run.oratrace" | head -c 4 | od -An -tu4) + 15 ))
head -c $((size - footer)) "$smoke/run.oratrace" >"$smoke/torn.oratrace"
status=0
"$omp_prof" trace report --in "$smoke/torn.oratrace" --head 5 >"$smoke/torn.txt" || status=$?
[ "$status" -eq 5 ]
grep -Eq 'salvaged: [0-9]+ chunks, 0 bytes discarded; drop counts unknown$' "$smoke/torn.txt"
"$omp_prof" --workload epcc --tool trace --csv >"$smoke/trace.txt"
# The CSV section follows the report: its first line is the header.
[ "$(sed -n '/^tick,/,$p' "$smoke/trace.txt" | head -1)" = "tick,gtid,event,region_id,wait_id" ]
sed -n '/^tick,/,$p' "$smoke/trace.txt" | sed -n 2p | grep -Eq '^[0-9]+(,[0-9]+){4}$'
"$omp_prof" --workload epcc --tool suite >"$smoke/suite.txt"
for section in profile 'state times' trace; do
  grep -q "^=== $section ===" "$smoke/suite.txt"
done
# The §VI policy as ProfilerConfig fields: duration gate + per-site cap.
"$omp_prof" --workload epcc --tool selective >"$smoke/selective.txt"
grep -Eq '^joins [0-9]+ \| sampled [0-9]+ .*\| savings [0-9.]+%$' "$smoke/selective.txt"
for ranks in 2 4; do
  "$omp_prof" fleet --ranks "$ranks" --threads 2 --workload lu-mz --class s \
    --out-dir "$smoke/fleet$ranks" >"$smoke/fleet$ranks.txt"
  grep -q 'export byte-identical to offline merge_ranks: yes' "$smoke/fleet$ranks.txt"
done
# The two surfaces whose numbers the request path feeds: the state-time
# table (one OMP_REQ_STATE per event) and the served-request count that
# `health` reads from the per-thread governor lanes.
"$omp_prof" --workload epcc --tool states >"$smoke/states.txt"
grep -q 'efficiency$' "$smoke/states.txt"
grep -Eq '^[0-9]+ .*[0-9.]+%$' "$smoke/states.txt"
"$omp_prof" health --threads 2 >"$smoke/health.txt"
awk '/^requests served/ { n = $NF } END { exit !(n > 0) }' "$smoke/health.txt"

echo "tier1: OK"
