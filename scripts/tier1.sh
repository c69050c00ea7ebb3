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
# `ora_core::park::EventCount`. Its parking slot and the raw
# `thread::park` call live in park.rs alone, so a private copy of the
# protocol cannot come back anywhere else.
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
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline --workspace
cargo test -q --offline --workspace

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
# analyze on a file, the in-memory `--tool trace` with its CSV export,
# the three-section `--tool suite`, the `--tool selective` savings line,
# and a two-rank `fleet` whose online
# merge must equal the offline one (a merge-order regression fails the
# push gate, not the nightly stress sweep). Output goes to files first
# so a short-circuiting grep cannot break the pipe under `pipefail`.
omp_prof=target/release/omp_prof
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
"$omp_prof" trace record --workload epcc --out "$smoke/run.oratrace" >/dev/null
"$omp_prof" trace report --in "$smoke/run.oratrace" --head 5 >"$smoke/report.txt"
grep -q '^first 5 records:$' "$smoke/report.txt"
# analyze exits 4 when it has findings to report; both are a working CLI.
"$omp_prof" trace analyze --in "$smoke/run.oratrace" >/dev/null || [ $? -eq 4 ]
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
"$omp_prof" fleet --ranks 2 --threads 2 --workload lu-mz --class s \
  --out-dir "$smoke/fleet" >"$smoke/fleet.txt"
grep -q 'export byte-identical to offline merge_ranks: yes' "$smoke/fleet.txt"
# The two surfaces whose numbers the request path feeds: the state-time
# table (one OMP_REQ_STATE per event) and the served-request count that
# `health` reads from the per-thread request lanes.
"$omp_prof" --workload epcc --tool states >"$smoke/states.txt"
grep -q 'efficiency$' "$smoke/states.txt"
grep -Eq '^[0-9]+ .*[0-9.]+%$' "$smoke/states.txt"
"$omp_prof" health --threads 2 >"$smoke/health.txt"
awk '/^requests served/ { n = $NF } END { exit !(n > 0) }' "$smoke/health.txt"

echo "tier1: OK"
