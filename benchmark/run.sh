#!/usr/bin/env bash
# The repository's one benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       Build, then run all six workloads, each in its own process; print
#       every metric as `workload metric value unit`; write
#       benchmark/out/results.json (and, with --traced, one span file per
#       workload). Exits non-zero if any workload fails a check.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       Build, then run one workload; the last line of standard output is
#       the JSON result the acceptance driver reads.
#
# Run from the repository root. Honours CARGO_TARGET_DIR.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

# glibc grows its mmap/trim thresholds as large blocks are freed, which
# makes the cost of the next multi-megabyte allocation (a ring set, a
# trace buffer) depend on what the process freed before. Pinning the
# threshold at its initial value turns that adjustment off, so attach and
# decode cost the same in every round. It is a setting of the harness,
# the same on every commit.
export MALLOC_MMAP_THRESHOLD_=131072

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/ora-benchmark"

seed=""
seconds=""
traced=0
single=0
for arg in "$@"; do
    case "$arg" in
        --workload|--trace) single=1 ;;
    esac
done
if [ "$single" = 1 ]; then
    exec "$bin" --out-dir "$out" "$@"
fi

while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$out"
args=()
[ -n "$seed" ] && args+=(--seed "$seed")
[ -n "$seconds" ] && args+=(--seconds "$seconds")
workloads=(sync-storm task-flood compute-npb fleet-live fleet-replay offline-merge)
failed=0
results="{"
for w in "${workloads[@]}"; do
    modes=(0)
    [ "$traced" = 1 ] && modes=(0 1)
    results+="\"$w\": {"
    for mode in "${modes[@]}"; do
        log="$out/$w.trace$mode.txt"
        if ! "$bin" --out-dir "$out" --workload "$w" --trace "$mode" "${args[@]}" >"$log"; then
            failed=1
            echo "run.sh: $w (--trace $mode) FAILED" >&2
        fi
        # Metric lines to the terminal; the JSON result line to results.json.
        grep -v '^{' "$log" || true
        key=untraced
        [ "$mode" = 1 ] && key=traced
        [ "$mode" = 1 ] && results+=", "
        line="$(grep '^{' "$log" | tail -n 1 || true)"
        results+="\"$key\": ${line:-null}"
    done
    results+="}"
    [ "$w" != "offline-merge" ] && results+=", "
done
results+="}"
printf '%s\n' "$results" >"$out/results.json"
echo "run.sh: wrote $out/results.json" >&2
exit "$failed"
