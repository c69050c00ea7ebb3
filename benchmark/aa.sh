#!/usr/bin/env bash
# A/A acceptance: two sides of the same build, alternating nothing but
# time. Each side is three full untraced sets, run A B A B A B; a side's
# value for a cell is the median of its sets. Fails if any end-to-end
# metric a workload measures differs between the sides by more than its
# bound in BENCHMARK.json, or if the in-run null test
# (core.dispatch.null_ratio) leaves [0.95, 1.05]; prints the table it
# judged. (The bounds are sized for medians of several runs, as the
# acceptance driver takes them; single runs on a 2-core host are noisier.)
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Run from the repository root. Takes six times as long as run.sh.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"
mkdir -p "$out"

a=()
b=()
for i in 1 2 3; do
    "$here/run.sh" "$@" >"$out/set_a$i.txt"
    "$here/run.sh" "$@" >"$out/set_b$i.txt"
    a+=("$out/set_a$i.txt")
    b+=("$out/set_b$i.txt")
done
"$target/release/ora-benchmark" judge "${a[@]}" -- "${b[@]}"
