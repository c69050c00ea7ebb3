#!/usr/bin/env bash
# Fault-injection and oversubscription stress: sweep the seeded fault
# harness across several seeds and drive the CLI acceptance scenario
# (permanently-panicking callback + killed drainer under --policy block).
#
# Usage: scripts/stress.sh [seed ...]
#
# Default sweep: seeds 1..5. On failure the offending seed is written to
# stress-failures/ (CI uploads that directory as an artifact) so the run
# can be replayed locally with:
#
#   ORA_FAULT_SEED=<seed> cargo test -p omprt --test sync_stress
#   ORA_FAULT_SEED=<seed> cargo test -p omprt --test task_stress
#   ORA_FAULT_SEED=<seed> cargo test -p ora-trace --test fault_props
#   ORA_FAULT_SEED=<seed> cargo test -p ora-fleet --test hostile_bytes
#   ORA_FAULT_SEED=<seed> cargo test -p ora-bench --test fault_isolation
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then
  seeds=(1 2 3 4 5)
fi

mkdir -p stress-failures
status=0

run_seeded() {
  local seed="$1"
  shift
  if ! ORA_FAULT_SEED="$seed" cargo test -q --offline "$@"; then
    echo "stress: FAILED at seed $seed ($*)" >&2
    echo "$seed $*" >> stress-failures/failed-seeds.txt
    status=1
  fi
}

for seed in "${seeds[@]}"; do
  echo "== stress sweep: seed $seed =="
  # Seeded quarantine property tests on the dispatcher.
  run_seeded "$seed" -p ora-core --lib seeded_props
  # Parking layer + barrier episodes under oversubscription; shutdown
  # racing workers that are mid-park.
  run_seeded "$seed" -p omprt --test sync_stress
  # Work-stealing task scheduler: tied/untied storms, overflow spill,
  # and taskwait parking on oversubscribed teams.
  run_seeded "$seed" -p omprt --test task_stress
  # Sink faults, dead drainers, and oversubscribed Block producers.
  run_seeded "$seed" -p ora-trace --test fault_props --test stress
  # Structure-aware mutation of every decoder of outside bytes: typed
  # errors only, and allocations bounded by the input's length.
  run_seeded "$seed" -p ora-fleet --test hostile_bytes
  # Live-runtime workloads under injected collector faults.
  run_seeded "$seed" -p ora-bench --test fault_isolation
done

# The lost-wakeup reproducers, each in 200 fresh processes under
# `timeout 5`, so a hang outside a test's own watchdog still fails the
# sweep instead of stalling it: the barrier -> taskwait region (ROADMAP
# item 1), the two forced key-after-attempt interleavings (EventCount
# and TaskPool), notify racing a waiter's registration, and work handed
# to a worker still restoring after a lease. The trace ring's batch
# drain racing drop-oldest reclaims and the nested-convoy analyzer
# oracle (whose master waits for its teammates to park before it lags)
# ride in the same loop.
echo "== stress: lost-wakeup, ring-claim and convoy-oracle reproducers, 200 processes each =="
test_bin() {
  cargo test -q --release --offline "$@" --no-run --message-format=json \
    | grep -o '"executable":"[^"]*"' | cut -d'"' -f4
}
reproducers=(
  "$(test_bin -p omprt --test tasking) barrier_then_taskwait_does_not_lose_the_wakeup"
  "$(test_bin -p ora-core --lib) park::tests::a_notify_racing_the_failed_attempt_is_never_lost"
  "$(test_bin -p omprt --lib) task::tests::a_push_racing_the_failed_pop_is_never_lost"
  "$(test_bin -p omprt --test sync_stress) notify_racing_registration_never_loses_the_wake"
  "$(test_bin -p omprt --test nested) hand_off_to_a_worker_still_finishing_a_lease"
  "$(test_bin -p ora-trace --test stress) batch_drain_races_drop_oldest_reclaim"
  "$(test_bin -p ora-fuzz --test analyzer_oracle) nested_inner_barriers_do_not_pollute_outer_convoy_attribution"
)
for entry in "${reproducers[@]}"; do
  read -r bin name <<<"$entry"
  # A filter that matches nothing would pass 200 times without testing.
  if ! "$bin" --exact "$name" --list 2>/dev/null | grep -q ': test$'; then
    echo "stress: no test named $name in $bin" >&2
    echo "missing reproducer $name" >> stress-failures/failed-seeds.txt
    status=1
    continue
  fi
  failed=0
  for _ in $(seq 200); do
    if ! timeout 5 "$bin" -q --exact "$name" >/dev/null 2>&1; then
      failed=$((failed + 1))
    fi
  done
  if (( failed > 0 )); then
    echo "stress: $name failed in $failed of 200 processes" >&2
    echo "$name ($failed/200)" >> stress-failures/failed-seeds.txt
    status=1
  fi
done

# Oracle-differential fuzz sweep: one block of generated scenarios per
# stress seed (seed s covers generator seeds s*100 .. s*100+25), diffed
# against the sequential oracle under all four collector rungs.
# Failing scenarios are minimized into stress-failures/fuzz/ and replay
# with `omp_prof fuzz --case <file>`.
echo "== stress: oracle-differential fuzz sweep =="
for seed in "${seeds[@]}"; do
  if ! cargo run -q --release --offline -p ora-bench --bin omp_prof -- \
      fuzz --seeds 25 --start "$((seed * 100))" --out stress-failures/fuzz; then
    echo "stress: fuzz sweep FAILED at block $seed" >&2
    echo "fuzz --seeds 25 --start $((seed * 100))" >> stress-failures/failed-seeds.txt
    status=1
  fi
done

# Nested-team topology sweep: real nested forks (pooled sub-team
# leasing, level/parent chains, leased-worker state visibility), the
# task pool's waits and the topology-shaped barrier exercised under
# several injected machine shapes — the 2x4x2 reference box, a
# single-package SMT-less box, and a package-per-core box — plus the
# curated nested-team fuzz cases replayed under each shape.
echo "== stress: nested-team topology sweep =="
for shape in 2x4x2 1x8x1 8x1x1; do
  if ! OMP_ORA_TOPOLOGY="$shape" cargo test -q --offline -p omprt \
      --test nested --test nested_pool_cap --test sync_stress --test task_stress; then
    echo "stress: nested/sync/task tests FAILED under OMP_ORA_TOPOLOGY=$shape" >&2
    echo "OMP_ORA_TOPOLOGY=$shape nested+sync_stress+task_stress" >> stress-failures/failed-seeds.txt
    status=1
  fi
  for case in tests/fuzz_cases/nested_*.case; do
    if ! OMP_ORA_TOPOLOGY="$shape" cargo run -q --release --offline \
        -p ora-bench --bin omp_prof -- fuzz --case "$case"; then
      echo "stress: $case FAILED under OMP_ORA_TOPOLOGY=$shape" >&2
      echo "OMP_ORA_TOPOLOGY=$shape fuzz --case $case" >> stress-failures/failed-seeds.txt
      status=1
    fi
  done
done

# CLI acceptance scenario: every workload completes with correct
# results while the collector panics and the trace drainer is dead.
echo "== stress: omp_prof suite under full fault injection =="
if ! cargo run --release --offline -p ora-bench --bin omp_prof -- \
    suite --threads 4 --inject-panic-cb --kill-drainer --policy block; then
  echo "stress: fault-injected suite FAILED" >&2
  echo "suite --inject-panic-cb --kill-drainer --policy block" \
    >> stress-failures/failed-seeds.txt
  status=1
fi

# Fleet seed sweep: multi-process NPB-MZ ranks streaming into the
# aggregator daemon, with per-seed fault injection — a random rank
# killed mid-stream on odd seeds, a slow consumer (delayed chunk ACKs,
# so the producers' in-flight windows backpressure) on even seeds. The
# driver itself verifies the online merge byte-identical to offline
# merge_ranks and the per-lane drop/ACK accounting reconciled.
echo "== stress: fleet rank-kill / slow-consumer sweep =="
for seed in "${seeds[@]}"; do
  ranks=$((2 + seed % 3))
  extra=()
  if (( seed % 2 == 1 )); then
    extra+=(--kill-rank $((seed % ranks)))
  else
    extra+=(--slow-us $((seed * 100)))
  fi
  if ! cargo run -q --release --offline -p ora-bench --bin omp_prof -- \
      fleet --ranks "$ranks" --threads 2 --workload lu-mz --class s \
      --out-dir "stress-fleet/seed$seed" "${extra[@]}" > /dev/null; then
    echo "stress: fleet sweep FAILED at seed $seed (ranks $ranks ${extra[*]})" >&2
    echo "fleet --ranks $ranks ${extra[*]}" >> stress-failures/failed-seeds.txt
    status=1
  fi
done
rm -rf stress-fleet

# `health` must report the injected faults (exit 3 = faulted-but-alive)
# and a clean run must stay healthy (exit 0).
echo "== stress: omp_prof health verdicts =="
set +e
cargo run --release --offline -p ora-bench --bin omp_prof -- \
  health --inject-panic-cb --kill-drainer --policy block > /dev/null 2>&1
rc=$?
set -e
if [[ $rc -ne 3 ]]; then
  echo "stress: injected-fault health run exited $rc, expected 3" >&2
  echo "health --inject-panic-cb --kill-drainer" >> stress-failures/failed-seeds.txt
  status=1
fi
set +e
cargo run --release --offline -p ora-bench --bin omp_prof -- health > /dev/null 2>&1
rc=$?
set -e
if [[ $rc -ne 0 ]]; then
  echo "stress: clean health run exited $rc, expected 0" >&2
  echo "health (clean)" >> stress-failures/failed-seeds.txt
  status=1
fi

if [[ $status -ne 0 ]]; then
  echo "stress: FAILURES — seeds recorded in stress-failures/failed-seeds.txt" >&2
  exit 1
fi
rmdir stress-failures 2>/dev/null || true
echo "stress: OK (${#seeds[@]} seed(s) swept)"
