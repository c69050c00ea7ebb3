//! The seeded scenario generator.
//!
//! Construct weights follow real-world OpenMP usage frequency
//! ("Quantifying OpenMP", arXiv 2308.08002): `parallel`/`for`/
//! reductions dominate, atomics and critical are common, `ordered`
//! and nested parallelism are the rare-but-buggy tail. Trip counts are
//! drawn from a pool biased toward the scheduler's edge cases — counts
//! smaller than the team, counts straddling the `Claimer` batch
//! (`BATCH_MAX * chunk * nthreads ± ε`), primes — because those are
//! where the PR-5 batched claiming and tail logic can break.

use ora_core::testutil::XorShift64;

use crate::scenario::{Op, Scenario, SchedSpec};

/// The claimer's largest per-thread batch (`omprt::schedule::BATCH_MAX`).
const BATCH_MAX: i64 = 8;

/// Per-thread deque depth (`omprt::task::DEQUE_CAP`) past which a push
/// counts an overflow; spawn counts just around it cross that edge.
const DEQUE_CAP: i64 = 256;

/// Generate the scenario for `seed`. The same seed always yields the
/// same scenario, on every machine.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = XorShift64::new(seed);
    // Team sizes: mostly small real teams, a tail of oversubscription.
    let threads = *rng.choose(&[1usize, 2, 2, 2, 3, 3, 4, 4, 4, 6, 8]);
    let nested = rng.chance(3, 20);
    let schedule = sched(&mut rng);
    let n_ops = rng.range_usize(2, 9);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(op(&mut rng, threads));
    }
    Scenario {
        threads,
        nested,
        schedule,
        ops,
    }
}

fn sched(rng: &mut XorShift64) -> SchedSpec {
    let chunk = *rng.choose(&[1i64, 1, 2, 3, 5, 7]);
    match rng.below(30) {
        0..=9 => SchedSpec::StaticEven,
        10..=15 => SchedSpec::StaticChunk(chunk),
        16..=23 => SchedSpec::Dynamic(chunk),
        _ => SchedSpec::Guided(chunk),
    }
}

/// A trip count biased toward scheduler edge cases.
fn trip_count(rng: &mut XorShift64, threads: usize) -> i64 {
    let t = threads as i64;
    match rng.below(10) {
        // Tail: fewer iterations than threads (some threads get nothing).
        0..=2 => rng.range_i64(1, t + 1),
        // Straddling the claimer batch: BATCH_MAX * chunk * nthreads ± ε.
        3..=5 => {
            let chunk = *rng.choose(&[1i64, 2, 3, 5]);
            let base = BATCH_MAX * chunk * t;
            (base + rng.range_i64(-3, 4)).max(1)
        }
        // Primes — indivisible by everything.
        6..=7 => *rng.choose(&[7i64, 13, 31, 61, 127, 251, 509]),
        // Plain random.
        _ => rng.range_i64(1, 400),
    }
}

fn rounds(rng: &mut XorShift64) -> i64 {
    rng.range_i64(1, 17)
}

/// A task spawn count biased toward the deque-depth edge, where a
/// spawner's push starts counting overflows while its tasks stay on its
/// own deque.
fn task_count(rng: &mut XorShift64) -> i64 {
    match rng.below(10) {
        0..=2 => DEQUE_CAP + rng.range_i64(-1, 2), // 255 | 256 | 257
        3..=5 => rng.range_i64(1, 33),
        _ => rng.range_i64(1, 129),
    }
}

fn op(rng: &mut XorShift64, threads: usize) -> Op {
    let count = trip_count(rng, threads);
    // Weighted construct pick out of 100 (for/reduction dominate;
    // ordered/nested are the tail, per arXiv 2308.08002; explicit
    // tasks get a deliberate overweight while the work-stealing pool
    // is the newest subsystem).
    match rng.below(100) {
        0..=24 => Op::For {
            sched: sched(rng),
            count,
        },
        25..=36 => Op::ReduceSum { count },
        37..=40 => Op::ReduceMin { count },
        41..=44 => Op::ReduceMax { count },
        45..=50 => Op::Atomic {
            rounds: rounds(rng),
        },
        51..=55 => Op::Critical {
            rounds: rounds(rng),
        },
        56..=59 => Op::Single {
            rounds: rng.range_i64(1, 9),
        },
        60..=62 => Op::Barrier,
        63..=65 => Op::Master {
            rounds: rounds(rng),
        },
        66..=67 => Op::Lock {
            rounds: rounds(rng),
        },
        68..=73 => Op::Ordered {
            // Ordered serializes the loop; keep the tail biased small.
            count: rng.range_i64(1, 2 * threads as i64 + 30),
        },
        74..=76 => Op::Gate,
        77 => Op::NestedPar {
            threads: rng.range_usize(1, 4),
            count: rng.range_i64(1, 64),
        },
        78 => Op::NestedTeam {
            threads: rng.range_usize(1, 5),
            depth: rng.range_usize(1, 3),
        },
        79..=88 => Op::TaskFlood {
            count: task_count(rng),
            untied: rng.chance(1, 2),
        },
        89..=94 => Op::TaskProducer {
            count: task_count(rng),
        },
        _ => Op::TaskTree {
            fanout: rng.range_usize(1, 4),
            depth: rng.range_usize(1, 4),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..50 {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_scenarios_round_trip_through_case_files() {
        for seed in 0..200 {
            let s = generate(seed);
            let parsed = Scenario::parse(&s.to_case_file()).unwrap();
            assert_eq!(parsed, s, "seed {seed}");
        }
    }

    #[test]
    fn generated_counts_are_valid() {
        for seed in 0..500 {
            let s = generate(seed);
            assert!(s.threads >= 1 && s.threads <= 8);
            assert!(!s.ops.is_empty());
            for op in &s.ops {
                match *op {
                    Op::For { count, .. }
                    | Op::ReduceSum { count }
                    | Op::ReduceMin { count }
                    | Op::ReduceMax { count }
                    | Op::Ordered { count }
                    | Op::NestedPar { count, .. } => assert!(count >= 1),
                    Op::Critical { rounds }
                    | Op::Lock { rounds }
                    | Op::Atomic { rounds }
                    | Op::Single { rounds }
                    | Op::Master { rounds } => assert!(rounds >= 1),
                    Op::TaskFlood { count, .. } | Op::TaskProducer { count } => {
                        assert!(count >= 1)
                    }
                    Op::TaskTree { fanout, depth } => {
                        assert!((1..=3).contains(&fanout) && (1..=3).contains(&depth))
                    }
                    Op::NestedTeam { threads, depth } => {
                        assert!((1..=4).contains(&threads) && (1..=2).contains(&depth))
                    }
                    Op::Barrier | Op::Gate => {}
                }
            }
        }
    }

    #[test]
    fn the_rare_tail_still_appears() {
        // Across many seeds the rare constructs must all be exercised.
        let mut ordered = 0;
        let mut nested = 0;
        let mut nested_teams = 0;
        let mut gates = 0;
        let mut trees = 0;
        let mut producers = 0;
        let mut cliff_floods = 0;
        for seed in 0..400 {
            for op in &generate(seed).ops {
                match op {
                    Op::Ordered { .. } => ordered += 1,
                    Op::NestedPar { .. } => nested += 1,
                    Op::NestedTeam { .. } => nested_teams += 1,
                    Op::Gate => gates += 1,
                    Op::TaskTree { .. } => trees += 1,
                    Op::TaskProducer { .. } => producers += 1,
                    Op::TaskFlood { count, .. } if (count - DEQUE_CAP).abs() <= 1 => {
                        cliff_floods += 1
                    }
                    _ => {}
                }
            }
        }
        assert!(ordered > 0, "ordered never generated");
        assert!(nested > 0, "nested parallel never generated");
        assert!(nested_teams > 0, "nested_team never generated");
        assert!(gates > 0, "gate never generated");
        assert!(trees > 0, "task trees never generated");
        assert!(producers > 0, "task producers never generated");
        assert!(cliff_floods > 0, "no flood near the deque-capacity cliff");
    }
}
