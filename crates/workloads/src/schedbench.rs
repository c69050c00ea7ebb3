//! EPCC schedbench: loop-scheduling overheads.
//!
//! The second half of the EPCC microbenchmark suite measures the cost of
//! the `schedule(static|dynamic|guided, chunk)` clauses as a function of
//! chunk size. The methodology matches syncbench: a reference run of the
//! bare delay loop against the same loop under each schedule, inside one
//! parallel region; the per-iteration difference is the scheduling
//! overhead (chunk claims, dispatch, and the end-of-loop barrier).

use collector::clock;
use omprt::{OpenMp, Schedule, SourceFunction};

use crate::epcc::delay;

/// One schedbench measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedPoint {
    /// The schedule measured.
    pub schedule: Schedule,
    /// Overhead per loop iteration, seconds.
    pub overhead_per_iter: f64,
    /// Raw per-iteration time under the schedule.
    pub raw_per_iter: f64,
}

/// Configuration for schedbench.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Iterations of the measured loop.
    pub loop_iters: i64,
    /// Repetitions of the loop per measurement.
    pub reps: usize,
    /// Delay length per iteration (flops).
    pub delay_len: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            loop_iters: 512,
            reps: 8,
            delay_len: 32,
        }
    }
}

fn sched_region() -> &'static omprt::RegionHandle {
    use std::sync::OnceLock;
    static REGION: OnceLock<(SourceFunction, omprt::RegionHandle)> = OnceLock::new();
    let (_, r) = REGION.get_or_init(|| {
        let f = SourceFunction::new("epcc_schedbench", "schedbench.rs", 1);
        let r = f.loop_region("sched", 10);
        (f, r)
    });
    r
}

/// Measure one schedule's per-iteration overhead on `rt`.
pub fn measure_schedule(rt: &OpenMp, schedule: Schedule, cfg: &SchedConfig) -> SchedPoint {
    let iters = cfg.loop_iters;
    let dlen = cfg.delay_len;
    let total_iters = (iters as usize * cfg.reps) as f64;

    // Reference: the delay body alone, serial.
    let (_, ref_ticks) = clock::time(|| {
        for _ in 0..cfg.reps {
            for _ in 0..iters {
                std::hint::black_box(delay(dlen));
            }
        }
    });
    let reference = clock::to_secs(ref_ticks) / total_iters;

    // Test: the same loop under the schedule, inside one region.
    let (_, test_ticks) = clock::time(|| {
        rt.parallel_region(sched_region(), |ctx| {
            for _ in 0..cfg.reps {
                ctx.for_schedule(schedule, 0, iters - 1, 1, |_| {
                    std::hint::black_box(delay(dlen));
                });
                ctx.implicit_barrier();
            }
        });
    });
    let raw = clock::to_secs(test_ticks) / total_iters;

    SchedPoint {
        schedule,
        overhead_per_iter: raw - reference,
        raw_per_iter: raw,
    }
}

/// The EPCC schedbench sweep: static/dynamic/guided over doubling chunk
/// sizes (1, 2, 4, …, `max_chunk`).
pub fn sweep(rt: &OpenMp, max_chunk: usize, cfg: &SchedConfig) -> Vec<SchedPoint> {
    let mut points = Vec::new();
    points.push(measure_schedule(rt, Schedule::StaticEven, cfg));
    let mut chunk = 1usize;
    while chunk <= max_chunk {
        points.push(measure_schedule(rt, Schedule::StaticChunk(chunk), cfg));
        points.push(measure_schedule(rt, Schedule::Dynamic(chunk), cfg));
        points.push(measure_schedule(rt, Schedule::Guided(chunk), cfg));
        chunk *= 2;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SchedConfig {
        SchedConfig {
            loop_iters: 64,
            reps: 2,
            delay_len: 8,
        }
    }

    #[test]
    fn every_schedule_measures_finite_overhead() {
        let rt = OpenMp::with_threads(2);
        for schedule in [
            Schedule::StaticEven,
            Schedule::StaticChunk(4),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            let p = measure_schedule(&rt, schedule, &tiny());
            assert!(p.raw_per_iter > 0.0, "{schedule:?}");
            assert!(p.overhead_per_iter.is_finite(), "{schedule:?}");
        }
    }

    #[test]
    fn sweep_covers_all_schedules_per_chunk() {
        let rt = OpenMp::with_threads(2);
        let points = sweep(&rt, 4, &tiny());
        // StaticEven + 3 schedules × chunks {1,2,4}.
        assert_eq!(points.len(), 1 + 3 * 3);
        let dynamics = points
            .iter()
            .filter(|p| matches!(p.schedule, Schedule::Dynamic(_)))
            .count();
        assert_eq!(dynamics, 3);
    }
}
