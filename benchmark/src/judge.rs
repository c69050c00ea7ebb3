//! `ora-benchmark judge <a-sets...> -- <b-sets...>`: the A/A acceptance
//! check.
//!
//! Each input file is the concatenated `workload metric value unit` lines
//! of one full untraced set. A side is judged by the per-cell median of
//! its sets. Two sides of the same build must agree within every
//! end-to-end metric's bound on every workload that measures it, and the
//! in-run null test
//! (`core.dispatch.null_ratio`) must stay within ±5 % of 1.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::metrics;
use crate::stats;

type Set = BTreeMap<(String, String), f64>;

/// The per-cell medians of one side's sets.
fn parse_side(texts: &[String]) -> Set {
    let mut cells: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for text in texts {
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [workload, metric, value, _unit] = fields[..] {
                if let Ok(v) = value.parse::<f64>() {
                    cells
                        .entry((workload.to_string(), metric.to_string()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    // A cell missing from any set of the side is missing from the side.
    cells
        .into_iter()
        .filter(|(_, v)| v.len() == texts.len())
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

/// One judged cell.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `|b - a| / a`, or the distance from 1 for the null ratio.
    pub diff: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Judge two sets: every end-to-end metric on every workload that
/// measures it, then the null ratio of each set wherever it was reported.
pub fn judge(a: &Set, b: &Set) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for (workload, _) in metrics::WORKLOADS {
        for (metric, _, _, bound) in metrics::END_TO_END {
            if !metrics::measures(workload, metric) {
                continue;
            }
            let key = (workload.to_string(), metric.to_string());
            let (va, vb) = match (a.get(&key), b.get(&key)) {
                (Some(va), Some(vb)) => (*va, *vb),
                // A missing cell can never pass.
                _ => (f64::NAN, f64::NAN),
            };
            let diff = (vb - va).abs() / va.abs();
            verdicts.push(Verdict {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                diff,
                bound,
                ok: diff <= bound,
            });
        }
        let key = (workload.to_string(), "core.dispatch.null_ratio".to_string());
        if let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) {
            let diff = (va - 1.0).abs().max((vb - 1.0).abs());
            verdicts.push(Verdict {
                workload: workload.to_string(),
                metric: key.1,
                a: *va,
                b: *vb,
                diff,
                bound: 0.05,
                ok: diff <= 0.05,
            });
        }
    }
    verdicts
}

pub fn main(args: &[String]) -> ExitCode {
    let mut sides = args.split(|a| a == "--");
    let (Some(files_a), Some(files_b), None) = (sides.next(), sides.next(), sides.next()) else {
        eprintln!("usage: ora-benchmark judge <a-sets...> -- <b-sets...>");
        return ExitCode::from(2);
    };
    let read = |files: &[String]| -> Option<Set> {
        let mut texts = Vec::new();
        for path in files {
            match std::fs::read_to_string(path) {
                Ok(text) => texts.push(text),
                Err(e) => {
                    eprintln!("ora-benchmark judge: {path}: {e}");
                    return None;
                }
            }
        }
        (!texts.is_empty()).then(|| parse_side(&texts))
    };
    let (Some(a), Some(b)) = (read(files_a), read(files_b)) else {
        return ExitCode::from(2);
    };
    let verdicts = judge(&a, &b);
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "side A", "side B", "diff", "bound"
    );
    for v in &verdicts {
        println!(
            "{:<14} {:<26} {:>16.4} {:>16.4} {:>7.2}% {:>6.0}% {}",
            v.workload,
            v.metric,
            v.a,
            v.b,
            v.diff * 100.0,
            v.bound * 100.0,
            if v.ok { "" } else { "FAIL" }
        );
    }
    let failed = verdicts.iter().filter(|v| !v.ok).count();
    if failed == 0 {
        println!("A/A: every cell within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {failed} cell(s) outside their bound");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_set(scale: f64) -> String {
        let mut text = String::new();
        for (workload, _) in metrics::WORKLOADS {
            for (metric, unit, _, _) in metrics::END_TO_END {
                if !metrics::measures(workload, metric) {
                    continue;
                }
                text.push_str(&format!("{workload} {metric} {} {unit}\n", 100.0 * scale));
            }
            text.push_str(&format!("{workload} core.dispatch.null_ratio 1.01 x\n"));
        }
        text
    }

    #[test]
    fn identical_sets_pass_and_a_shift_beyond_the_bound_fails() {
        let a = parse_side(&[full_set(1.0)]);
        assert!(judge(&a, &a).iter().all(|v| v.ok));
        // A 5 % shift fails exactly the measured cells bounded below 5 %.
        let b = parse_side(&[full_set(1.05)]);
        let tight: usize = metrics::MEASURED
            .iter()
            .flat_map(|cells| cells.iter())
            .filter(|cell| {
                metrics::END_TO_END
                    .iter()
                    .any(|m| m.0 == **cell && m.3 < 0.05)
            })
            .count();
        let failed: Vec<Verdict> = judge(&a, &b).into_iter().filter(|v| !v.ok).collect();
        assert_eq!(failed.len(), tight);
        assert!(tight > 0 && failed.iter().all(|v| v.bound < 0.05));
    }

    #[test]
    fn a_side_is_the_median_of_its_sets() {
        let side = parse_side(&[full_set(1.0), full_set(3.0), full_set(1.1)]);
        let cell = ("sync-storm".to_string(), "setup_s".to_string());
        assert!((side[&cell] - 110.0).abs() < 1e-9);
        // A cell one set lacks is missing from the side.
        let short = full_set(1.0).replace("sync-storm setup_s", "sync-storm other");
        assert!(!parse_side(&[full_set(1.0), short]).contains_key(&cell));
    }

    #[test]
    fn missing_cells_and_a_biased_null_test_fail() {
        let a = parse_side(&[full_set(1.0)]);
        let mut b = a.clone();
        b.remove(&("sync-storm".to_string(), "setup_s".to_string()));
        b.insert(
            (
                "task-flood".to_string(),
                "core.dispatch.null_ratio".to_string(),
            ),
            0.9,
        );
        let failed: Vec<(String, String)> = judge(&a, &b)
            .into_iter()
            .filter(|v| !v.ok)
            .map(|v| (v.workload, v.metric))
            .collect();
        assert_eq!(
            failed,
            vec![
                ("sync-storm".to_string(), "setup_s".to_string()),
                (
                    "task-flood".to_string(),
                    "core.dispatch.null_ratio".to_string()
                ),
            ]
        );
    }
}
