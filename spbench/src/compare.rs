//! `spbench check A.json B.json`: is result set B no worse than A?
//!
//! A is the base. Every end-to-end metric of B may be worse than A's by
//! at most the share `BENCHMARK.json` fixes for it; readings that
//! derive only from the seed must be equal; `failed_share` may not
//! rise. Per-layer metrics without a bound are printed, not judged.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::spec::{self, Better, Workload};

/// Two exact readings agree when they differ by no more than summation
/// order can explain.
const EXACT_TOLERANCE: f64 = 1e-9;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` sits beside the package directory.
fn benchmark_json() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The `(name, better, bound)` of every end-to-end metric in
/// `BENCHMARK.json`.
fn bounds(manifest: &Value) -> Result<Vec<(String, Better, f64)>, String> {
    let malformed = || "BENCHMARK.json: malformed end_to_end entry".to_string();
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(malformed)?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(malformed()),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(malformed)?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// What one comparison concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound, or equal where equality is required.
    Ok,
    /// No bound applies; printed for the record.
    Shown,
    Fail,
}

/// Judges candidate `b` against base `a` for one metric of one workload.
pub fn judge(
    workload: Workload,
    metric: &str,
    a: f64,
    b: f64,
    bound: Option<(Better, f64)>,
) -> Verdict {
    if spec::is_exact(workload, metric) {
        let scale = a.abs().max(b.abs());
        return if (a - b).abs() <= EXACT_TOLERANCE * scale {
            Verdict::Ok
        } else {
            Verdict::Fail
        };
    }
    if metric == spec::FAILED_SHARE.name {
        return if b <= a { Verdict::Ok } else { Verdict::Fail };
    }
    match bound {
        None => Verdict::Shown,
        Some((better, bound)) => {
            let worse_by = match better {
                Better::Lower => (b - a) / a.abs(),
                Better::Higher => (a - b) / a.abs(),
            };
            if worse_by <= bound {
                Verdict::Ok
            } else {
                Verdict::Fail
            }
        }
    }
}

/// The readings of one section of one workload, as `(metric, value)`.
fn readings<'a>(result: &'a Value, workload: &str, section: &str) -> Vec<(&'a str, f64)> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(Value::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(name, m)| Some((name.as_str(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Prints one row per (workload, metric) and returns whether B agrees
/// with A.
pub fn check(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(&benchmark_json())?)?;
    let mut agree = true;
    println!(
        "workload metric A B B/A verdict    (base: A = {})",
        a_path.display()
    );
    for workload in Workload::ALL {
        for section in ["end_to_end", "per_layer"] {
            let base = readings(&a, workload.name(), section);
            let candidate = readings(&b, workload.name(), section);
            for (metric, _) in &candidate {
                if !base.iter().any(|(name, _)| name == metric) {
                    println!(
                        "{} {metric} - present - FAIL (missing from A)",
                        workload.name()
                    );
                    agree = false;
                }
            }
            for (metric, a_value) in base {
                let Some(&(_, b_value)) = candidate.iter().find(|(name, _)| *name == metric) else {
                    println!(
                        "{} {metric} {a_value} - - FAIL (missing from B)",
                        workload.name()
                    );
                    agree = false;
                    continue;
                };
                let bound = bounds
                    .iter()
                    .find(|(name, ..)| name == metric)
                    .map(|&(_, better, bound)| (better, bound));
                let verdict = judge(workload, metric, a_value, b_value, bound);
                let ratio = if a_value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", b_value / a_value)
                };
                let word = match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Shown => "shown",
                    Verdict::Fail => {
                        agree = false;
                        "FAIL"
                    }
                };
                println!(
                    "{} {metric} {a_value} {b_value} {ratio} {word}",
                    workload.name()
                );
            }
        }
    }
    println!(
        "{}",
        if agree {
            "B agrees with A"
        } else {
            "B does not agree with A"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_metrics_may_worsen_by_their_bound_only() {
        let w = Workload::ReadHot;
        let lower = Some((Better::Lower, 0.10));
        assert_eq!(judge(w, "read_p50_us", 10.0, 10.9, lower), Verdict::Ok);
        assert_eq!(judge(w, "read_p50_us", 10.0, 11.1, lower), Verdict::Fail);
        assert_eq!(judge(w, "read_p50_us", 10.0, 2.0, lower), Verdict::Ok);
        let higher = Some((Better::Higher, 0.10));
        assert_eq!(judge(w, "reads_per_s", 100.0, 91.0, higher), Verdict::Ok);
        assert_eq!(judge(w, "reads_per_s", 100.0, 89.0, higher), Verdict::Fail);
        assert_eq!(judge(w, "reads_per_s", 100.0, 300.0, higher), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_be_equal_and_failures_may_not_rise() {
        let w = Workload::Churn;
        assert_eq!(
            judge(w, "path_utility", 0.71, 0.71 + 1e-13, None),
            Verdict::Ok
        );
        assert_eq!(judge(w, "path_utility", 0.71, 0.72, None), Verdict::Fail);
        assert_eq!(judge(w, "failed_share", 0.0, 0.0, None), Verdict::Ok);
        assert_eq!(judge(w, "failed_share", 0.0, 1e-6, None), Verdict::Fail);
        // Request counts are exact only where no loop waits on another.
        assert_eq!(
            judge(w, "server.requests", 900.0, 950.0, None),
            Verdict::Shown
        );
        assert_eq!(
            judge(Workload::ReadHot, "server.requests", 900.0, 950.0, None),
            Verdict::Fail
        );
        assert_eq!(
            judge(w, "wire.decode_request_us", 1.0, 9.0, None),
            Verdict::Shown
        );
    }

    #[test]
    fn the_manifest_lists_a_bound_for_every_end_to_end_metric() {
        let listed = bounds(&spec::manifest()).unwrap();
        assert_eq!(listed.len(), spec::END_TO_END.len());
        assert!(listed
            .iter()
            .all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
    }
}
