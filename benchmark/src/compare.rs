//! `--compare BASE.json CHANGE.json`: one verdict per (metric, workload).
//!
//! The rule is the choosing-metrics guide's: a change is *regressed* when
//! its median is worse than the base's by more than the metric's bound;
//! where the run-to-run spread (interquartile range over median, of either
//! side) is wider than the bound the row is *unresolved*, not "unchanged" —
//! unless every run of one side beats every run of the other, which no
//! spread can explain; *better* needs the medians to differ by more than the
//! base's own spread. Every ratio is printed with its base.

use crate::json::Json;
use crate::report::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use std::fmt::Write as _;

pub struct Verdict {
    pub table: String,
    pub regressed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Row {
    Better,
    Within,
    Unresolved,
    Regressed,
}

impl Row {
    fn label(self) -> &'static str {
        match self {
            Row::Better => "better",
            Row::Within => "within bound",
            Row::Unresolved => "UNRESOLVED",
            Row::Regressed => "REGRESSED",
        }
    }
}

/// Judges `change` against `base` for one metric.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Row {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (mb, mc) = (median(base), median(change));
    let worse_by = sign * (mc - mb) / mb.abs().max(f64::MIN_POSITIVE);
    let max = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let all_better = max(change) < min(base);
    let all_worse = min(change) > max(base);
    let noise = spread(base).max(spread(change));
    if noise > bound && base.len() > 1 && change.len() > 1 {
        return match (all_better, all_worse && worse_by > bound) {
            (true, _) => Row::Better,
            (_, true) => Row::Regressed,
            _ => Row::Unresolved,
        };
    }
    if worse_by > bound {
        Row::Regressed
    } else if -worse_by > spread(base) && (all_better || base.len() == 1) {
        Row::Better
    } else {
        Row::Within
    }
}

fn runs_of<'a>(set: &'a Json, workload: &str, traced: bool) -> Vec<&'a Json> {
    set.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced").and_then(Json::as_bool) == Some(traced)
        })
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The distinct values an exact counter (or the digest) took over `runs`.
fn distinct(runs: &[&Json], key: &str) -> Vec<String> {
    let mut seen: Vec<String> = runs
        .iter()
        .filter_map(|r| match key {
            "answers_digest" => r.get(key).map(ToString::to_string),
            _ => r.get("counters")?.get(key).map(ToString::to_string),
        })
        .collect();
    seen.sort();
    seen.dedup();
    seen
}

pub fn compare(base: &Json, change: &Json) -> Verdict {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "spread", "spread", "bound"
    );
    for workload in WORKLOADS {
        let (b, c) = (
            runs_of(base, workload, false),
            runs_of(change, workload, false),
        );
        for m in END_TO_END {
            let (vb, vc) = (values(&b, m.name), values(&c, m.name));
            if vb.is_empty() || vc.is_empty() {
                continue;
            }
            // `failed_share` has no tolerance, and one failing run in five
            // is an increase a median would hide: it is judged, and shown,
            // by its worst run.
            let worst = m.bound == 0.0;
            let of = |v: &[f64]| {
                if worst {
                    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                } else {
                    median(v)
                }
            };
            let row = if !worst {
                judge(&vb, &vc, m.better, m.bound)
            } else if of(&vc) > of(&vb) {
                Row::Regressed
            } else {
                Row::Within
            };
            regressed |= row == Row::Regressed;
            let _ = writeln!(
                table,
                "{workload:<14} {:<22} {:>14.4} {:>14.4} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}%  {}{} ({} vs {} runs, {} is better, unit {})",
                m.name,
                of(&vb),
                of(&vc),
                // 0 / 0 for a `failed_share` that stayed 0.
                if of(&vb) == of(&vc) { 1.0 } else { of(&vc) / of(&vb) },
                100.0 * spread(&vb),
                100.0 * spread(&vc),
                100.0 * m.bound,
                row.label(),
                if worst { ", worst run shown" } else { "" },
                vb.len(),
                vc.len(),
                m.better.as_str(),
                m.unit
            );
        }
        let mut keys: Vec<String> = b
            .iter()
            .chain(&c)
            .flat_map(|r| r.get("counters").map(Json::fields).unwrap_or_default())
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys.dedup();
        keys.push("answers_digest".to_string());
        for key in keys {
            let (db, dc) = (distinct(&b, &key), distinct(&c, &key));
            if db.is_empty() || dc.is_empty() {
                continue;
            }
            let same = db.len() == 1 && db == dc;
            let _ = writeln!(
                table,
                "{workload:<14} {key:<22} {:>14} {:>14} {:>8}  {}",
                db.join("|"),
                dc.join("|"),
                "exact",
                if same { "identical" } else { "DIFFERENT" }
            );
        }
        // Per-layer rows have no bound: they locate a change, they do not
        // judge it.
        let (b, c) = (
            runs_of(base, workload, true),
            runs_of(change, workload, true),
        );
        for l in PER_LAYER {
            let (vb, vc) = (values(&b, l.name), values(&c, l.name));
            if vb.is_empty() || vc.is_empty() || median(&vb) == 0.0 {
                continue;
            }
            let _ = writeln!(
                table,
                "{workload:<14} {:<44} {:>14.4} {:>14.4} {:>8.4}  layer row ({} is better, unit {})",
                l.name,
                median(&vb),
                median(&vc),
                median(&vc) / median(&vb),
                l.better.as_str(),
                l.unit
            );
        }
    }
    let _ = writeln!(
        table,
        "{}",
        if regressed {
            "RESULT: regressed"
        } else {
            "RESULT: no regression"
        }
    );
    Verdict { table, regressed }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// What a reader needs to know about where a result set was measured.
pub fn environment() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(cores as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_regressed_and_better() {
        let scale = |k: f64| STEADY.map(|v| v * k);
        assert_eq!(
            judge(&STEADY, &scale(1.03), Better::Lower, 0.10),
            Row::Within
        );
        assert_eq!(
            judge(&STEADY, &scale(1.2), Better::Lower, 0.10),
            Row::Regressed
        );
        assert_eq!(
            judge(&STEADY, &scale(0.8), Better::Lower, 0.10),
            Row::Better
        );
        // Direction flips for throughput.
        assert_eq!(
            judge(&STEADY, &scale(0.8), Better::Higher, 0.10),
            Row::Regressed
        );
        assert_eq!(
            judge(&STEADY, &scale(1.2), Better::Higher, 0.10),
            Row::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        let also_noisy = [105.0, 135.0, 85.0, 125.0, 95.0];
        assert_eq!(
            judge(&noisy, &also_noisy, Better::Lower, 0.10),
            Row::Unresolved
        );
        let far_better = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(judge(&noisy, &far_better, Better::Lower, 0.10), Row::Better);
        let far_worse = [200.0, 260.0, 160.0, 240.0, 180.0];
        assert_eq!(
            judge(&noisy, &far_worse, Better::Lower, 0.10),
            Row::Regressed
        );
    }

    #[test]
    fn one_failing_run_in_five_is_a_regression() {
        let set = |shares: [f64; 5]| {
            let runs = shares.map(|v| {
                Json::obj([
                    ("workload", Json::str("univ_read")),
                    ("traced", Json::Bool(false)),
                    (
                        "metrics",
                        Json::obj([("failed_share", Json::obj([("value", Json::Num(v))]))]),
                    ),
                ])
            });
            Json::obj([("runs", Json::Arr(runs.to_vec()))])
        };
        let clean = set([0.0; 5]);
        assert!(!compare(&clean, &clean).regressed);
        assert!(compare(&clean, &set([0.0, 0.0, 0.001, 0.0, 0.0])).regressed);
    }

    #[test]
    fn compares_result_sets() {
        let run = |workload: &str, v: f64, rows: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("traced", Json::Bool(false)),
                (
                    "metrics",
                    Json::obj([("ops_per_s", Json::obj([("value", Json::Num(v))]))]),
                ),
                ("counters", Json::obj([("rows", Json::Num(rows))])),
                ("answers_digest", Json::str("ab")),
            ])
        };
        let set = |k: f64, rows: f64| {
            Json::obj([(
                "runs",
                Json::Arr(
                    STEADY
                        .iter()
                        .map(|v| run("univ_read", v * k, rows))
                        .collect(),
                ),
            )])
        };
        let same = compare(&set(1.0, 7.0), &set(1.01, 7.0));
        assert!(
            !same.regressed
                && same.table.contains("within bound")
                && same.table.contains("identical")
        );
        let worse = compare(&set(1.0, 7.0), &set(0.7, 8.0));
        assert!(
            worse.regressed
                && worse.table.contains("REGRESSED")
                && worse.table.contains("DIFFERENT")
        );
    }
}
