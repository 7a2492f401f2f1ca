//! Metric names, units, directions and bounds; the result of one run; and
//! how results are printed and stored.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub const WORKLOADS: [&str; 4] = ["univ_read", "describe_mix", "churn_durable", "bulk_closure"];

/// An end-to-end metric: what a user of the system sees.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `--compare` calls it a regression.
    pub bound: f64,
    /// The workloads that report it: a timed pass of one of them that lacks
    /// it has no result line.
    pub on: &'static [&'static str],
}

impl MetricDef {
    /// `BENCHMARK.json` can name only what every workload reports (the
    /// driver wants each of its metrics from each workload) and nothing that
    /// reads 0, which `failed_share` must: that one travels as the `failed` /
    /// `attempted` pair of the result line.
    pub fn in_benchmark_json(&self) -> bool {
        self.on.len() == WORKLOADS.len() && self.bound > 0.0
    }
}

const ALL: &[&str] = &WORKLOADS;
const READS: &[&str] = &["univ_read", "churn_durable"];
const DESCRIBES: &[&str] = &["describe_mix", "churn_durable"];
const CHURN: &[&str] = &["churn_durable"];
const BULK: &[&str] = &["bulk_closure"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        on,
    }
}

/// Every end-to-end metric, measured with tracing off. `README.md` says what
/// each means. No latency applies to every workload, so none reaches
/// `BENCHMARK.json`; with one closed-loop client `ops_per_s` is the reciprocal
/// of the mean op latency, which the driver's bound on it therefore covers.
/// Every time-based bound is 25 %: the sandbox's CPU speed moves by ±30 % in
/// plateaus of several seconds, so run-to-run spreads of 10–20 % are the
/// host's, and a tighter bound would only ever read "unresolved". The exact
/// counters are the fine instrument.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, ALL),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, ALL),
    e2e("retrieve_p50_us", "us", Better::Lower, 0.25, READS),
    e2e("retrieve_p95_us", "us", Better::Lower, 0.25, READS),
    e2e("describe_p50_us", "us", Better::Lower, 0.25, DESCRIBES),
    e2e("describe_p95_us", "us", Better::Lower, 0.25, DESCRIBES),
    e2e("commit_p50_us", "us", Better::Lower, 0.25, CHURN),
    e2e("commit_p95_us", "us", Better::Lower, 0.25, CHURN),
    e2e("ckpt_commit_p50_us", "us", Better::Lower, 0.25, CHURN),
    e2e("recover_s", "s", Better::Lower, 0.25, CHURN),
    e2e("write_amp", "ratio", Better::Lower, 0.02, CHURN),
    e2e("load_facts_per_s", "1/s", Better::Higher, 0.25, BULK),
    e2e("derive_tuples_per_s", "1/s", Better::Higher, 0.25, BULK),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, ALL),
    e2e("failed_share", "ratio", Better::Lower, 0.0, ALL),
];

/// A per-layer metric: one layer's cost. `README.md` names, for each, the
/// end-to-end metric and workload it is expected to move.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lay(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// Every per-layer metric, layer = crate name (`session` = the root crate).
pub const PER_LAYER: &[LayerDef] = &[
    lay("lang.parse_stmt_us", "us", L),
    lay("lang.parse_script_facts_per_s", "1/s", H),
    lay("lang.render_rows_per_s", "1/s", H),
    lay("lang.publish_us", "us", L),
    lay("logic.parse_program_rules_per_s", "1/s", H),
    lay("logic.subsume_us", "us", L),
    lay("storage.insert_facts_per_s", "1/s", H),
    lay("storage.probe_us", "us", L),
    lay("storage.composite_probe_us", "us", L),
    lay("storage.remove_batch_us_per_tuple", "us", L),
    lay("storage.cow_clone_us", "us", L),
    lay("storage.cow_first_write_us", "us", L),
    lay("storage.index_probes_per_op", "count", L),
    lay("storage.full_scans_per_op", "count", L),
    lay("engine.plan_compile_us", "us", L),
    lay("engine.bound_seminaive_us", "us", L),
    lay("engine.bound_qsq_us", "us", L),
    lay("engine.bound_topdown_us", "us", L),
    lay("engine.bound_seminaive.e1_join_us", "us", L),
    lay("engine.bound_seminaive.can_ta_course_us", "us", L),
    lay("engine.bound_seminaive.can_ta_student_us", "us", L),
    lay("engine.bound_seminaive.prior_down_us", "us", L),
    lay("engine.bound_seminaive.prior_up_us", "us", L),
    lay("engine.bound_seminaive.e2_answer_us", "us", L),
    lay("engine.bound_qsq.e1_join_us", "us", L),
    lay("engine.bound_qsq.can_ta_course_us", "us", L),
    lay("engine.bound_qsq.can_ta_student_us", "us", L),
    lay("engine.bound_qsq.prior_down_us", "us", L),
    lay("engine.bound_qsq.prior_up_us", "us", L),
    lay("engine.bound_qsq.e2_answer_us", "us", L),
    lay("engine.bound_topdown.e1_join_us", "us", L),
    lay("engine.bound_topdown.can_ta_course_us", "us", L),
    lay("engine.bound_topdown.can_ta_student_us", "us", L),
    lay("engine.bound_topdown.prior_down_us", "us", L),
    lay("engine.bound_topdown.prior_up_us", "us", L),
    lay("engine.bound_topdown.e2_answer_us", "us", L),
    lay("engine.closure_us_per_tuple", "us", L),
    lay("engine.closure_workers1_ms", "ms", L),
    lay("engine.workers2_speedup", "ratio", H),
    lay("engine.maintain_build_ms", "ms", L),
    lay("engine.maintain_insert_us.enroll", "us", L),
    lay("engine.maintain_insert_us.complete", "us", L),
    lay("engine.maintain_insert_us.prereq", "us", L),
    lay("engine.maintain_insert_us.student", "us", L),
    lay("engine.maintain_retract_us.enroll", "us", L),
    lay("engine.maintain_retract_us.complete", "us", L),
    lay("engine.maintain_retract_us.prereq", "us", L),
    lay("engine.maintain_retract_us.student", "us", L),
    lay("engine.precomputed_serve_us", "us", L),
    lay("engine.rows_per_op", "count", H),
    lay("core.describe_nonrec_us", "us", L),
    lay("core.describe_rec_us", "us", L),
    lay("core.reduce_us", "us", L),
    lay("core.transform_us", "us", L),
    lay("core.wildcard_ms", "ms", L),
    lay("core.compare_ms", "ms", L),
    lay("core.necessary_us", "us", L),
    lay("core.without_us", "us", L),
    lay("core.cache_hit_ratio", "ratio", H),
    lay("durability.append_us", "us", L),
    lay("durability.fsync_us", "us", L),
    lay("durability.fsyncs_per_commit", "count", L),
    lay("durability.wal_bytes_per_commit", "count", L),
    lay("durability.checkpoint_ms", "ms", L),
    lay("durability.checkpoint_bytes", "count", L),
    lay("durability.replay_ops_per_s", "1/s", H),
    lay("durability.checkpoint_load_ms", "ms", L),
    lay("session.apply_us", "us", L),
    lay("session.publish_us", "us", L),
    lay("session.refresh_us", "us", L),
    lay("session.visible_read_us", "us", L),
    lay("session.retrieve_point_p50_us", "us", L),
    lay("session.retrieve_e1_join_p50_us", "us", L),
    lay("session.retrieve_can_ta_course_p50_us", "us", L),
    lay("session.retrieve_can_ta_student_p50_us", "us", L),
    lay("session.retrieve_prior_down_p50_us", "us", L),
    lay("session.retrieve_prior_up_p50_us", "us", L),
    lay("session.retrieve_e2_answer_p50_us", "us", L),
    lay("session.layers_cover_ratio", "ratio", H),
    lay("session.stage_cover_ratio", "ratio", H),
    lay("trace_overhead_ratio", "ratio", H),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: u64,
}

/// Attempted ops and the ones that failed, with the first few reasons.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Counts one attempted op; `problem` is why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure that is not one of the attempted ops (a lost
    /// commit found at recovery, a non-identical cached answer).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(problem);
        }
    }
}

/// The result of one run of one workload.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub checks: Checks,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced pass).
    pub metrics: Vec<Measured>,
    /// Exact work counters: these repeat run to run at one seed.
    pub counters: Vec<(String, u64)>,
    /// Order-sensitive digest of every rendered answer of the pass.
    pub answers_digest: u64,
    /// Facts about the run a reader needs beside the numbers.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Self {
        Outcome {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            checks: Checks::default(),
            metrics: Vec::new(),
            counters: Vec::new(),
            answers_digest: 0,
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name: name.into(),
            value,
            samples: samples as u64,
        });
    }

    /// Says outright that this workload has nothing for the per-layer rows
    /// `names` to count — so they read 0 over 0 samples, where a name merely
    /// left out would fail the result line. Only for counts and ratios: a
    /// time is always measured.
    pub fn nothing_to_count(&mut self, names: &[&str]) {
        for name in names {
            assert!(
                matches!(Self::unit_of(name), "count" | "ratio"),
                "{name} is a time"
            );
            self.metric(*name, 0.0, 0);
        }
    }

    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|l| l.name == name).map(|l| l.unit))
            .unwrap_or("count")
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let pass = if self.traced {
            "traced pass"
        } else {
            "timed pass"
        };
        let _ = writeln!(
            out,
            "== {} · seed {} · {} s · {pass}",
            self.workload, self.seed, self.seconds
        );
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.4} {:<6} n={}",
                m.name,
                m.value,
                Self::unit_of(&m.name),
                m.samples
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<44} {value:>16} exact");
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>16x}",
            "answers_digest", self.answers_digest
        );
        let _ = writeln!(
            out,
            "  attempted {} · failed {} · {}",
            self.checks.attempted,
            self.checks.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for r in &self.checks.reasons {
            let _ = writeln!(out, "    failure: {r}");
        }
        out
    }

    /// The full result, as stored in result files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(Self::unit_of(&m.name))),
                                    ("samples", Json::Num(m.samples as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "answers_digest",
                Json::str(format!("{:016x}", self.answers_digest)),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every
    /// `end_to_end` name of `BENCHMARK.json` after a timed pass and every
    /// `per_layer` name after a traced pass. A name the pass did not report
    /// is an error, never a 0: for most metrics 0 is the best score there is.
    /// A timed pass must also have reported every other end-to-end metric
    /// that applies to its workload.
    pub fn driver_line(&self) -> Result<Json, String> {
        let entry = |name: &str, unit: &str| -> Result<(String, Json), String> {
            let value = self
                .value(name)
                .ok_or_else(|| format!("{}: the pass reported no `{name}`", self.workload))?;
            Ok((
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ))
        };
        let mut metrics = Vec::new();
        if self.traced {
            for l in PER_LAYER {
                metrics.push(entry(l.name, l.unit)?);
            }
        } else {
            for m in END_TO_END {
                if m.on.contains(&self.workload.as_str()) {
                    let e = entry(m.name, m.unit)?;
                    if m.in_benchmark_json() {
                        metrics.push(e);
                    }
                }
            }
        }
        if self.checks.attempted == 0 {
            return Err(format!("{}: no op was attempted", self.workload));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` and the tables here must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spec_of = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    let bound = m.get("bound").and_then(Json::as_f64);
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let row = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
                bound,
            )
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.in_benchmark_json())
            .map(|m| row(m.name, m.unit, m.better, Some(m.bound)))
            .collect();
        assert_eq!(spec_of("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|l| row(l.name, l.unit, l.better, None))
            .collect();
        assert_eq!(spec_of("per_layer"), layers);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
