//! `describe_mix`: the paper's knowledge-query half over a large rule base.
//!
//! The university rules plus a generated 600-rule "policy" IDB plus the
//! Example 6/8 recursive programs; the EDB is empty apart from
//! declarations. Plain `describe … where …` statements — 85 % drawn from
//! 1 024 distinct ones (more than the describe cache's 256 entries), 15 %
//! from a 32-statement hot set that fits and includes paper Examples 3–7 —
//! plus fixed counts of the §6 statements. *Why:* `qdk-core` (tree
//! enumeration, identification, θ-subsumption reduce, Algorithm 2 tags, the
//! describe cache) and `qdk-logic` do all the work; storage, engine
//! fixpoints and durability do none, so an engine or storage change must
//! read "no change" here.

use super::{repeat_setup, report_common, timed, AnswersDigest, Latencies, RunConfig};
use crate::gen::{policy_idb, PolicyShape, EXAMPLE8_PROGRAM, UNIVERSITY_RULES, UNIVERSITY_SCHEMA};
use crate::oracle::theorem_lines;
use crate::probes::{self, Fixture};
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use qdk::core::DescribeOptions;
use qdk::lang::ast::Statement;
use qdk::lang::parser::parse_statement;
use qdk::{Request, ResourceLimits, Session};
use std::collections::HashMap;

/// 3 levels × 100 predicates × 2 alternative rules = 600 rules. Do not grow
/// it: `compare` and `describe *` blow up past this size.
pub const POLICY: PolicyShape = PolicyShape {
    levels: 3,
    width: 100,
    alts: 2,
    fan: 2,
    attrs: 40,
};
const COLD_STATEMENTS: usize = 1024;
const HOT_STATEMENTS: usize = 32;
/// Share of plain describes drawn from the hot set, in percent. About a
/// fifth of all plain describes then hit the cache (the cache evicts oldest
/// first, so cold traffic pushes hot entries out too), which keeps the
/// pooled median well inside the computed answers instead of on the edge
/// between cached (tens of µs) and computed (ms) ones.
const HOT_SHARE: usize = 15;
/// Ops per second of `--seconds`, calibrated at the seed commit so the §6
/// statements take about a third of the timed phase.
pub const PLAIN_PER_SECOND: f64 = 170.0;
pub const EXTENSIONS_PER_SECOND: [(Extension, f64); 4] = [
    (Extension::Necessary, 5.0),
    (Extension::Without, 5.0),
    (Extension::Wildcard, 0.1),
    (Extension::Compare, 0.1),
];
const SAMPLE_EVERY: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Extension {
    Necessary,
    Without,
    Wildcard,
    Compare,
}

impl Extension {
    fn name(self) -> &'static str {
        match self {
            Extension::Necessary => "necessary",
            Extension::Without => "without",
            Extension::Wildcard => "wildcard",
            Extension::Compare => "compare",
        }
    }
}

/// The statement pools, all drawn from the seed.
pub struct Statements {
    pub cold: Vec<String>,
    pub hot: Vec<String>,
    pub necessary: Vec<String>,
    pub without: Vec<String>,
    pub wildcard: Vec<String>,
    pub compare: Vec<String>,
    /// Paper Examples 3–6 (members of the hot set) with the paper's answers.
    pub paper: Vec<(String, Vec<String>)>,
}

const PAPER: [(&str, &[&str]); 5] = [
    (
        "describe can_ta(X, databases) where student(X, math, V) and V > 3.7.",
        &[
            "can_ta(X, databases) ← complete(X, databases, Y, 4.0)",
            "can_ta(X, databases) ← complete(X, databases, Y, Z) ∧ (Z > 3.3) ∧ taught(U, databases, Y, V) ∧ teach(U, databases)",
        ],
    ),
    ("describe honor(X).", &["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]),
    (
        "describe can_ta(X, Y) where honor(X) and teach(susan, Y).",
        &[
            "can_ta(X, Y) ← complete(X, Y, Z, 4.0)",
            "can_ta(X, Y) ← complete(X, Y, Z, U) ∧ (U > 3.3) ∧ taught(susan, Y, Z, V)",
        ],
    ),
    (
        "describe prior(X, Y) where prior(databases, Y).",
        &["prior(X, Y) ← (X = databases)", "prior(X, Y) ← prior(X, databases)"],
    ),
    // Example 7: the paper states a property (no prereq loops), not an
    // answer; the sound root identification must be among the theorems.
    ("describe prior(X, Y) where prior(X, databases).", &[]),
];

pub fn program(seed: u64) -> String {
    format!(
        "{UNIVERSITY_SCHEMA}{UNIVERSITY_RULES}{}{EXAMPLE8_PROGRAM}",
        policy_idb(POLICY, seed)
    )
}

pub fn statements(seed: u64) -> Statements {
    let mut r = Rng::fork(seed, "describe-statements");
    let concept = |r: &mut Rng, level: usize| format!("pol{level}_{}(X)", r.below(POLICY.width));
    let hypothesis = |r: &mut Rng| {
        format!(
            "attr{}(X, V) and V > {}",
            r.below(POLICY.attrs),
            r.range(1, 9)
        )
    };
    let mut distinct = std::collections::BTreeSet::new();
    let mut plain = |r: &mut Rng, n: usize| -> Vec<String> {
        let mut out = Vec::new();
        while out.len() < n {
            let level = r.below(POLICY.levels);
            let s = format!("describe {} where {}.", concept(r, level), hypothesis(r));
            if distinct.insert(s.clone()) {
                out.push(s);
            }
        }
        out
    };
    let cold = plain(&mut r, COLD_STATEMENTS);
    let mut hot = plain(&mut r, HOT_STATEMENTS - PAPER.len() - 1);
    hot.extend(PAPER.iter().map(|(s, _)| s.to_string()));
    hot.push("describe p(X, Y) where r(a, Y).".to_string());
    let pool =
        |r: &mut Rng, f: &dyn Fn(&mut Rng) -> String| (0..8).map(|_| f(r)).collect::<Vec<_>>();
    Statements {
        cold,
        hot,
        necessary: pool(&mut r, &|r| {
            format!(
                "describe {} where necessary {}.",
                concept(r, 0),
                hypothesis(r)
            )
        }),
        without: pool(&mut r, &|r| {
            format!(
                "describe {} where not attr{}(X, V).",
                concept(r, 0),
                r.below(POLICY.attrs)
            )
        }),
        wildcard: pool(&mut r, &|r| format!("describe * where {}.", hypothesis(r))),
        compare: pool(&mut r, &|r| {
            format!(
                "compare (describe {}) with (describe {}).",
                concept(r, 0),
                concept(r, 0)
            )
        }),
        paper: PAPER
            .iter()
            .map(|(s, lines)| (s.to_string(), lines.iter().map(|l| l.to_string()).collect()))
            .collect(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Cold(usize),
    Hot(usize),
    Ext(Extension, usize),
}

struct Inputs {
    program: String,
    statements: Statements,
    /// Warm-up ops first, then the timed ops.
    ops: Vec<Op>,
    warmup: usize,
}

fn generate(cfg: &RunConfig) -> Inputs {
    let statements = statements(cfg.seed);
    let mut r = Rng::fork(cfg.seed, "describe-ops");
    let plain = cfg.ops(PLAIN_PER_SECOND, 60);
    let warmup = cfg.warmup(plain);
    let draw = |r: &mut Rng| {
        if r.below(100) < HOT_SHARE {
            Op::Hot(r.below(statements.hot.len()))
        } else {
            Op::Cold(r.below(statements.cold.len()))
        }
    };
    let mut ops: Vec<Op> = (0..warmup).map(|_| draw(&mut r)).collect();
    let mut timed: Vec<Op> = (0..plain).map(|_| draw(&mut r)).collect();
    for (ext, rate) in EXTENSIONS_PER_SECOND {
        timed.extend((0..cfg.ops(rate, 1)).map(|i| Op::Ext(ext, i % 8)));
    }
    r.shuffle(&mut timed);
    ops.extend(timed);
    Inputs {
        program: program(cfg.seed),
        statements,
        ops,
        warmup,
    }
}

impl Inputs {
    fn text(&self, op: Op) -> &str {
        let s = &self.statements;
        match op {
            Op::Cold(i) => &s.cold[i],
            Op::Hot(i) => &s.hot[i],
            Op::Ext(Extension::Necessary, i) => &s.necessary[i],
            Op::Ext(Extension::Without, i) => &s.without[i],
            Op::Ext(Extension::Wildcard, i) => &s.wildcard[i],
            Op::Ext(Extension::Compare, i) => &s.compare[i],
        }
    }
}

#[derive(Default)]
struct Pass {
    plain: Latencies,
    ext: HashMap<Extension, Latencies>,
    digest: AnswersDigest,
    ops: usize,
    cache: (u64, u64),
    layers_cover: Option<f64>,
    stage_cover: Option<f64>,
}

impl Pass {
    fn busy_seconds(&self) -> f64 {
        self.plain.total_seconds() + self.ext.values().map(Latencies::total_seconds).sum::<f64>()
    }
}

/// The request form of a plain describe statement, for the program's own
/// stage spans (`Request::with_trace`).
fn request_of(statement: &str) -> Option<Request> {
    let body = statement.strip_prefix("describe ")?.strip_suffix('.')?;
    Some(match body.split_once(" where ") {
        Some((subject, hypothesis)) => {
            Request::subject(subject).where_clause(hypothesis.replace(" and ", ", "))
        }
        None => Request::subject(body),
    })
}

fn pass(
    session: &mut Session,
    inputs: &Inputs,
    ops: &[Op],
    first_seen: &mut HashMap<String, String>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::default();
    let cache0 = session.knowledge_base().describe_cache_stats();
    let (mut facade_us, mut layers_us, mut wall_us, mut stages_us) = (0.0, 0.0, 0.0, 0.0);
    let mut misses_seen = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        let statement = inputs.text(op);
        let op_id = i as u64;
        let name = match op {
            Op::Cold(_) => "describe:cold".to_string(),
            Op::Hot(_) => "describe:hot".to_string(),
            Op::Ext(e, _) => format!("describe:{}", e.name()),
        };
        let misses_before = session.knowledge_base().describe_cache_stats().misses;
        let root = tracer.begin("session", &name, Tracer::ROOT, op_id);
        let (rendered, d) = timed(|| session.run(statement).map(|a| a.to_string()));
        tracer.end(root);
        pass.ops += 1;
        let text = match rendered {
            Ok(text) => text,
            Err(e) => {
                checks.op(Some(format!("{statement}: {e}")));
                continue;
            }
        };
        match op {
            Op::Ext(e, _) => pass.ext.entry(e).or_default().push(d),
            _ => pass.plain.push(d),
        }
        pass.digest.fold(&text);
        // A statement must answer the same every time it is asked: the
        // computed answer and the cached one are compared byte for byte.
        let mut problem = match first_seen.get(statement) {
            Some(first) if *first != text => {
                Some(format!("{statement}: answer changed between askings"))
            }
            Some(_) => None,
            None => {
                first_seen.insert(statement.to_string(), text.clone());
                None
            }
        };
        if let Some((_, want)) = inputs.statements.paper.iter().find(|(s, _)| s == statement) {
            let got = theorem_lines(&text);
            let ok = if want.is_empty() {
                got.iter().any(|l| l == "prior(X, Y) ← (Y = databases)")
            } else {
                got == *want
            };
            if !ok {
                problem = Some(format!(
                    "{statement}: differs from the paper's answer: {text}"
                ));
            }
        }
        checks.op(problem);

        let missed = session.knowledge_base().describe_cache_stats().misses > misses_before;
        if tracer.enabled() && missed && !matches!(op, Op::Ext(..)) {
            misses_seen += 1;
            if misses_seen % SAMPLE_EVERY != 1 {
                continue;
            }
            // Replay a computed (not cached) describe through the layers.
            let first = tracer.spans.len();
            let kb = session.knowledge_base();
            let parsed = tracer.span("lang", "replay.parse_statement", root, op_id, || {
                parse_statement(statement)
            });
            if let Ok(Statement::Describe(query)) = parsed {
                let opts = DescribeOptions::paper();
                let answer = tracer.span("core", "replay.describe", root, op_id, || {
                    qdk::core::describe(kb.idb(), &query, &opts)
                });
                if let Ok(answer) = answer {
                    tracer.span("lang", "replay.render", root, op_id, || {
                        std::hint::black_box(answer.to_string());
                    });
                }
            }
            facade_us += crate::stats::micros(d);
            layers_us += tracer.spans[first..].iter().map(Span::micros).sum::<f64>();
            // The program's own stage spans for the same statement. A request
            // with a limit set is never served from the describe cache, so
            // the hour-long deadline makes this a computed answer too.
            let uncached =
                ResourceLimits::default().with_deadline(std::time::Duration::from_secs(3600));
            if let Some(request) = request_of(statement) {
                if let Ok(resp) =
                    tracer.span("session", "traced_request", Tracer::ROOT, op_id, || {
                        session.describe(request.with_trace(true).limits(uncached))
                    })
                {
                    if let Some(t) = resp.trace() {
                        wall_us += t.wall_micros as f64;
                        stages_us += t.stages().map(|s| s.micros as f64).sum::<f64>();
                    }
                }
            }
        }
    }
    let cache1 = session.knowledge_base().describe_cache_stats();
    pass.cache = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    if facade_us > 0.0 {
        pass.layers_cover = Some(layers_us / facade_us);
    }
    if wall_us > 0.0 {
        pass.stage_cover = Some(stages_us / wall_us);
    }
    pass
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (inputs, gen) = timed(|| generate(cfg));
    let mut first_seen = HashMap::new();
    let (mut session, setup_s) = repeat_setup(cfg.setup_reps, || {
        let mut session = Session::new();
        session.load(&inputs.program).map_err(|e| e.to_string())?;
        for &op in &inputs.ops[..inputs.warmup] {
            let answer = session.run(inputs.text(op)).map_err(|e| e.to_string())?;
            std::hint::black_box(answer.to_string());
        }
        Ok(session)
    })?;
    let mut out = Outcome::new("describe_mix", cfg.seed, cfg.seconds, cfg.trace);
    let ops = &inputs.ops[inputs.warmup..];
    out.note(format!(
        "{} rules ({} policy), empty EDB; {} timed ops after {} warm-up; {COLD_STATEMENTS} cold + {HOT_STATEMENTS} hot statements, {HOT_SHARE} % hot; 1 client, closed loop",
        session.knowledge_base().idb().len(),
        POLICY.levels * POLICY.width * POLICY.alts,
        ops.len(),
        inputs.warmup
    ));
    if !cfg.trace {
        let p = pass(
            &mut session,
            &inputs,
            ops,
            &mut first_seen,
            &mut Tracer::new(false),
            &mut out.checks,
        );
        report_common(
            &mut out,
            gen.as_secs_f64() + setup_s,
            p.ops,
            p.busy_seconds(),
        );
        p.plain.report(&mut out, "describe");
        let ext_seconds: f64 = p.ext.values().map(Latencies::total_seconds).sum();
        out.note(format!(
            "§6 statements take {:.1} % of the timed phase; cache: {} hits, {} misses",
            100.0 * ext_seconds / p.busy_seconds(),
            p.cache.0,
            p.cache.1
        ));
        for (ext, _) in EXTENSIONS_PER_SECOND {
            if let Some(lat) = p.ext.get(&ext) {
                out.note(format!(
                    "{:<10} p50 {:>12.1} us  n={}",
                    ext.name(),
                    lat.median(),
                    lat.len()
                ));
            }
        }
        out.answers_digest = p.digest.0;
        return Ok(out);
    }

    // Consecutive thirds, not the same third twice: a second asking of the
    // same ops would meet a different describe cache.
    let n = (ops.len() / 3).max(1);
    let third = &ops[..n];
    let mut tracer = Tracer::new(true);
    let base = pass(
        &mut session,
        &inputs,
        third,
        &mut first_seen,
        &mut Tracer::new(false),
        &mut out.checks,
    );
    let traced = pass(
        &mut session,
        &inputs,
        &ops[n..2 * n],
        &mut first_seen,
        &mut tracer,
        &mut out.checks,
    );
    // Over the plain describes only: where the few second-long §6 statements
    // fall differs between the two thirds.
    let rate = |p: &Pass| p.plain.len() as f64 / p.plain.total_seconds();
    out.metric(
        "trace_overhead_ratio",
        rate(&traced) / rate(&base),
        traced.plain.len(),
    );
    let (hits, misses) = base.cache;
    out.metric(
        "core.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    out.metric(
        "session.layers_cover_ratio",
        traced.layers_cover.unwrap_or(0.0),
        third.len() / SAMPLE_EVERY,
    );
    out.metric(
        "session.stage_cover_ratio",
        traced.stage_cover.unwrap_or(0.0),
        third.len() / SAMPLE_EVERY,
    );
    // The EDB is empty and a describe answers with theorems, not rows.
    out.nothing_to_count(&[
        "storage.index_probes_per_op",
        "storage.full_scans_per_op",
        "engine.rows_per_op",
    ]);
    out.answers_digest = traced.digest.0;
    let fixture = Fixture::policy(POLICY, &inputs.statements, cfg);
    out.note(format!(
        "stand-in: this workload has no facts; the storage.*, engine.*, durability.* and session.retrieve_* rows run on a {}-fact university beside its rules",
        fixture.univ.fact_count()
    ));
    probes::run_all(&fixture, &mut tracer, &mut out)?;
    probes::finish(&tracer, cfg, &mut out)?;
    Ok(out)
}
