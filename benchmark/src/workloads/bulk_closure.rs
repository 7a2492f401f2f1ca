//! `bulk_closure`: load-and-analyse at the largest scale.
//!
//! Each round opens a fresh `Session`, loads one ≈ 1.2 × 10⁵-fact script
//! (≈ 3 MB of text: a layered-DAG `prereq` of 3 000 courses in blocks of 200,
//! two edges each into the six ids below, plus ≈ 10⁵ `enroll` / `complete` facts so parse
//! and insert are material) and renders three unbound queries in full.
//! *Why:* throughput at a stated input size; the parser, `Edb::insert_fact`,
//! the semi-naive fixpoint, the join executor, the worker pool and answer
//! rendering dominate and the strategy choice is irrelevant (nothing is
//! bound), so per-tuple join-cost and worker-pool work must show here and a
//! goal-directed change must read "no change".

use super::univ_read::replay;
use super::{repeat_setup, report_common, timed, AnswersDigest, RunConfig};
use crate::gen::{university, UnivShape, University, JOIN_RULES};
use crate::oracle::{verdict, RowDigest};
use crate::probes::{self, Fixture};
use crate::report::{Checks, Outcome};
use crate::stats::median;
use crate::trace::{Open, Tracer};
use qdk::lang::parser::parse_script;
use qdk::{Request, Session};
use std::time::Duration;

pub const SHAPE: UnivShape = UnivShape {
    students: 10_000,
    courses: 3_000,
    enroll_per_student: 4,
    complete_per_student: 5,
    prereq_draws: 2,
    prereq_window: 6,
    prereq_block: 200,
};
/// Rounds per second of `--seconds`, calibrated at the seed commit.
pub const ROUNDS_PER_SECOND: f64 = 1.0;

const QUERIES: [&str; 3] = [
    "retrieve prior(X, Y).",
    "retrieve path3(X, W).",
    "retrieve triangle(X, Y, Z).",
];

struct Inputs {
    univ: University,
    script: String,
    expected: [RowDigest; 3],
}

fn generate(cfg: &RunConfig) -> Inputs {
    let univ = university(SHAPE, cfg.seed);
    let script = format!("{}{JOIN_RULES}", univ.script());
    let expected = [
        RowDigest::of_expected(&univ.prior_rows()),
        RowDigest::of_expected(&univ.path3_rows()),
        RowDigest::of_expected(&univ.triangle_rows()),
    ];
    Inputs {
        univ,
        script,
        expected,
    }
}

/// What one round measured.
struct Round {
    load: Duration,
    queries: Duration,
    rows: u64,
    /// `Edb::access_stats()` deltas around the three queries.
    index_probes: u64,
    full_scans: u64,
}

impl Round {
    fn total(&self) -> Duration {
        self.load + self.queries
    }
}

/// One round: fresh session, load, three unbound queries rendered in full.
/// With an enabled tracer every statement is replayed through the layers.
fn round(
    inputs: &Inputs,
    id: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    digest: &mut AnswersDigest,
) -> Round {
    let root = tracer.begin("session", "round", Tracer::ROOT, id);
    let mut session = Session::new();
    let load_span = tracer.begin("session", "load", root, id);
    let (loaded, load) = timed(|| session.load(&inputs.script).map(|acks| acks.len()));
    tracer.end(load_span);
    checks.op(loaded.err().map(|e| format!("load: {e}")));
    let mut out = Round {
        load,
        queries: Duration::ZERO,
        rows: 0,
        index_probes: 0,
        full_scans: 0,
    };
    for (query, want) in QUERIES.iter().zip(inputs.expected) {
        let stats0 = session.knowledge_base().edb().access_stats();
        let span = tracer.begin("session", query, root, id);
        let (rendered, d) = timed(|| session.run(query).map(|a| a.to_string()));
        tracer.end(span);
        let stats1 = session.knowledge_base().edb().access_stats();
        out.index_probes += stats1.0 - stats0.0;
        out.full_scans += stats1.1 - stats0.1;
        out.queries += d;
        match rendered {
            Ok(text) => {
                let got = RowDigest::of_rendered(&text);
                checks.op(verdict(query, got, want));
                digest.fold(&text);
                out.rows += got.rows;
                tracer.counter(id, "rows", got.rows);
            }
            Err(e) => checks.op(Some(format!("{query}: {e}"))),
        }
        if tracer.enabled() {
            replay_query(&session, query, tracer, span, id);
        }
    }
    tracer.end(root);
    if tracer.enabled() {
        tracer.span("lang", "replay.parse_script", load_span, id, || {
            std::hint::black_box(parse_script(&inputs.script).map(|s| s.len()).ok());
        });
    }
    out
}

/// Replays one query through the layers and asks the program for its own
/// stage spans for it.
fn replay_query(session: &Session, query: &str, tracer: &mut Tracer, parent: Open, id: u64) {
    // A failed replay costs a trace its child spans, never the run its result.
    let _ = replay(session, query, tracer, parent, id);
    let subject = query.trim_start_matches("retrieve ").trim_end_matches('.');
    let traced = tracer.span("session", "traced_request", Tracer::ROOT, id, || {
        session.retrieve(Request::subject(subject).with_trace(true))
    });
    if let Some(t) = traced.as_ref().ok().and_then(|r| r.trace()) {
        tracer.counter(id, "stage_us", t.stages().map(|s| s.micros).sum());
        tracer.counter(id, "wall_us", t.wall_micros);
    }
}

fn rounds(
    inputs: &Inputs,
    n: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
    digest: &mut AnswersDigest,
) -> Vec<Round> {
    (0..n)
        .map(|i| round(inputs, i as u64, tracer, checks, digest))
        .collect()
}

fn busy_seconds(rounds: &[Round]) -> f64 {
    rounds.iter().map(|r| r.total().as_secs_f64()).sum()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (inputs, gen) = timed(|| generate(cfg));
    let n = cfg.ops(ROUNDS_PER_SECOND, 2);
    let facts = inputs.univ.fact_count();
    let mut out = Outcome::new("bulk_closure", cfg.seed, cfg.seconds, cfg.trace);
    // Set-up is the generation plus one untimed warm-up round.
    let (_, setup_s) = repeat_setup(cfg.setup_reps, || {
        let mut warm = Checks::default();
        round(
            &inputs,
            0,
            &mut Tracer::new(false),
            &mut warm,
            &mut AnswersDigest::default(),
        );
        match warm.reasons.first() {
            Some(r) => Err(format!("warm-up round failed: {r}")),
            None => Ok(()),
        }
    })?;
    out.note(format!(
        "{facts} facts, {:.1} MB of script, {} prereq edges over {} courses (window {}); {n} timed rounds of 4 statements after 1 warm-up round; 1 client, closed loop",
        inputs.script.len() as f64 / 1e6,
        inputs.univ.prereq.iter().map(|p| p.len()).sum::<usize>(),
        SHAPE.courses,
        SHAPE.prereq_window
    ));
    let mut digest = AnswersDigest::default();
    if !cfg.trace {
        let done = rounds(
            &inputs,
            n,
            &mut Tracer::new(false),
            &mut out.checks,
            &mut digest,
        );
        report_common(
            &mut out,
            gen.as_secs_f64() + setup_s,
            4 * n,
            busy_seconds(&done),
        );
        let per_round = |f: &dyn Fn(&Round) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
        out.metric(
            "load_facts_per_s",
            per_round(&|r| facts as f64 / r.load.as_secs_f64()),
            n,
        );
        out.metric(
            "derive_tuples_per_s",
            per_round(&|r| r.rows as f64 / r.queries.as_secs_f64()),
            n,
        );
        out.answers_digest = digest.0;
        out.counter("rows", done.iter().map(|r| r.rows).sum());
        out.counter("index_probes", done.iter().map(|r| r.index_probes).sum());
        out.counter("full_scans", done.iter().map(|r| r.full_scans).sum());
        return Ok(out);
    }

    // A traced round replays every statement, so it costs about 2.5 plain
    // rounds: a fifth of the rounds untraced, then as many traced.
    let third = (n / 5).max(1);
    let mut tracer = Tracer::new(true);
    let base = rounds(
        &inputs,
        third,
        &mut Tracer::new(false),
        &mut out.checks,
        &mut AnswersDigest::default(),
    );
    let traced = rounds(&inputs, third, &mut tracer, &mut out.checks, &mut digest);
    out.metric(
        "trace_overhead_ratio",
        busy_seconds(&base) / busy_seconds(&traced),
        third,
    );
    let facade: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name.starts_with("retrieve "))
        .map(|s| s.micros())
        .sum();
    let layers: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name.starts_with("replay.") && s.name != "replay.parse_script")
        .map(|s| s.micros())
        .sum();
    out.metric(
        "session.layers_cover_ratio",
        layers / facade.max(1.0),
        3 * third,
    );
    let counted = |name: &str| {
        tracer
            .counters
            .iter()
            .filter(|c| c.1 == name)
            .map(|c| c.2)
            .sum::<u64>() as f64
    };
    out.metric(
        "session.stage_cover_ratio",
        counted("stage_us") / counted("wall_us").max(1.0),
        3 * third,
    );
    let rows: u64 = traced.iter().map(|r| r.rows).sum();
    out.metric(
        "engine.rows_per_op",
        rows as f64 / (3 * third) as f64,
        3 * third,
    );
    let per_op =
        |f: &dyn Fn(&Round) -> u64| traced.iter().map(f).sum::<u64>() as f64 / (3 * third) as f64;
    out.metric(
        "storage.index_probes_per_op",
        per_op(&|r| r.index_probes),
        3 * third,
    );
    out.metric(
        "storage.full_scans_per_op",
        per_op(&|r| r.full_scans),
        3 * third,
    );
    // No describe is issued here.
    out.nothing_to_count(&["core.cache_hit_ratio"]);
    out.answers_digest = digest.0;
    out.counter("rows", rows);
    // The probes keep the workload's `prereq` graph shape (what the unbound
    // queries run on) but a tenth of its students: one bound `can_ta`
    // evaluation at 1.2 x 10^5 facts costs 3.6 s at the seed commit, and
    // three strategies x six classes x three calls of that do not fit a run.
    let probe_univ = university(
        UnivShape {
            students: SHAPE.students / 10,
            ..SHAPE
        },
        cfg.seed,
    );
    out.note(format!(
        "stand-in: layer probes run on {} facts (same prereq shape, a tenth of the students)",
        probe_univ.fact_count()
    ));
    let mut fixture = Fixture::university(&probe_univ, cfg);
    fixture.extra_program = JOIN_RULES.to_string();
    probes::run_all(&fixture, &mut tracer, &mut out)?;
    probes::finish(&tracer, cfg, &mut out)?;
    Ok(out)
}
