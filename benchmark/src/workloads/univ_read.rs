//! `univ_read`: the paper's data-query half as an application issues it.
//!
//! The §2.2 university schema and its five IDB rules verbatim, one
//! `Session` that is never mutated (so not maintained: every IDB retrieve
//! runs an evaluation), statements as text through `Session::run` and
//! rendered with `to_string()`, session-default strategy, Zipf(1.0)-skewed
//! constants. *Why:* `qdk-engine` (strategy choice, joins, fixpoint) does
//! almost all the work and `qdk-core` / `qdk-durability` none, so planner
//! and strategy work must show here and nowhere else.

use super::{repeat_setup, report_common, timed, AnswersDigest, Latencies, RunConfig};
use crate::gen::{university, UnivShape, University};
use crate::oracle::{verdict, ReadClass, ReadMix, ReadOp, RowDigest};
use crate::probes::{self, Fixture};
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;
use qdk::engine::{retrieve_compiled, EvalOptions};
use qdk::lang::ast::Statement;
use qdk::lang::parser::parse_statement;
use qdk::Session;
use std::collections::{BTreeMap, HashMap};

/// Scale: ≈ 1.06 × 10⁴ facts. The ISSUE's 3 000 students / 300 courses
/// costs ≈ 58 ms per op at the seed commit, which leaves fewer than 1 000
/// samples in a run the driver's time cap allows; this is the largest scale
/// that keeps ≥ 1 000 samples behind every percentile.
pub const SHAPE: (usize, usize) = (1000, 100);
/// Timed ops per second of `--seconds`, calibrated at the seed commit.
pub const OPS_PER_SECOND: f64 = 160.0;
/// One op in this many is replayed through the layers in the traced pass.
const SAMPLE_EVERY: usize = 16;

pub struct Inputs {
    pub univ: University,
    pub script: String,
    /// Warm-up ops first, then the timed ops.
    pub ops: Vec<ReadOp>,
    pub warmup: usize,
    pub expected: HashMap<String, RowDigest>,
}

fn generate(cfg: &RunConfig) -> Inputs {
    let univ = university(UnivShape::serving(SHAPE.0, SHAPE.1), cfg.seed);
    let script = univ.script();
    let mix = ReadMix::new(&univ, cfg.seed);
    let timed_ops = cfg.ops(OPS_PER_SECOND, 40);
    let warmup = cfg.warmup(timed_ops);
    let mut r = Rng::fork(cfg.seed, "read-ops");
    let ops: Vec<ReadOp> = (0..warmup + timed_ops).map(|_| mix.draw(&mut r)).collect();
    let mut expected = HashMap::new();
    for op in &ops {
        expected
            .entry(op.statement())
            .or_insert_with(|| RowDigest::of_expected(&univ.expected(op)));
    }
    Inputs {
        univ,
        script,
        ops,
        warmup,
        expected,
    }
}

/// What one pass over a slice of read ops measured.
#[derive(Default)]
pub struct ReadPass {
    pub all: Latencies,
    pub by_class: BTreeMap<ReadClass, Latencies>,
    pub digest: AnswersDigest,
    pub rows: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    /// Σ replayed layer spans / Σ facade spans, and Σ program stage spans /
    /// Σ wall, over the sampled ops of a traced pass.
    pub layers_cover: Option<f64>,
    pub stage_cover: Option<f64>,
}

impl ReadPass {
    pub fn record(
        &mut self,
        class: ReadClass,
        d: std::time::Duration,
        rendered: &str,
        digest: RowDigest,
    ) {
        self.all.push(d);
        self.by_class.entry(class).or_default().push(d);
        self.digest.fold(rendered);
        self.rows += digest.rows;
    }
}

/// Replays one retrieve through the layer functions `Session::run` calls —
/// parse, compiled evaluation, render — as child spans of `root`.
pub fn replay(
    session: &Session,
    statement: &str,
    tracer: &mut Tracer,
    root: crate::trace::Open,
    op_id: u64,
) -> Result<(), String> {
    let kb = session.knowledge_base();
    let parsed = tracer.span("lang", "replay.parse_statement", root, op_id, || {
        parse_statement(statement)
    });
    let Statement::Retrieve(query) = parsed.map_err(|e| e.to_string())? else {
        return Err(format!("not a retrieve: {statement}"));
    };
    let plan = kb.compiled_plan();
    let opts = EvalOptions::default().with_parallelism(kb.describe_options().parallelism);
    let answer = tracer
        .span("engine", "replay.retrieve_compiled", root, op_id, || {
            retrieve_compiled(kb.edb(), kb.idb(), &plan, &query, kb.strategy(), opts)
        })
        .map_err(|e| e.to_string())?;
    tracer.span("lang", "replay.render", root, op_id, || {
        std::hint::black_box(answer.to_string());
    });
    Ok(())
}

/// Runs `ops` through `Session::run` + `to_string()`, checking every answer.
/// With an enabled tracer each op is a root span and one op in
/// [`SAMPLE_EVERY`] is replayed through the layers.
pub fn read_pass(
    session: &mut Session,
    ops: &[ReadOp],
    expected: &HashMap<String, RowDigest>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ReadPass {
    let mut pass = ReadPass::default();
    let (mut facade_us, mut layers_us, mut wall_us, mut stages_us) = (0.0, 0.0, 0.0, 0.0);
    for (i, op) in ops.iter().enumerate() {
        let statement = op.statement();
        let op_id = i as u64;
        // Around the facade call only: the replay and the program-traced
        // request below probe the same relations.
        let (probes0, scans0) = session.knowledge_base().edb().access_stats();
        let root = tracer.begin(
            "session",
            &format!("retrieve:{}", op.class.name()),
            Tracer::ROOT,
            op_id,
        );
        let (rendered, d) = timed(|| session.run(&statement).map(|a| a.to_string()));
        tracer.end(root);
        let (probes1, scans1) = session.knowledge_base().edb().access_stats();
        pass.index_probes += probes1 - probes0;
        pass.full_scans += scans1 - scans0;
        match rendered {
            Ok(text) => {
                let got = RowDigest::of_rendered(&text);
                checks.op(verdict(&statement, got, expected[&statement]));
                pass.record(op.class, d, &text, got);
                tracer.counter(op_id, "rows", got.rows);
            }
            Err(e) => checks.op(Some(format!("{statement}: {e}"))),
        }
        if tracer.enabled() && i % SAMPLE_EVERY == 0 {
            let first = tracer.spans.len();
            if let Err(e) = replay(session, &statement, tracer, root, op_id) {
                checks.fail(format!("replay {statement}: {e}"));
            }
            facade_us += crate::stats::micros(d);
            layers_us += tracer.spans[first..]
                .iter()
                .map(crate::trace::Span::micros)
                .sum::<f64>();
            let request = op.request().with_trace(true);
            if let Ok(resp) = tracer.span("session", "traced_request", Tracer::ROOT, op_id, || {
                session.retrieve(request)
            }) {
                if let Some(t) = resp.trace() {
                    wall_us += t.wall_micros as f64;
                    stages_us += t.stages().map(|s| s.micros as f64).sum::<f64>();
                }
            }
        }
    }
    if facade_us > 0.0 {
        pass.layers_cover = Some(layers_us / facade_us);
    }
    if wall_us > 0.0 {
        pass.stage_cover = Some(stages_us / wall_us);
    }
    pass
}

/// Loads the script into a fresh session and runs the warm-up ops.
pub fn setup(inputs: &Inputs) -> Result<Session, String> {
    let mut session = Session::new();
    session.load(&inputs.script).map_err(|e| e.to_string())?;
    for op in &inputs.ops[..inputs.warmup] {
        let answer = session.run(&op.statement()).map_err(|e| e.to_string())?;
        std::hint::black_box(answer.to_string());
    }
    Ok(session)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (inputs, gen) = timed(|| generate(cfg));
    let (mut session, setup_s) = repeat_setup(cfg.setup_reps, || setup(&inputs))?;
    let mut out = Outcome::new("univ_read", cfg.seed, cfg.seconds, cfg.trace);
    out.note(format!(
        "{} students, {} courses, {} facts; {} timed ops after {} warm-up ops; 1 client, closed loop",
        SHAPE.0,
        SHAPE.1,
        inputs.univ.fact_count(),
        inputs.ops.len() - inputs.warmup,
        inputs.warmup
    ));
    let ops = &inputs.ops[inputs.warmup..];
    if !cfg.trace {
        let pass = read_pass(
            &mut session,
            ops,
            &inputs.expected,
            &mut Tracer::new(false),
            &mut out.checks,
        );
        report_common(
            &mut out,
            gen.as_secs_f64() + setup_s,
            ops.len(),
            pass.all.total_seconds(),
        );
        pass.all.report(&mut out, "retrieve");
        for (class, lat) in &pass.by_class {
            out.note(format!(
                "{:<15} p50 {:>10.1} us  n={}",
                class.name(),
                lat.median(),
                lat.len()
            ));
        }
        out.answers_digest = pass.digest.0;
        out.counter("rows", pass.rows);
        out.counter("index_probes", pass.index_probes);
        out.counter("full_scans", pass.full_scans);
        return Ok(out);
    }

    // Traced run: a third of the ops untraced (the base of the overhead
    // ratio), the same third traced, then the layer probes.
    let third = &ops[..(ops.len() / 3).max(1)];
    let mut tracer = Tracer::new(true);
    let base = read_pass(
        &mut session,
        third,
        &inputs.expected,
        &mut Tracer::new(false),
        &mut out.checks,
    );
    let traced = read_pass(
        &mut session,
        third,
        &inputs.expected,
        &mut tracer,
        &mut out.checks,
    );
    out.metric(
        "trace_overhead_ratio",
        base.all.total_seconds() / traced.all.total_seconds(),
        third.len(),
    );
    out.metric(
        "storage.index_probes_per_op",
        traced.index_probes as f64 / third.len() as f64,
        third.len(),
    );
    out.metric(
        "storage.full_scans_per_op",
        traced.full_scans as f64 / third.len() as f64,
        third.len(),
    );
    out.metric(
        "engine.rows_per_op",
        traced.rows as f64 / third.len() as f64,
        third.len(),
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
    // No describe is issued here.
    out.nothing_to_count(&["core.cache_hit_ratio"]);
    out.answers_digest = traced.digest.0;
    out.counter("rows", traced.rows);
    out.counter("index_probes", traced.index_probes);
    out.counter("full_scans", traced.full_scans);
    let fixture = Fixture::university(&inputs.univ, cfg);
    probes::run_all(&fixture, &mut tracer, &mut out)?;
    probes::finish(&tracer, cfg, &mut out)?;
    Ok(out)
}
