//! The per-layer probes of the traced run: timed calls into each crate's
//! public functions, on the inputs of the workload being traced.
//!
//! The driver wants every per-layer name from every workload's traced pass,
//! and a time cannot honestly read 0, so every probe runs on every workload.
//! Where the workload has no input for a layer the probe runs on a stand-in,
//! and the row does not describe that workload: `describe_mix` has no facts
//! ([`Fixture::policy`] adds a small university), `bulk_closure` is probed
//! at a tenth of its students, and the three workloads that commit nothing
//! get their commit rows from [`commit_steps`]. `README.md` lists, per row,
//! the workload whose inputs it is meant to be read on.
//!
//! A probe is called until it has [`CALLS`] samples, or at least
//! [`MIN_CALLS`] and its time budget is spent; its value is the median.
//! Every call is also a span in the trace file. Probes use only functions
//! the ROADMAP does not mark for deletion (no `Strategy::{Magic, Naive}`,
//! no `retrieve_with_options` / `retrieve_with_plan`, no
//! `knowledge_base_mut`, no `eval_restricted` / `eval_seeded`).

use crate::gen::{
    policy_idb, university, PolicyShape, UnivShape, University, EXAMPLE8_PROGRAM, UNIVERSITY_RULES,
    UNIVERSITY_SCHEMA,
};
use crate::oracle::{ReadClass, ReadMix, ReadOp};
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::stats::{median, micros};
use crate::trace::Tracer;
use crate::workloads::churn_durable::{Churn, LOADING, STEP_NAMES};
use crate::workloads::{timed, RunConfig};
use qdk::core::{
    compare, extensions, redundancy, transform, Describe, DescribeOptions, TransformPolicy,
};
use qdk::durability::wal::WalWriter;
use qdk::durability::{Durable, WalOp};
use qdk::engine::{
    retrieve_compiled, retrieve_precomputed, DataAnswer, EvalOptions, Idb, MaintainedStore,
    ProgramPlan, Retraction, Retrieve,
};
use qdk::lang::ast::Statement;
use qdk::lang::parser::{parse_script, parse_statement};
use qdk::lang::{KnowledgeBase, Publisher};
use qdk::logic::parser::{parse_atom, parse_program};
use qdk::logic::subsume::rule_subsumes;
use qdk::logic::{Atom, Rule};
use qdk::storage::{Edb, Tuple, Value};
use qdk::{FsyncPolicy, Lsn, Parallelism, Session, Strategy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CALLS: usize = 200;
const MIN_CALLS: usize = 3;
const BUDGET: Duration = Duration::from_millis(200);
/// Span `op_id`s of probe calls start here, clear of the workload's ops.
const PROBE_OP_BASE: u64 = 1 << 40;

/// The inputs the probes run on.
pub struct Fixture {
    pub univ: University,
    /// Declarations and rules beyond the university's own.
    pub extra_program: String,
    pub describe_nonrec: Vec<String>,
    pub describe_rec: Vec<String>,
    pub necessary: String,
    pub without: String,
    pub wildcard: String,
    pub compare: String,
    pub seed: u64,
    pub scratch: PathBuf,
}

impl Fixture {
    /// The probes' inputs for a workload over a university instance.
    pub fn university(univ: &University, cfg: &RunConfig) -> Fixture {
        let mut r = Rng::fork(cfg.seed, "probe-statements");
        let c = |r: &mut Rng| r.below(univ.courses());
        Fixture {
            univ: univ.clone(),
            extra_program: String::new(),
            describe_nonrec: vec![
                "describe honor(X).".to_string(),
                format!(
                    "describe can_ta(X, c{}) where student(X, math, V) and V > 3.7.",
                    c(&mut r)
                ),
                format!(
                    "describe can_ta(X, Y) where honor(X) and teach(p{}, Y).",
                    r.below(univ.dept.len())
                ),
            ],
            describe_rec: vec![
                format!("describe prior(X, Y) where prior(c{}, Y).", c(&mut r)),
                format!("describe prior(X, Y) where prior(X, c{}).", c(&mut r)),
            ],
            necessary: "describe can_ta(X, Y) where necessary complete(X, Y, Z, U) and U > 3.3."
                .to_string(),
            without: "describe can_ta(X, Y) where not honor(X).".to_string(),
            wildcard: "describe * where honor(X).".to_string(),
            compare: "compare (describe can_ta(X, Y)) with (describe prior(X, Y)).".to_string(),
            seed: cfg.seed,
            scratch: cfg.data_dir.join(format!("probe-{}", cfg.seed)),
        }
    }

    /// The probes' inputs for `describe_mix`: its rule base, over a small
    /// university EDB that exists only so the storage, engine and
    /// durability rows have facts to work on (the workload's own EDB is
    /// empty).
    pub fn policy(
        shape: PolicyShape,
        statements: &crate::workloads::describe_mix::Statements,
        cfg: &RunConfig,
    ) -> Fixture {
        let univ = university(UnivShape::serving(200, 40), cfg.seed);
        let mut fx = Fixture::university(&univ, cfg);
        fx.extra_program = format!("{}{EXAMPLE8_PROGRAM}", policy_idb(shape, cfg.seed));
        fx.describe_nonrec = statements.cold.iter().take(48).cloned().collect();
        fx.describe_rec
            .push("describe p(X, Y) where r(a, Y).".to_string());
        fx.necessary = statements.necessary[0].clone();
        fx.without = statements.without[0].clone();
        fx.wildcard = statements.wildcard[0].clone();
        fx.compare = statements.compare[0].clone();
        fx
    }

    fn script(&self) -> String {
        format!(
            "{UNIVERSITY_SCHEMA}{}{UNIVERSITY_RULES}{}",
            self.univ.facts(),
            self.extra_program
        )
    }
}

/// One probe's samples, reported as a median.
struct Probe<'a> {
    tracer: &'a mut Tracer,
    next_id: u64,
}

impl Probe<'_> {
    /// Calls `f` (which returns the time it measured, so per-call set-up
    /// stays outside) and returns the samples in µs.
    fn samples(
        &mut self,
        layer: &'static str,
        name: &str,
        mut f: impl FnMut(usize) -> Result<Duration, String>,
    ) -> Result<Vec<f64>, String> {
        let started = Instant::now();
        let mut out = Vec::new();
        self.next_id += 1;
        while out.len() < CALLS && (out.len() < MIN_CALLS || started.elapsed() < BUDGET) {
            let took = f(out.len()).map_err(|e| format!("probe {name}: {e}"))?;
            self.tracer
                .record(layer, name, took, PROBE_OP_BASE + self.next_id);
            out.push(micros(took));
        }
        Ok(out)
    }

    /// Median µs of `f` itself.
    fn time<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        mut f: impl FnMut(usize) -> Result<R, String>,
    ) -> Result<(f64, usize), String> {
        let s = self.samples(layer, name, |i| {
            let (r, d) = timed(|| f(i));
            std::hint::black_box(r?);
            Ok(d)
        })?;
        Ok((median(&s), s.len()))
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn describe_of(statement: &str) -> Result<Describe, String> {
    match parse_statement(statement).map_err(err)? {
        Statement::Describe(d) | Statement::DescribeNecessary(d) => Ok(d),
        other => Err(format!("not a describe: {other}")),
    }
}

fn retrieve_of(op: &ReadOp) -> Result<Retrieve, String> {
    match parse_statement(&op.statement()).map_err(err)? {
        Statement::Retrieve(r) => Ok(r),
        other => Err(format!("not a retrieve: {other}")),
    }
}

/// The six IDB classes with their share of the IDB part of the mix.
fn idb_classes() -> Vec<(ReadClass, f64)> {
    let idb: Vec<_> = ReadClass::MIX
        .into_iter()
        .filter(|(c, _)| *c != ReadClass::Point)
        .collect();
    let total: usize = idb.iter().map(|(_, s)| s).sum();
    idb.into_iter()
        .map(|(c, s)| (c, s as f64 / total as f64))
        .collect()
}

/// The fixture loaded once, shared by every probe.
struct Loaded<'a> {
    fx: &'a Fixture,
    script: String,
    facts_text: String,
    n_facts: f64,
    /// Every fact of the fixture as a parsed atom.
    atoms: Vec<Atom>,
    kb: KnowledgeBase,
    edb: Edb,
    idb: Idb,
    plan: Arc<ProgramPlan>,
    /// Eight Zipf-drawn statements per read class, cycled by the probes.
    by_class: Vec<(ReadClass, Vec<ReadOp>)>,
    /// The unbound `prior(X, Y)` and how many rows it has.
    closure: Retrieve,
    closure_rows: f64,
    opts: DescribeOptions,
}

impl<'a> Loaded<'a> {
    fn new(fx: &'a Fixture) -> Result<Self, String> {
        let script = fx.script();
        let facts_text = fx.univ.facts();
        let mut kb = KnowledgeBase::new();
        kb.load(&script).map_err(err)?;
        let atoms = parse_script(&facts_text)
            .map_err(err)?
            .into_iter()
            .filter_map(|s| match s {
                Statement::Clause(rule) => Some(rule.head),
                _ => None,
            })
            .collect();
        let mix = ReadMix::new(&fx.univ, fx.seed);
        let mut r = Rng::fork(fx.seed, "probe-ops");
        let by_class = ReadClass::MIX
            .iter()
            .map(|&(class, _)| {
                let mut ops = Vec::new();
                while ops.len() < 8 {
                    let op = mix.draw(&mut r);
                    if op.class == class {
                        ops.push(op);
                    }
                }
                (class, ops)
            })
            .collect();
        let (edb, idb, plan) = (kb.edb().clone(), kb.idb().clone(), kb.compiled_plan());
        let closure = Retrieve::new(parse_atom("prior(X, Y)").map_err(err)?, Vec::new());
        let closure_rows = retrieve_compiled(
            &edb,
            &idb,
            &plan,
            &closure,
            Strategy::SemiNaive,
            EvalOptions::default(),
        )
        .map_err(err)?
        .len()
        .max(1) as f64;
        Ok(Loaded {
            fx,
            script,
            n_facts: fx.univ.fact_count() as f64,
            facts_text,
            atoms,
            kb,
            edb,
            idb,
            plan,
            by_class,
            closure,
            closure_rows,
            opts: DescribeOptions::paper(),
        })
    }

    fn queries(&self, class: ReadClass) -> Result<Vec<Retrieve>, String> {
        let (_, ops) = self
            .by_class
            .iter()
            .find(|(c, _)| *c == class)
            .expect("every class has ops");
        ops.iter().map(retrieve_of).collect()
    }

    fn retrieve(
        &self,
        query: &Retrieve,
        strategy: Strategy,
        workers: Parallelism,
    ) -> Result<DataAnswer, String> {
        let opts = EvalOptions::default().with_parallelism(workers);
        retrieve_compiled(&self.edb, &self.idb, &self.plan, query, strategy, opts).map_err(err)
    }
}

/// Runs every probe and reports the per-layer metrics they measure.
pub fn run_all(fx: &Fixture, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let cx = Loaded::new(fx)?;
    let mut p = Probe { tracer, next_id: 0 };
    let _ = std::fs::remove_dir_all(&fx.scratch);
    std::fs::create_dir_all(&fx.scratch).map_err(err)?;
    lang(&cx, &mut p, out)?;
    logic(&cx, &mut p, out)?;
    storage(&cx, &mut p, out)?;
    engine_strategies(&cx, &mut p, out)?;
    engine_maintenance(&cx, &mut p, out)?;
    core(&cx, &mut p, out)?;
    durability(&cx, &mut p, out)?;
    session(&cx, &mut p, out)?;
    // `churn_durable` measured these on its own commits.
    if out.value("session.apply_us").is_none() {
        commit_steps(fx, p.tracer, out)?;
        out.note("stand-in: this workload commits nothing; session.{apply,publish,refresh,visible_read}_us and durability.*_per_commit are 40 commits of the churn mix on a copy of the probe inputs");
    }
    let _ = std::fs::remove_dir_all(&fx.scratch);
    Ok(())
}

fn lang(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let statements: Vec<String> = cx
        .by_class
        .iter()
        .flat_map(|(_, ops)| ops.iter().map(ReadOp::statement))
        .chain(cx.fx.describe_nonrec.iter().cloned())
        .collect();
    let (us, n) = p.time("lang", "parse_statement", |i| {
        parse_statement(&statements[i % statements.len()]).map_err(err)
    })?;
    out.metric("lang.parse_stmt_us", us, n);
    let (us, n) = p.time("lang", "parse_script", |_| {
        parse_script(&cx.facts_text).map_err(err)
    })?;
    out.metric("lang.parse_script_facts_per_s", cx.n_facts / (us / 1e6), n);
    let answer = cx.retrieve(&cx.closure, Strategy::SemiNaive, Parallelism::auto())?;
    let (us, n) = p.time("lang", "render", |_| Ok(answer.to_string()))?;
    out.metric("lang.render_rows_per_s", cx.closure_rows / (us / 1e6), n);
    let mut kb = cx.kb.clone();
    let mut publisher = Publisher::new(&mut kb).map_err(err)?;
    let s = p.samples("lang", "publish", |i| {
        let fact =
            parse_atom(&format!("enroll(s{}, c0)", cx.fx.univ.students() + i)).map_err(err)?;
        kb.add_fact(&fact).map_err(err)?;
        let (epoch, d) = timed(|| publisher.publish(&mut kb));
        epoch.map_err(err)?;
        Ok(d)
    })?;
    out.metric("lang.publish_us", median(&s), s.len());
    Ok(())
}

fn logic(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let rules_text = format!("{UNIVERSITY_RULES}{}", rules_only(&cx.fx.extra_program));
    let (us, n) = p.time("logic", "parse_program", |_| {
        parse_program(&rules_text).map_err(err)
    })?;
    out.metric(
        "logic.parse_program_rules_per_s",
        cx.idb.len() as f64 / (us / 1e6),
        n,
    );
    // Theorem pairs the mix produces: every ordered pair of up to 24.
    let mut theorems: Vec<Rule> = Vec::new();
    for s in cx
        .fx
        .describe_nonrec
        .iter()
        .chain(&cx.fx.describe_rec)
        .take(8)
    {
        theorems.extend(
            qdk::core::describe(&cx.idb, &describe_of(s)?, &cx.opts)
                .map_err(err)?
                .rules(),
        );
    }
    theorems.truncate(24);
    let pairs = (theorems.len() * theorems.len()).max(1) as f64;
    let (us, n) = p.time("logic", "rule_subsumes", |_| {
        let mut hits = 0usize;
        for a in &theorems {
            for b in &theorems {
                hits += usize::from(rule_subsumes(a, b));
            }
        }
        Ok(hits)
    })?;
    out.metric("logic.subsume_us", us / pairs, n);
    Ok(())
}

fn storage(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let univ = &cx.fx.univ;
    let mut empty = KnowledgeBase::new();
    empty.load(UNIVERSITY_SCHEMA).map_err(err)?;
    let declared = empty.edb().clone();
    let (us, n) = p.time("storage", "insert_fact", |_| {
        let mut edb = declared.clone();
        for a in &cx.atoms {
            edb.insert_fact(a).map_err(err)?;
        }
        Ok(edb.fact_count())
    })?;
    out.metric("storage.insert_facts_per_s", cx.n_facts / (us / 1e6), n);
    let complete = cx.edb.relation("complete").ok_or("no complete relation")?;
    let course = |i: usize| Value::sym(&format!("c{}", i % univ.courses()));
    let student = |i: usize| Value::sym(&format!("s{}", i % univ.students()));
    let (us, n) = p.time("storage", "select", |i| {
        Ok(complete
            .select(&[None, Some(course(i)), None, None])
            .count())
    })?;
    out.metric("storage.probe_us", us, n);
    let (us, n) = p.time("storage", "probe_cols", |i| {
        Ok(complete
            .probe_cols(&[(0, &student(i)), (1, &course(i * 7))])
            .len())
    })?;
    out.metric("storage.composite_probe_us", us, n);
    let enroll = cx.edb.relation("enroll").ok_or("no enroll relation")?;
    let victims: Vec<Tuple> = enroll.iter().take(64).cloned().collect();
    let s = p.samples("storage", "remove_batch", |_| {
        let mut rel = enroll.clone();
        let (removed, d) = timed(|| rel.remove_batch(victims.iter()));
        std::hint::black_box(removed);
        Ok(d)
    })?;
    out.metric(
        "storage.remove_batch_us_per_tuple",
        median(&s) / victims.len().max(1) as f64,
        s.len(),
    );
    let (us, n) = p.time("storage", "edb_clone", |_| Ok(cx.edb.clone()))?;
    out.metric("storage.cow_clone_us", us, n);
    let s = p.samples("storage", "cow_first_write", |i| {
        let mut copy = cx.edb.clone();
        let fact = parse_atom(&format!("enroll(s{}, c1)", univ.students() + i)).map_err(err)?;
        let (done, d) = timed(|| copy.insert_fact(&fact));
        done.map_err(err)?;
        Ok(d)
    })?;
    out.metric("storage.cow_first_write_us", median(&s), s.len());
    Ok(())
}

/// Plan compilation, the strategy table (one row per strategy and, beneath
/// it, per IDB class) and the unbound closure at 1 and 2 workers.
fn engine_strategies(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let (us, n) = p.time("engine", "plan_compile", |_| {
        Ok(ProgramPlan::compile_with_stats(&cx.idb, cx.edb.stats()))
    })?;
    out.metric("engine.plan_compile_us", us, n);
    for (strategy, tag) in [
        (Strategy::SemiNaive, "seminaive"),
        (Strategy::Qsq, "qsq"),
        (Strategy::TopDown, "topdown"),
    ] {
        let mut pooled = 0.0;
        for (class, share) in idb_classes() {
            let queries = cx.queries(class)?;
            let (us, n) = p.time("engine", &format!("bound_{tag}.{}", class.name()), |i| {
                cx.retrieve(&queries[i % queries.len()], strategy, Parallelism::auto())
            })?;
            out.metric(format!("engine.bound_{tag}.{}_us", class.name()), us, n);
            pooled += share * us;
        }
        out.metric(format!("engine.bound_{tag}_us"), pooled, 6);
    }
    let mut closure_ms = [0.0; 3];
    let settings = [
        (Parallelism::auto(), "closure"),
        (Parallelism::workers(1), "closure_w1"),
        (Parallelism::workers(2), "closure_w2"),
    ];
    for (ms, (workers, name)) in closure_ms.iter_mut().zip(settings) {
        let (us, _) = p.time("engine", name, |_| {
            cx.retrieve(&cx.closure, Strategy::SemiNaive, workers)
        })?;
        *ms = us / 1e3;
    }
    out.metric(
        "engine.closure_us_per_tuple",
        closure_ms[0] * 1e3 / cx.closure_rows,
        cx.closure_rows as usize,
    );
    out.metric("engine.closure_workers1_ms", closure_ms[1], 1);
    out.metric("engine.workers2_speedup", closure_ms[1] / closure_ms[2], 1);
    Ok(())
}

fn engine_maintenance(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let univ = &cx.fx.univ;
    let build = || MaintainedStore::build(&cx.edb, &cx.idb, Arc::clone(&cx.plan)).map_err(err);
    let (us, n) = p.time("engine", "maintain_build", |_| build())?;
    out.metric("engine.maintain_build_ms", us / 1e3, n);
    let store = build()?;
    let honor_student = (0..univ.students() as u32)
        .find(|&s| univ.honor(s))
        .unwrap_or(0);
    let fact_for = |pred: &str, i: usize| -> String {
        match pred {
            "enroll" => format!("enroll(s{}, c{})", univ.students() + i, i % univ.courses()),
            "complete" => format!(
                "complete(s{honor_student}, c{}, f99, 4.0)",
                i % univ.courses()
            ),
            "prereq" => format!(
                "prereq(c{}, c0)",
                univ.courses() - 1 - i % (univ.courses() / 2).max(1)
            ),
            _ => univ.student_fact(honor_student),
        }
    };
    for pred in ["enroll", "complete", "prereq", "student"] {
        let (mut edb, mut store) = (cx.edb.clone(), store.clone());
        let mut inserts = Vec::new();
        // Each call inserts a fact and retracts it again (for `student`:
        // retracts an honor student and puts them back), timing the two
        // maintenance steps separately; the EDB edits are outside both.
        let retracts = p.samples("engine", &format!("maintain_retract.{pred}"), |i| {
            let atom = parse_atom(&fact_for(pred, i)).map_err(err)?;
            let tuple = Tuple::new(
                atom.args
                    .iter()
                    .filter_map(|t| t.as_const().cloned())
                    .collect(),
            );
            let retract =
                |edb: &mut Edb, store: &mut MaintainedStore| -> Result<Duration, String> {
                    let (prepared, d1) = timed(|| store.prepare_retract(edb, pred, &tuple));
                    edb.remove_fact(&atom).map_err(err)?;
                    let d2 = match prepared.map_err(err)? {
                        Retraction::Clean => Duration::ZERO,
                        Retraction::Prepared(doomed) => {
                            let (done, d) = timed(|| store.finish_retract(edb, &cx.idb, doomed));
                            done.map_err(err)?;
                            d
                        }
                    };
                    Ok(d1 + d2)
                };
            let insert = |edb: &mut Edb, store: &mut MaintainedStore| -> Result<Duration, String> {
                if !edb.insert_fact(&atom).map_err(err)? {
                    return Err(format!("{atom} was already stored"));
                }
                let (done, d) = timed(|| store.after_insert(edb, &cx.idb, pred));
                done.map_err(err)?;
                Ok(d)
            };
            if pred == "student" {
                let d = retract(&mut edb, &mut store)?;
                inserts.push(micros(insert(&mut edb, &mut store)?));
                Ok(d)
            } else {
                inserts.push(micros(insert(&mut edb, &mut store)?));
                retract(&mut edb, &mut store)
            }
        })?;
        out.metric(
            format!("engine.maintain_insert_us.{pred}"),
            median(&inserts),
            inserts.len(),
        );
        out.metric(
            format!("engine.maintain_retract_us.{pred}"),
            median(&retracts),
            retracts.len(),
        );
    }
    let served: Vec<Retrieve> = idb_classes()
        .into_iter()
        .map(|(class, _)| cx.queries(class).map(|mut q| q.swap_remove(0)))
        .collect::<Result<_, _>>()?;
    let (us, n) = p.time("engine", "retrieve_precomputed", |i| {
        retrieve_precomputed(&cx.edb, &cx.idb, store.derived(), &served[i % served.len()])
            .map_err(err)
    })?;
    out.metric("engine.precomputed_serve_us", us, n);
    Ok(())
}

fn core(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let (fx, idb, opts) = (cx.fx, &cx.idb, &cx.opts);
    for (name, metric, statements) in [
        (
            "describe_nonrec",
            "core.describe_nonrec_us",
            &fx.describe_nonrec,
        ),
        ("describe_rec", "core.describe_rec_us", &fx.describe_rec),
    ] {
        let queries: Vec<Describe> = statements
            .iter()
            .map(|s| describe_of(s))
            .collect::<Result<_, _>>()?;
        let (us, n) = p.time("core", name, |i| {
            qdk::core::describe(idb, &queries[i % queries.len()], opts).map_err(err)
        })?;
        out.metric(metric, us, n);
    }
    // The theorem sets the mix produces, before redundancy removal.
    let mut raw_opts = DescribeOptions::paper();
    raw_opts.remove_redundant = false;
    let raw: Vec<_> = fx
        .describe_nonrec
        .iter()
        .take(16)
        .map(|s| {
            qdk::core::describe(idb, &describe_of(s)?, &raw_opts)
                .map(|a| a.theorems)
                .map_err(err)
        })
        .collect::<Result<_, _>>()?;
    let (us, n) = p.time("core", "remove_redundant", |i| {
        Ok(redundancy::remove_redundant(
            raw[i % raw.len()].clone(),
            &[],
        ))
    })?;
    out.metric("core.reduce_us", us, n);
    let (us, n) = p.time("core", "transform_idb", |_| {
        transform::transform_idb(idb, TransformPolicy::PreferModified).map_err(err)
    })?;
    out.metric("core.transform_us", us, n);
    let Statement::DescribeWildcard { hypothesis } = parse_statement(&fx.wildcard).map_err(err)?
    else {
        return Err("wildcard statement did not parse as one".into());
    };
    let (us, n) = p.time("core", "describe_wildcard", |_| {
        extensions::describe_wildcard(idb, &hypothesis, opts).map_err(err)
    })?;
    out.metric("core.wildcard_ms", us / 1e3, n);
    let Statement::Compare { first, second } = parse_statement(&fx.compare).map_err(err)? else {
        return Err("compare statement did not parse as one".into());
    };
    let (us, n) = p.time("core", "compare", |_| {
        compare::compare(idb, &first, &second, opts).map_err(err)
    })?;
    out.metric("core.compare_ms", us / 1e3, n);
    let necessary = describe_of(&fx.necessary)?;
    let (us, n) = p.time("core", "describe_necessary", |_| {
        extensions::describe_necessary(idb, &necessary, opts).map_err(err)
    })?;
    out.metric("core.necessary_us", us, n);
    let Statement::DescribeWithout { subject, negated } =
        parse_statement(&fx.without).map_err(err)?
    else {
        return Err("negated-hypothesis statement did not parse as one".into());
    };
    let (us, n) = p.time("core", "describe_without", |_| {
        extensions::describe_without(idb, &subject, &negated, opts).map_err(err)
    })?;
    out.metric("core.without_us", us, n);
    Ok(())
}

fn durability(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let scratch = &cx.fx.scratch;
    let wal_ops: Vec<WalOp> = cx
        .atoms
        .iter()
        .take(256)
        .filter_map(WalOp::add_fact)
        .collect();
    let mut writer =
        WalWriter::open(&scratch.join("probe.wal"), FsyncPolicy::Never).map_err(err)?;
    let mut lsn = 0u64;
    let (us, n) = p.time("durability", "wal_append", |i| {
        lsn += 1;
        writer
            .append(Lsn(lsn), &wal_ops[i % wal_ops.len()])
            .map_err(err)
    })?;
    out.metric("durability.append_us", us, n);
    let s = p.samples("durability", "wal_sync", |i| {
        lsn += 1;
        writer
            .append(Lsn(lsn), &wal_ops[i % wal_ops.len()])
            .map_err(err)?;
        let (done, d) = timed(|| writer.sync());
        done.map_err(err)?;
        Ok(d)
    })?;
    out.metric("durability.fsync_us", median(&s), s.len());
    drop(writer);
    // Two stores of the fixture: one that is all WAL, one that is all
    // checkpoint, so replay and checkpoint load are timed apart.
    let (wal_dir, ckpt_dir) = (scratch.join("pure-wal"), scratch.join("checkpoint-only"));
    let logged = {
        let mut s = Session::open_with(&wal_dir, LOADING).map_err(err)?;
        s.load(&cx.script).map_err(err)?;
        s.knowledge_base()
            .durability_metrics()
            .map_or(0, |m| m.wal_appends)
    };
    let (us, n) = p.time("durability", "open_pure_wal", |_| {
        Durable::open(&wal_dir, LOADING)
            .map(|o| o.tail.len())
            .map_err(err)
    })?;
    out.metric("durability.replay_ops_per_s", logged as f64 / (us / 1e6), n);
    let mut s = Session::open_with(&ckpt_dir, LOADING).map_err(err)?;
    s.load(&cx.script).map_err(err)?;
    let mut bytes = 0;
    let (us, n) = p.time("durability", "checkpoint", |_| {
        bytes = s.checkpoint().map_err(err)?.map_or(0, |(_, b)| b);
        Ok(bytes)
    })?;
    out.metric("durability.checkpoint_ms", us / 1e3, n);
    out.metric("durability.checkpoint_bytes", bytes as f64, 1);
    drop(s);
    let (us, n) = p.time("durability", "open_checkpoint", |_| {
        Durable::open(&ckpt_dir, LOADING)
            .map(|o| o.checkpoint.is_some())
            .map_err(err)
    })?;
    out.metric("durability.checkpoint_load_ms", us / 1e3, n);
    Ok(())
}

/// The seven read classes through `Session::run` + render.
fn session(cx: &Loaded, p: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let mut session = Session::new();
    session.load(&cx.script).map_err(err)?;
    for (class, ops) in &cx.by_class {
        let texts: Vec<String> = ops.iter().map(ReadOp::statement).collect();
        let (us, n) = p.time("session", &format!("run:{}", class.name()), |i| {
            session
                .run(&texts[i % texts.len()])
                .map(|a| a.to_string())
                .map_err(err)
        })?;
        out.metric(format!("session.retrieve_{}_p50_us", class.name()), us, n);
    }
    Ok(())
}

/// For workloads that commit nothing themselves: 40 commits of the churn
/// mix on a durable copy of the fixture, for the four commit-step rows
/// and the two per-commit durability counts.
fn commit_steps(fx: &Fixture, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut churn = Churn::open(&fx.scratch.join("commits"), fx.univ.clone(), fx.seed)?;
    let mut checks = Checks::default();
    churn.run(4, &mut Tracer::new(false), &mut checks, |_, _| {});
    let pass = churn.run(40, tracer, &mut checks, |_, _| {});
    if let Some(reason) = checks.reasons.first() {
        return Err(format!("commit probe: {reason}"));
    }
    for (name, lat) in STEP_NAMES.iter().zip(&pass.steps) {
        out.metric(format!("session.{name}_us"), lat.median(), lat.len());
    }
    let n = pass.commit.len() + pass.ckpt_commit.len();
    out.metric(
        "durability.fsyncs_per_commit",
        pass.fsyncs as f64 / n as f64,
        n,
    );
    out.metric(
        "durability.wal_bytes_per_commit",
        pass.wal_bytes as f64 / n as f64,
        n,
    );
    Ok(())
}

/// The rule lines of a program text (its `predicate` declarations dropped).
fn rules_only(program: &str) -> String {
    program
        .lines()
        .filter(|l| !l.starts_with("predicate "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Writes the trace file and the per-layer self-time summary.
pub fn finish(tracer: &Tracer, cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let path = cfg
        .results_dir
        .join(format!("trace-{}.jsonl", out.workload));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));
    let by_layer = tracer.self_time_by_layer();
    let total: f64 = by_layer.iter().map(|(_, t)| t).sum();
    for (layer, t) in by_layer {
        out.note(format!(
            "self time {layer:<11} {:>12.1} us  {:>5.1} %",
            t,
            100.0 * t / total.max(1.0)
        ));
    }
    Ok(())
}
