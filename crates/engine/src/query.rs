//! The `retrieve` statement (§3.1).
//!
//! ```text
//! retrieve p
//! where ψ
//! ```
//!
//! finds the database values whose substitution for the variables of `p`
//! and `ψ` satisfies `p ∧ ψ`, retrieving the values of the free variables
//! (those of `p`). `p` may be an EDB predicate, an IDB predicate, or a new
//! predicate altogether, in which case it is taken to be defined through
//! `ψ` (the paper's Example 2 uses the fresh predicate `answer`).

use crate::bindings::{exec, frame_row, DerivedFacts, FactView, FIRE_POLL_EMISSIONS};
use crate::error::{EngineError, Result};
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan};
use crate::qsq::QsqTables;
use crate::seminaive;
use crate::topdown::Solver;
use qdk_logic::governor::Governor;
use qdk_logic::obs::ObsSink;
use qdk_logic::{Atom, Frame, Interner, Literal, Rule, Term, Var};
use qdk_storage::{Edb, Tuple};
use std::fmt;

/// Evaluation strategy for `retrieve`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Pick one of the three evaluators below per query, from the shape
    /// of the goals and of the rules they demand (see [`AutoChoice`] for
    /// the decision table). Never from data sizes, so the same query over
    /// the same rules always runs the same way.
    #[default]
    Auto,
    /// Semi-naive bottom-up over the relevant predicates: materialises
    /// every demanded predicate in full. The one to use when the goals
    /// bind nothing.
    SemiNaive,
    /// Goal-directed (relevance + constant propagation): resolves
    /// non-recursive calls with the query's constants pushed into the
    /// rule bodies and runs no fixpoint for them; recursive predicates
    /// are closed bottom-up in full first. Fastest on bound goals over a
    /// non-recursive slice.
    TopDown,
    /// Query-Subquery: demand-driven set-at-a-time evaluation over QSQ
    /// nets cached per (predicate, adornment) in the compiled plan.
    /// Derives only the demanded part of a recursive predicate, which
    /// makes it the fastest strategy for bound goals over a recursive
    /// slice; over a non-recursive one its left-to-right binding order
    /// loses to top-down's re-planned bodies. Falls back to semi-naive
    /// (recording a downgrade) when the demanded slice uses negation or
    /// an adornment compiles to an unschedulable filter chain; an
    /// exhausted limit is an error, not a reason to start over.
    Qsq,
}

impl Strategy {
    /// Every strategy a caller can name, the default first.
    pub const ALL: [Strategy; 4] = [
        Strategy::Auto,
        Strategy::SemiNaive,
        Strategy::TopDown,
        Strategy::Qsq,
    ];
}

/// What [`Strategy::Auto`] resolved one query to. The variants are the
/// rows of the decision table in the order they are tried; the first
/// that applies wins. Every condition is a property of the rules
/// generation and of the goals' shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoChoice {
    /// 1. The knowledge base keeps a maintained derived store: the answer
    ///    is projected from it. (Decided by the knowledge-base layer, the
    ///    only one that knows about the store.)
    Maintained,
    /// 2. No goal mentions an IDB predicate: the conjunction is solved
    ///    against the stored relations, with no evaluator at all.
    Edb,
    /// 3. No database goal carries a constant, so there is nothing to
    ///    push down: semi-naive.
    Unbound,
    /// 4. The demanded slice contains no recursive predicate, so the
    ///    query is a union of conjunctive queries: top-down.
    NonRecursive,
    /// 5. The demanded slice is recursive and free of negation: QSQ.
    Recursive,
    /// 6. The demanded slice is recursive and uses negation, which the
    ///    QSQ net cannot host: semi-naive.
    RecursiveNegation,
}

impl AutoChoice {
    /// The decision for a goal conjunction (rows 2–6; row 1 is the
    /// caller's).
    fn decide(idb: &Idb, plan: &ProgramPlan, goals: &[Literal], obs: &ObsSink) -> Self {
        let db_goals = || goals.iter().filter(|g| !g.is_builtin());
        if !db_goals().any(|g| idb.defines(g.atom.pred.as_str())) {
            return AutoChoice::Edb;
        }
        if !db_goals().any(|g| g.atom.args.iter().any(|t| matches!(t, Term::Const(_)))) {
            return AutoChoice::Unbound;
        }
        let analysis = plan.analysis(idb, obs);
        if !analysis.demands_recursion(goals) {
            AutoChoice::NonRecursive
        } else if !analysis.demands_negation(goals) {
            AutoChoice::Recursive
        } else {
            AutoChoice::RecursiveNegation
        }
    }

    /// The row of the decision table, 1 to 6.
    pub fn rule(self) -> u8 {
        self as u8 + 1
    }

    /// The evaluator the choice runs; `None` for the two rows that run
    /// none.
    pub fn evaluator(self) -> Option<Strategy> {
        match self {
            AutoChoice::Maintained | AutoChoice::Edb => None,
            AutoChoice::Unbound | AutoChoice::RecursiveNegation => Some(Strategy::SemiNaive),
            AutoChoice::NonRecursive => Some(Strategy::TopDown),
            AutoChoice::Recursive => Some(Strategy::Qsq),
        }
    }

    /// The counter a choice bumps, one per path a query can take.
    pub fn counter(self) -> &'static str {
        match self {
            AutoChoice::Maintained => "retrieve_auto_maintained",
            AutoChoice::Edb => "retrieve_auto_edb",
            AutoChoice::Unbound | AutoChoice::RecursiveNegation => "retrieve_auto_seminaive",
            AutoChoice::NonRecursive => "retrieve_auto_topdown",
            AutoChoice::Recursive => "retrieve_auto_qsq",
        }
    }
}

impl fmt::Display for AutoChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (reason, path) = match self {
            AutoChoice::Maintained => ("maintained store is live", "projected from it"),
            AutoChoice::Edb => ("no goal is derived", "stored relations only"),
            AutoChoice::Unbound => ("no goal carries a constant", "SemiNaive"),
            AutoChoice::NonRecursive => ("bound goals, non-recursive slice", "TopDown"),
            AutoChoice::Recursive => ("bound goals, recursive slice", "Qsq"),
            AutoChoice::RecursiveNegation => {
                ("bound goals, recursive slice with negation", "SemiNaive")
            }
        };
        write!(f, "rule {}: {reason} -> {path}", self.rule())
    }
}

/// An evaluation mode a [`Downgrade`] can degrade from or to: one of the
/// three retrieve strategies, one of the two maintenance modes a live
/// knowledge base keeps its derived state in — incremental (delta
/// propagation / Backward/Forward retraction) and full recomputation —
/// or one of the two ways a durable store covers its history.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A retrieve evaluation strategy.
    Strategy(Strategy),
    /// Incremental maintenance of materialized derived facts.
    Incremental,
    /// Full fixpoint recomputation of derived facts.
    Recompute,
    /// A checkpoint snapshots the state and the WAL is truncated.
    Checkpoint,
    /// The WAL keeps the history and recovery replays it.
    WalReplay,
}

impl fmt::Debug for Mode {
    // Renders the inner strategy bare ("Qsq", not "Strategy(Qsq)") so
    // downgrade notes read the same as when `Downgrade` held strategies
    // directly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Strategy(s) => write!(f, "{s:?}"),
            Mode::Incremental => write!(f, "Incremental"),
            Mode::Recompute => write!(f, "Recompute"),
            Mode::Checkpoint => write!(f, "Checkpoint"),
            Mode::WalReplay => write!(f, "WalReplay"),
        }
    }
}

impl From<Strategy> for Mode {
    fn from(s: Strategy) -> Self {
        Mode::Strategy(s)
    }
}

impl PartialEq<Strategy> for Mode {
    fn eq(&self, other: &Strategy) -> bool {
        matches!(self, Mode::Strategy(s) if s == other)
    }
}

/// A recorded degradation: the requested evaluation or maintenance mode
/// could not complete (e.g. the QSQ net met negation in the demanded
/// slice, or a retraction met negation over an affected
/// predicate), and a simpler mode produced the result instead of
/// erroring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Downgrade {
    /// The mode that was requested.
    pub from: Mode,
    /// The mode that produced the result.
    pub to: Mode,
    /// Human-readable cause of the downgrade.
    pub reason: String,
}

impl Downgrade {
    /// A strategy-to-strategy downgrade (e.g. Qsq → SemiNaive).
    pub fn strategy(from: Strategy, to: Strategy, reason: impl Into<String>) -> Self {
        Downgrade {
            from: Mode::Strategy(from),
            to: Mode::Strategy(to),
            reason: reason.into(),
        }
    }

    /// An incremental-maintenance fallback: delta propagation or a
    /// Backward/Forward retraction bailed out and the derived state was
    /// fully recomputed.
    pub fn maintenance(reason: impl Into<String>) -> Self {
        Downgrade {
            from: Mode::Incremental,
            to: Mode::Recompute,
            reason: reason.into(),
        }
    }

    /// A failed automatic checkpoint: the mutation that triggered it
    /// stands, and the WAL keeps its history until a retry succeeds.
    pub fn checkpoint(reason: impl Into<String>) -> Self {
        Downgrade {
            from: Mode::Checkpoint,
            to: Mode::WalReplay,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Downgrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} degraded to {:?}: {}",
            self.from, self.to, self.reason
        )
    }
}

/// A parsed `retrieve` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Retrieve {
    /// The subject `p`: an atomic formula whose variables are the free
    /// variables of the query.
    pub subject: Atom,
    /// The qualifier `ψ`: a positive formula (extensions allow negation).
    pub qualifier: Vec<Literal>,
}

impl Retrieve {
    /// Creates a retrieve statement.
    pub fn new(subject: Atom, qualifier: Vec<Literal>) -> Self {
        Retrieve { subject, qualifier }
    }
}

impl fmt::Display for Retrieve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retrieve {}", self.subject)?;
        if !self.qualifier.is_empty() {
            let parts: Vec<String> = self.qualifier.iter().map(ToString::to_string).collect();
            write!(f, " where {}", parts.join(" and "))?;
        }
        Ok(())
    }
}

/// The answer to a data query: a header of variables and the retrieved
/// value rows — a set, so the rows are sorted under `Ord` on values and
/// hold no duplicate. No strategy, snapshot or maintained store can move
/// an answer byte.
#[derive(Clone, Debug, PartialEq)]
pub struct DataAnswer {
    /// The free variables, in subject-argument order.
    pub columns: Vec<Var>,
    /// The retrieved rows, ascending and distinct.
    pub rows: Vec<Tuple>,
    /// Strategy degradations recorded while answering (empty when the
    /// requested strategy completed on its own).
    pub downgrades: Vec<Downgrade>,
    /// What [`Strategy::Auto`] resolved this query to; `None` when the
    /// caller pinned a strategy. Not part of the rendered answer.
    pub auto: Option<AutoChoice>,
}

impl DataAnswer {
    /// The answer over `columns` holding the set of `rows`: sorted and
    /// deduplicated here, the one place a retrieve answer is built.
    fn new(columns: Vec<Var>, mut rows: Vec<Tuple>) -> Self {
        crate::order::sort_dedup(&mut rows);
        DataAnswer {
            columns,
            rows,
            downgrades: Vec::new(),
            auto: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were retrieved.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True if some row has exactly the given rendered values (helper for
    /// tests and examples).
    pub fn contains_row(&self, values: &[&str]) -> bool {
        self.rows.iter().any(|t| {
            t.arity() == values.len()
                && t.values()
                    .iter()
                    .zip(values)
                    .all(|(v, w)| v.to_string() == *w)
        })
    }
}

impl fmt::Display for DataAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, "\t")?;
            }
            write!(f, "{v}")?;
        }
        if !self.columns.is_empty() {
            writeln!(f)?;
        }
        for row in &self.rows {
            for (i, v) in row.values().iter().enumerate() {
                if i > 0 {
                    f.write_str("\t")?;
                }
                v.fmt(f)?;
            }
            f.write_str("\n")?;
        }
        for d in &self.downgrades {
            writeln!(f, "-- note: {d}")?;
        }
        Ok(())
    }
}

/// Evaluates a `retrieve` statement.
pub fn retrieve(edb: &Edb, idb: &Idb, query: &Retrieve, strategy: Strategy) -> Result<DataAnswer> {
    retrieve_with(edb, idb, query, strategy, EvalOptions::default())
}

/// [`retrieve`] with evaluation options. Compiles the program first;
/// callers issuing repeated queries over an unchanged IDB should compile
/// once and use [`retrieve_compiled`] (the knowledge-base layer does).
pub fn retrieve_with(
    edb: &Edb,
    idb: &Idb,
    query: &Retrieve,
    strategy: Strategy,
    opts: EvalOptions,
) -> Result<DataAnswer> {
    let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
    retrieve_compiled(edb, idb, &plan, query, strategy, opts)
}

/// [`retrieve_with`] over an already compiled program. `plan` must be the
/// compilation of `idb`. [`Strategy::Auto`] is resolved here, before any
/// evaluation, and recorded on the answer and as a `retrieve_auto_*`
/// counter. Every QSQ net runs cold, from empty relations.
pub fn retrieve_compiled(
    edb: &Edb,
    idb: &Idb,
    plan: &ProgramPlan,
    query: &Retrieve,
    strategy: Strategy,
    opts: EvalOptions,
) -> Result<DataAnswer> {
    retrieve_tabled(edb, idb, plan, None, query, strategy, opts)
}

/// [`retrieve_compiled`], keeping the relations of the QSQ nets it runs
/// in `tables` (see [`QsqTables`]): a subquery `tables` has answered is
/// read from them, and a new one extends them. `tables` must belong to
/// this EDB and these rules — the knowledge-base layer keeps one per data
/// epoch. `None` runs every net cold.
pub fn retrieve_tabled(
    edb: &Edb,
    idb: &Idb,
    plan: &ProgramPlan,
    tables: Option<&QsqTables>,
    query: &Retrieve,
    strategy: Strategy,
    opts: EvalOptions,
) -> Result<DataAnswer> {
    let (columns, goals) = query_goals(edb, idb, query)?;
    let obs = opts.sink.clone();
    let auto = (strategy == Strategy::Auto).then(|| {
        let choice = AutoChoice::decide(idb, plan, &goals, &obs);
        obs.counter(choice.counter(), 1);
        choice
    });
    // Bottom-up answers: the goal conjunction against EDB + materialized
    // facts, under the statement's deadline and cancel token.
    let gov = opts.governor();
    let solve = |derived: &DerivedFacts| {
        let _span = obs.span("project", 0);
        solve_projected(edb, derived, &goals, query, &columns, &gov)
    };
    // Semi-naive: materialize the predicates the goals demand.
    let seminaive = || {
        let span = obs.span("seminaive", 0);
        let relevant = plan.analysis(idb, &obs).demanded(&goals);
        let derived = seminaive::eval(
            edb,
            idb,
            plan,
            Some(&relevant),
            DerivedFacts::new(),
            opts.clone(),
        )?;
        drop(span);
        solve(&derived)
    };
    let mut downgrades = Vec::new();
    let rows = match auto.map_or(Some(strategy), AutoChoice::evaluator) {
        // No goal is derived: nothing to materialize.
        None => solve(&DerivedFacts::new())?,
        Some(Strategy::TopDown) => {
            let span = obs.span("topdown", 0);
            let rows =
                Solver::with_plan(edb, idb, plan, opts.clone()).solve_all(&goals, &columns)?;
            drop(span);
            rows.ok_or_else(|| unbound_column(query))?
        }
        Some(Strategy::Qsq) => {
            let span = obs.span("qsq", 0);
            let rows = crate::qsq::qsq_rows(edb, idb, plan, tables, &columns, &goals, &opts);
            drop(span);
            match rows {
                Ok(rows) => rows,
                // Graceful degradation: if the net cannot host the query
                // (negation in the demanded slice, or an adornment whose
                // filter chain cannot be scheduled surfaces `UnsafeRule`
                // at net execution), retry with plain semi-naive — which
                // evaluates the original, safe rules — and record the
                // downgrade instead of erroring. A net that exhausts its
                // limits is not retried: the retry would start the
                // deadline and the budget over, and answer a cancelled
                // request with a second evaluation.
                Err(e @ (EngineError::NotStratified(_) | EngineError::UnsafeRule { .. })) => {
                    obs.counter("downgrade", 1);
                    downgrades.push(Downgrade::strategy(
                        Strategy::Qsq,
                        Strategy::SemiNaive,
                        e.to_string(),
                    ));
                    seminaive()?
                }
                Err(e) => return Err(e),
            }
        }
        // `Auto` was resolved above.
        Some(Strategy::SemiNaive | Strategy::Auto) => seminaive()?,
    };
    // Every evaluation's derived store is dropped by now, so the sort's
    // keys never sit beside it.
    Ok(DataAnswer {
        downgrades,
        auto,
        ..DataAnswer::new(columns, rows)
    })
}

/// Validates the query subject and builds the answer columns and goal
/// conjunction shared by every evaluation strategy.
pub(crate) fn query_goals(
    edb: &Edb,
    idb: &Idb,
    query: &Retrieve,
) -> Result<(Vec<Var>, Vec<Literal>)> {
    let subject = &query.subject;
    if subject.is_builtin() {
        return Err(EngineError::UnknownSubject(subject.pred.to_string()));
    }
    let known = edb.is_edb_predicate(subject.pred.as_str()) || idb.defines(subject.pred.as_str());
    let columns: Vec<Var> = subject.vars();

    // A new subject predicate is defined through the qualifier: its
    // variables must occur in ψ. The goal conjunction is then just ψ;
    // otherwise it is p ∧ ψ.
    let mut goals: Vec<Literal> = Vec::with_capacity(1 + query.qualifier.len());
    if known {
        goals.push(Literal::pos(subject.clone()));
    } else {
        if query.qualifier.is_empty() {
            return Err(EngineError::UnknownSubject(subject.pred.to_string()));
        }
        let mut qual_vars = Vec::new();
        for l in &query.qualifier {
            l.atom.collect_vars(&mut qual_vars);
        }
        if let Some(missing) = columns.iter().find(|v| !qual_vars.contains(v)) {
            return Err(EngineError::UnsafeRule {
                rule: query.to_string(),
                literal: missing.to_string(),
            });
        }
    }
    goals.extend(query.qualifier.iter().cloned());
    Ok((columns, goals))
}

/// Answers a retrieve query against an already materialized derived
/// store, skipping fixpoint evaluation entirely. This is the serving path
/// for incrementally maintained knowledge bases: the store is kept
/// consistent across mutations, so a query is just goal solving plus
/// projection.
pub fn retrieve_precomputed(
    edb: &Edb,
    idb: &Idb,
    derived: &DerivedFacts,
    query: &Retrieve,
) -> Result<DataAnswer> {
    retrieve_precomputed_with(edb, idb, derived, query, EvalOptions::default())
}

/// [`retrieve_precomputed`] under `opts`' deadline and cancel token: a
/// large stored join stops when either trips, with
/// [`EngineError::Exhausted`].
pub fn retrieve_precomputed_with(
    edb: &Edb,
    idb: &Idb,
    derived: &DerivedFacts,
    query: &Retrieve,
    opts: EvalOptions,
) -> Result<DataAnswer> {
    let (columns, goals) = query_goals(edb, idb, query)?;
    let rows = solve_projected(edb, derived, &goals, query, &columns, &opts.governor())?;
    Ok(DataAnswer::new(columns, rows))
}

/// Solves a goal conjunction against the EDB plus a materialized derived
/// store and projects each satisfying frame straight onto the subject's
/// columns — the rows, duplicates included, in no particular order.
/// Skipping the per-row substitution map is the bottom-up answer fast
/// path. `gov` is polled every [`FIRE_POLL_EMISSIONS`] satisfying frames,
/// the cadence rule firings use.
fn solve_projected(
    edb: &Edb,
    derived: &DerivedFacts,
    goals: &[Literal],
    query: &Retrieve,
    columns: &[Var],
    gov: &Governor,
) -> Result<Vec<Tuple>> {
    if let Some(rows) = full_extension(edb, derived, goals, columns) {
        return Ok(rows);
    }
    let dummy = Rule::with_literals(Atom::new("_goal", vec![]), goals.to_vec());
    let stats = edb.stats();
    let plan = RulePlan::for_query(goals, dummy.to_string(), &mut Interner::new(), Some(&stats));
    let view = FactView::total(edb, derived);
    let slots: Vec<Option<u32>> = columns.iter().map(|v| plan.compiled.slot_of(v)).collect();
    let mut frame = Frame::new(plan.compiled.num_slots());
    let mut rows: Vec<Tuple> = Vec::new();
    let mut unbound = false;
    let mut emitted = 0u64;
    exec(&plan, 0, &view, &mut frame, &mut |f| {
        emitted += 1;
        if emitted == FIRE_POLL_EMISSIONS {
            emitted = 0;
            gov.poll()?;
        }
        match frame_row(f, &slots) {
            Some(row) => rows.push(row),
            None => unbound = true,
        }
        Ok(())
    })?;
    if unbound {
        return Err(unbound_column(query));
    }
    Ok(rows)
}

/// The error for an answer column no goal binds.
fn unbound_column(query: &Retrieve) -> EngineError {
    EngineError::UnsafeRule {
        rule: query.to_string(),
        literal: "free variable not bound by query".to_string(),
    }
}

/// The whole-extension fast path: a single positive goal whose arguments
/// are distinct variables matching the answer columns one-for-one asks
/// for every stored tuple of one predicate, so the rows are the backing
/// relation's tuples verbatim — no plan, no execution and no projection
/// (the row *is* the tuple). Returns `None` when the query needs real
/// goal solving (constants, repeated or reordered variables, several
/// goals, negation, builtins) or when the stored arity disagrees with the
/// goal (the general path owns that error).
fn full_extension(
    edb: &Edb,
    derived: &DerivedFacts,
    goals: &[Literal],
    columns: &[Var],
) -> Option<Vec<Tuple>> {
    let [goal] = goals else {
        return None;
    };
    if !goal.positive || goal.is_builtin() {
        return None;
    }
    let args = &goal.atom.args;
    // `columns` holds distinct variables, so equal length plus pointwise
    // match rules out constants and repeated variables in one sweep.
    if args.len() != columns.len()
        || !args
            .iter()
            .zip(columns)
            .all(|(a, c)| matches!(a, Term::Var(v) if v == c))
    {
        return None;
    }
    // Mirror `FactView::scan_target`: declared predicates read the EDB
    // relation, everything else the derived store; an absent relation is
    // an empty extension.
    let pred = goal.atom.pred.as_str();
    let rel = if edb.is_edb_predicate(pred) {
        edb.relation(pred)
    } else {
        derived.relation(pred)
    };
    let Some(rel) = rel else {
        return Some(Vec::new());
    };
    if rel.arity() != args.len() {
        return None;
    }
    Some(rel.iter().cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    /// The paper's example database (§2.2), trimmed to what these tests use.
    fn university() -> (Edb, Idb) {
        let mut edb = Edb::new();
        edb.declare("student", &["Sname", "Major", "Gpa"]).unwrap();
        edb.declare("enroll", &["Sname", "Ctitle"]).unwrap();
        edb.declare("teach", &["Pname", "Ctitle"]).unwrap();
        edb.declare("taught", &["Pname", "Ctitle", "Sem", "Eval"])
            .unwrap();
        edb.declare("complete", &["Sname", "Ctitle", "Sem", "Grade"])
            .unwrap();
        edb.declare("prereq", &["Ctitle", "Ptitle"]).unwrap();
        for f in [
            "student(ann, math, 3.9)",
            "student(bob, math, 3.8)",
            "student(cara, physics, 3.5)",
            "student(dan, math, 3.9)",
            "enroll(ann, databases)",
            "enroll(cara, databases)",
            "enroll(dan, calculus)",
            "teach(susan, databases)",
            "taught(susan, databases, f88, 3.5)",
            "taught(peter, databases, f87, 3.9)",
            "complete(ann, databases, f88, 3.6)",
            "complete(bob, databases, f87, 4.0)",
            "complete(dan, databases, f88, 3.2)",
            "prereq(databases, datastructures)",
            "prereq(datastructures, programming)",
        ] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        (edb, idb)
    }

    #[test]
    fn example1_retrieve_honor_enrolled_in_databases() {
        // Paper Example 1: retrieve honor(X) where enroll(X, databases).
        let (edb, idb) = university();
        let q = Retrieve::new(
            parse_atom("honor(X)").unwrap(),
            parse_body("enroll(X, databases)").unwrap(),
        );
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            assert_eq!(a.len(), 1, "{st:?}");
            assert!(a.contains_row(&["ann"]), "{st:?}");
        }
    }

    #[test]
    fn example2_fresh_answer_predicate() {
        // Paper Example 2: retrieve answer(X) where can_ta(X, databases)
        // and student(X, math, V) and V > 3.7.
        let (edb, idb) = university();
        let q = Retrieve::new(
            parse_atom("answer(X)").unwrap(),
            parse_body("can_ta(X, databases), student(X, math, V), V > 3.7").unwrap(),
        );
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            // ann: honor, completed under susan (f88) with 3.6 > 3.3 and
            // susan currently teaches databases. bob: honor, completed with
            // 4.0. dan: grade 3.2 fails both rules.
            assert_eq!(a.len(), 2, "{st:?}");
            assert!(
                a.contains_row(&["ann"]) && a.contains_row(&["bob"]),
                "{st:?}"
            );
        }
    }

    #[test]
    fn retrieve_without_where_clause() {
        let (edb, idb) = university();
        let q = Retrieve::new(parse_atom("honor(X)").unwrap(), vec![]);
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            assert_eq!(a.len(), 3, "{st:?}"); // ann, bob, dan
        }
    }

    #[test]
    fn retrieve_recursive_subject_with_constant() {
        let (edb, idb) = university();
        let q = Retrieve::new(parse_atom("prior(databases, Y)").unwrap(), vec![]);
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            assert_eq!(a.len(), 2, "{st:?}");
            assert!(a.contains_row(&["datastructures"]));
            assert!(a.contains_row(&["programming"]));
        }
    }

    #[test]
    fn retrieve_edb_subject() {
        let (edb, idb) = university();
        let q = Retrieve::new(parse_atom("enroll(X, databases)").unwrap(), vec![]);
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            assert_eq!(a.len(), 2, "{st:?}");
        }
    }

    #[test]
    fn fresh_subject_requires_vars_in_qualifier() {
        let (edb, idb) = university();
        let q = Retrieve::new(
            parse_atom("answer(X, W)").unwrap(),
            parse_body("honor(X)").unwrap(),
        );
        assert!(matches!(
            retrieve(&edb, &idb, &q, Strategy::SemiNaive),
            Err(EngineError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn fresh_subject_without_qualifier_is_unknown() {
        let (edb, idb) = university();
        let q = Retrieve::new(parse_atom("mystery(X)").unwrap(), vec![]);
        assert!(matches!(
            retrieve(&edb, &idb, &q, Strategy::SemiNaive),
            Err(EngineError::UnknownSubject(_))
        ));
    }

    #[test]
    fn builtin_subject_is_rejected() {
        let (edb, idb) = university();
        let q = Retrieve::new(parse_atom("(X > 3)").unwrap(), vec![]);
        assert!(retrieve(&edb, &idb, &q, Strategy::SemiNaive).is_err());
    }

    #[test]
    fn ground_subject_acts_as_boolean_query() {
        let (edb, idb) = university();
        let yes = Retrieve::new(parse_atom("honor(ann)").unwrap(), vec![]);
        let no = Retrieve::new(parse_atom("honor(cara)").unwrap(), vec![]);
        for st in Strategy::ALL {
            // One empty row = true; no rows = false.
            assert_eq!(retrieve(&edb, &idb, &yes, st).unwrap().len(), 1, "{st:?}");
            assert!(retrieve(&edb, &idb, &no, st).unwrap().is_empty(), "{st:?}");
        }
    }

    #[test]
    fn negated_qualifier_extension() {
        // "Are all foreign students married?" analogue: students who are
        // enrolled in databases but not honor students.
        let (edb, idb) = university();
        let q = Retrieve::new(
            parse_atom("answer(X)").unwrap(),
            parse_body("enroll(X, databases), not honor(X)").unwrap(),
        );
        for st in Strategy::ALL {
            let a = retrieve(&edb, &idb, &q, st).unwrap();
            assert_eq!(a.len(), 1, "{st:?}");
            assert!(a.contains_row(&["cara"]));
        }
    }

    #[test]
    fn strategies_agree_on_all_idb_predicates() {
        let (edb, idb) = university();
        for pred in ["honor(X)", "prior(X, Y)", "can_ta(X, Y)"] {
            let q = Retrieve::new(parse_atom(pred).unwrap(), vec![]);
            let mut renders: Vec<Vec<String>> = Vec::new();
            for st in Strategy::ALL {
                let a = retrieve(&edb, &idb, &q, st).unwrap();
                renders.push(a.rows.iter().map(ToString::to_string).collect());
            }
            for other in &renders[1..] {
                assert_eq!(&renders[0], other, "{pred}");
            }
        }
    }

    #[test]
    fn display_of_query_and_answer() {
        let q = Retrieve::new(
            parse_atom("honor(X)").unwrap(),
            parse_body("enroll(X, databases)").unwrap(),
        );
        assert_eq!(
            q.to_string(),
            "retrieve honor(X) where enroll(X, databases)"
        );
        let (edb, idb) = university();
        let a = retrieve(&edb, &idb, &q, Strategy::SemiNaive).unwrap();
        let s = a.to_string();
        assert!(s.starts_with("X\n"));
        assert!(s.contains("ann"));
    }
}
