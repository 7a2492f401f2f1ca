//! Compile-once rule planning.
//!
//! The original evaluator re-ran its literal scheduler on every recursion
//! step of every rule firing: pick the next evaluable literal (equality
//! with a ground side, other comparison once both sides are ground,
//! negation once ground, otherwise the positive database literal with the
//! fewest unbound arguments), evaluate it, recurse. Because groundness of
//! a variable evolves identically on every branch of the enumeration — a
//! positive database literal grounds *all* of its variables, an equality
//! grounds both sides, and comparisons/negations ground nothing — the
//! scheduler's choices are branch-invariant. That means the whole dynamic
//! schedule can be replayed **once, at compile time**, yielding a linear
//! [`Step`] sequence the executor walks with no per-branch decisions.
//!
//! [`RulePlan`] is that sequence for one rule (plus the rule's
//! [`CompiledRule`] slot mapping); [`ProgramPlan`] compiles an entire
//! [`Idb`] against one [`Interner`], and is what `KnowledgeBase` caches.
//!
//! Planning never fails: a rule whose remaining literals can never become
//! evaluable compiles to a plan ending in [`Step::Unsafe`], which raises
//! the same `EngineError::UnsafeRule` the dynamic scheduler raised — and
//! only when execution actually reaches that point, preserving the
//! data-dependent nature of the original diagnostic.

use crate::error::Result;
use crate::graph::{DependencyGraph, Strata};
use crate::idb::Idb;
use qdk_logic::obs::ObsSink;
use qdk_logic::{CompiledRule, FxHashMap, FxHashSet, Interner, IrTerm, Literal, Rule, Sym, SymId};
use qdk_storage::{CatalogStats, Value};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Fallback cardinality floor for predicates the stats snapshot doesn't
/// cover (derived predicates, whose extension is unknown before the
/// fixpoint runs). Kept modest so a bound QSQ input-guard literal still
/// schedules ahead of an unbound stored scan.
const DEFAULT_CARD_FLOOR: usize = 16;

/// Estimated rows a scan of `pred` produces with the columns at positions
/// `bound` already fixed: the stored cardinality (or, for derived
/// predicates, the total stored-fact count floored at
/// [`DEFAULT_CARD_FLOOR`]) divided by the distinct-value estimate of each
/// bound column (System R's 1/distinct selectivity, columns taken as
/// independent), floored at 1. A column the snapshot has no estimate for
/// — a derived predicate's, or any under a snapshot built from
/// cardinalities alone — divides by 4 instead. The model only has to
/// *order* literals; a wrong guess still executes correctly through the
/// same probes.
fn est_rows(stats: &CatalogStats, pred: &Sym, bound: impl IntoIterator<Item = usize>) -> usize {
    let card = stats
        .cardinality(pred.as_str())
        .unwrap_or_else(|| stats.total_facts().max(DEFAULT_CARD_FLOOR));
    bound
        .into_iter()
        .fold(card, |rows, col| match stats.distinct(pred.as_str(), col) {
            Some(d) => rows / (d as usize).max(1),
            None => rows >> 2,
        })
        .max(1)
}

/// One column of a [`Step::Scan`]: what the executor must match this
/// tuple position against.
#[derive(Clone, Debug)]
pub enum Col {
    /// An inline constant: the tuple value must equal it.
    Const(Value),
    /// A slot; `probe` records whether the planner proved the slot bound
    /// before this scan (so it can drive an index probe).
    Slot {
        /// The frame slot for this column's variable.
        slot: u32,
        /// True if the slot is bound when the scan starts.
        probe: bool,
    },
}

/// One step of a compiled rule body, in execution order.
#[derive(Clone, Debug)]
pub enum Step {
    /// Enumerate matching tuples of a stored or derived relation,
    /// binding unbound slot columns.
    Scan {
        /// Position of this literal in the rule body (drives the
        /// semi-naive delta-occurrence rewrite).
        occurrence: usize,
        /// The predicate symbol, for relation lookup and diagnostics.
        pred: Sym,
        /// The predicate's dense id in the owning program's interner.
        pred_id: SymId,
        /// Per-column match obligations.
        cols: Vec<Col>,
        /// Predicted result rows from the cost model, when the plan was
        /// compiled against a stats snapshot (`None` for stats-less
        /// plans, which keep the legacy fewest-unbound ordering).
        est: Option<usize>,
    },
    /// Evaluate a ground comparison (`=` with both sides bound, or any
    /// other built-in); continue only if its truth matches `positive`.
    Compare {
        /// Polarity of the literal.
        positive: bool,
        /// The comparison operator (`=`, `!=`, `<`, `<=`, `>`, `>=`).
        op: Sym,
        /// Left operand.
        lhs: IrTerm,
        /// Right operand.
        rhs: IrTerm,
        /// The raw source literal, for diagnostics.
        literal: String,
    },
    /// A positive `=` with exactly one side bound at plan time: bind the
    /// unbound side's slot to the other side's value.
    EqBind {
        /// Left operand.
        lhs: IrTerm,
        /// Right operand.
        rhs: IrTerm,
        /// The raw source literal, for diagnostics.
        literal: String,
    },
    /// A ground negated database literal: continue only if the fully
    /// resolved atom is absent from the view (closed-world).
    NegCheck {
        /// The negated predicate.
        pred: Sym,
        /// The argument terms (all bound when this step runs).
        args: Vec<IrTerm>,
        /// The raw source literal, for diagnostics.
        literal: String,
    },
    /// Terminator for an unschedulable tail: reaching this step raises
    /// `EngineError::UnsafeRule` with the first stuck literal.
    Unsafe {
        /// The raw source literal that could never be scheduled.
        literal: String,
    },
}

/// A rule compiled to a slot mapping plus a linear step schedule.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// The slot-mapped rule.
    pub compiled: CompiledRule,
    /// The body schedule, in execution order.
    pub steps: Vec<Step>,
    /// The rendered source rule, carried for `UnsafeRule` diagnostics.
    pub rule_str: String,
}

impl RulePlan {
    /// Compiles `rule` with all slots initially unbound.
    pub fn new(rule: &Rule, interner: &mut Interner) -> Self {
        RulePlan::new_with_stats(rule, interner, None)
    }

    /// Like [`RulePlan::new`], but literal order follows the cost model
    /// when a stats snapshot is supplied.
    pub fn new_with_stats(
        rule: &Rule,
        interner: &mut Interner,
        stats: Option<&CatalogStats>,
    ) -> Self {
        let compiled = CompiledRule::compile(rule, interner);
        let steps = compile_steps_opt(&compiled, vec![false; compiled.num_slots()], stats, None);
        RulePlan {
            steps,
            rule_str: rule.to_string(),
            compiled,
        }
    }

    /// Compiles a query conjunction as the body of a headless dummy rule.
    ///
    /// The plan's slots are the distinct goal variables in order of first
    /// occurrence; `rule_str` is the text used in `UnsafeRule` reports
    /// (the retrieval layer and the top-down solver render the stuck
    /// query differently, so the caller supplies it).
    pub(crate) fn for_query(
        goals: &[qdk_logic::Literal],
        rule_str: String,
        interner: &mut Interner,
        stats: Option<&CatalogStats>,
    ) -> Self {
        let dummy = Rule::with_literals(qdk_logic::Atom::new("_goal", Vec::new()), goals.to_vec());
        let compiled = CompiledRule::compile(&dummy, interner);
        let steps = compile_steps_opt(&compiled, vec![false; compiled.num_slots()], stats, None);
        RulePlan {
            steps,
            rule_str,
            compiled,
        }
    }

    /// Re-plans an already compiled rule under an adornment: `bound[s]`
    /// marks slot `s` as pre-bound. This is the top-down solver's call
    /// plan: it binds head slots from the call before executing the body.
    pub fn with_bound(
        compiled: CompiledRule,
        rule_str: String,
        bound: Vec<bool>,
        stats: Option<&CatalogStats>,
    ) -> Self {
        let steps = compile_steps_opt(&compiled, bound, stats, None);
        RulePlan {
            steps,
            rule_str,
            compiled,
        }
    }

    /// Re-plans this rule so body occurrence `occurrence` (a positive
    /// database literal) is scanned first — the semi-naive delta rewrite's
    /// ideal shape: the delta is the smallest input by construction, so
    /// making it the outermost scan bounds every firing by the delta size.
    pub(crate) fn delta_variant(
        &self,
        occurrence: usize,
        stats: Option<&CatalogStats>,
    ) -> RulePlan {
        let bound = vec![false; self.compiled.num_slots()];
        let steps = compile_steps_opt(&self.compiled, bound, stats, Some(occurrence));
        RulePlan {
            steps,
            rule_str: self.rule_str.clone(),
            compiled: self.compiled.clone(),
        }
    }

    /// Renders the plan as a human-readable EXPLAIN: one header line with
    /// the source rule, then one numbered line per step showing the chosen
    /// literal order, the access path (`probe on` the bound columns the
    /// executor can drive an index with — the most selective is chosen at
    /// run time — or `full scan`), and the step's slot read/write sets.
    ///
    /// The grammar is pinned by a golden test and documented in DESIGN.md
    /// §12.
    pub fn explain(&self) -> String {
        let name = |s: u32| {
            self.compiled
                .slots
                .get(s as usize)
                .map_or_else(|| format!("_{s}"), ToString::to_string)
        };
        let term = |t: &IrTerm| match t {
            IrTerm::Const(c) => c.to_string(),
            IrTerm::Slot(s) => name(*s),
        };
        let term_slots = |t: &IrTerm, out: &mut Vec<String>| {
            if let IrTerm::Slot(s) = t {
                let n = name(*s);
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        };
        let sets = |reads: &[String], writes: &[String]| -> String {
            let mut parts = Vec::new();
            if !reads.is_empty() {
                parts.push(format!("reads {}", reads.join(", ")));
            }
            if !writes.is_empty() {
                parts.push(format!("writes {}", writes.join(", ")));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("  ({})", parts.join("; "))
            }
        };
        let mut out = format!("plan {}\n", self.rule_str);
        // Slots known bound so far, for attributing EqBind's write side.
        let mut bound = vec![false; self.compiled.num_slots()];
        for (n, step) in self.steps.iter().enumerate() {
            let line = match step {
                Step::Scan {
                    pred, cols, est, ..
                } => {
                    let args: Vec<String> = cols
                        .iter()
                        .map(|c| match c {
                            Col::Const(v) => v.to_string(),
                            Col::Slot { slot, .. } => name(*slot),
                        })
                        .collect();
                    let mut probes = Vec::new();
                    let mut reads = Vec::new();
                    let mut writes: Vec<String> = Vec::new();
                    for c in cols {
                        match c {
                            Col::Const(v) => probes.push(v.to_string()),
                            Col::Slot { slot, probe: true } => {
                                let v = name(*slot);
                                probes.push(v.clone());
                                if !reads.contains(&v) {
                                    reads.push(v);
                                }
                                bound[*slot as usize] = true;
                            }
                            Col::Slot { slot, probe: false } => {
                                let v = name(*slot);
                                if !writes.contains(&v) {
                                    writes.push(v);
                                }
                                bound[*slot as usize] = true;
                            }
                        }
                    }
                    let mut access = if probes.is_empty() {
                        "full scan".to_string()
                    } else {
                        format!("probe on {}", probes.join(", "))
                    };
                    if let Some(est) = est {
                        access.push_str(&format!(" [est {est} rows]"));
                    }
                    format!(
                        "scan {pred}({})  {access}{}",
                        args.join(", "),
                        sets(&reads, &writes)
                    )
                }
                Step::EqBind { lhs, rhs, .. } => {
                    // Exactly one side was unbound at plan time: that side
                    // is the write, the other the read.
                    let lhs_unbound = matches!(lhs, IrTerm::Slot(s) if !bound[*s as usize]);
                    let (dst, src) = if lhs_unbound { (lhs, rhs) } else { (rhs, lhs) };
                    if let IrTerm::Slot(s) = dst {
                        bound[*s as usize] = true;
                    }
                    let mut reads = Vec::new();
                    term_slots(src, &mut reads);
                    format!(
                        "bind {} := {}{}",
                        term(dst),
                        term(src),
                        sets(&reads, &[term(dst)])
                    )
                }
                Step::Compare {
                    literal, lhs, rhs, ..
                } => {
                    let mut reads = Vec::new();
                    term_slots(lhs, &mut reads);
                    term_slots(rhs, &mut reads);
                    format!("check {literal}{}", sets(&reads, &[]))
                }
                Step::NegCheck { literal, args, .. } => {
                    let mut reads = Vec::new();
                    for a in args {
                        term_slots(a, &mut reads);
                    }
                    format!("check {literal}{}", sets(&reads, &[]))
                }
                Step::Unsafe { literal } => {
                    format!("unsafe {literal}  (never schedulable)")
                }
            };
            out.push_str(&format!("  {}. {line}\n", n + 1));
        }
        out
    }
}

/// A whole IDB compiled against one interner: one [`RulePlan`] per rule,
/// parallel to `Idb::rules()` order.
#[derive(Clone, Debug, Default)]
pub struct ProgramPlan {
    interner: Interner,
    plans: Vec<RulePlan>,
    stats: Option<CatalogStats>,
    /// QSQ net fragments, built on first demand per (predicate,
    /// adornment) and shared by every clone of this plan. The
    /// knowledge-base layer rebuilds the `ProgramPlan` whenever rules
    /// change (the plan cache is generation-keyed), so fragments here
    /// can never outlive the program they were compiled from — fact
    /// churn retains them, rule changes drop them with the plan.
    qsq: Arc<RwLock<crate::qsq::QsqCache>>,
    /// What the evaluators need to know about the rules alone, built on
    /// the first retrieve that asks and shared like `qsq`: it lives and
    /// dies with the plan, so a rule change drops it and fact churn never
    /// rebuilds it.
    analysis: Arc<OnceLock<PlanAnalysis>>,
    /// Top-down call plans, one per (rule index, pre-bound slots),
    /// specialised on first demand and shared like `qsq`.
    call_plans: Arc<RwLock<CallPlans>>,
}

/// Call plans keyed by (rule index, pre-bound slots); see
/// [`crate::topdown`].
type CallPlans = FxHashMap<(usize, Vec<bool>), Arc<RulePlan>>;

/// The engine's one analysis of a rule base, shared by every retrieve
/// and by maintenance: which predicates a goal demands, the strata and
/// dependency components they are evaluated in, and the two properties
/// of a demanded slice `Strategy::Auto` decides on.
#[derive(Debug)]
pub(crate) struct PlanAnalysis {
    graph: DependencyGraph,
    /// Kept as its `Result` so a program that is not stratified fails
    /// where it always did: when something evaluates it bottom-up.
    strata: Result<Arc<Strata>>,
    /// Predicates whose slice contains a recursive predicate.
    recursive: FxHashSet<Sym>,
    /// Predicates whose slice contains a rule with a negated literal.
    negated: FxHashSet<Sym>,
}

impl PlanAnalysis {
    fn build(idb: &Idb) -> Self {
        let graph = DependencyGraph::for_evaluation(idb);
        let recursive = graph.slices_containing(|p| graph.is_recursive(p.as_str()));
        let negated = graph.slices_containing(|p| {
            idb.rules_for(p.as_str())
                .any(|r| r.body.iter().any(|l| !l.positive))
        });
        PlanAnalysis {
            strata: graph.strata(idb).map(Arc::new),
            graph,
            recursive,
            negated,
        }
    }

    /// The dependency graph evaluation slices are cut from
    /// ([`DependencyGraph::for_evaluation`]).
    pub(crate) fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// The program's strata, or why it has none.
    pub(crate) fn strata(&self) -> Result<&Arc<Strata>> {
        self.strata.as_ref().map_err(Clone::clone)
    }

    /// The predicates every goal of `goals` reaches, goal predicates
    /// included, in first-reached order: what a bottom-up evaluation of
    /// the conjunction must materialise.
    pub(crate) fn demanded(&self, goals: &[Literal]) -> Vec<Sym> {
        let mut out: Vec<Sym> = Vec::new();
        for g in goals.iter().filter(|g| !g.is_builtin()) {
            for p in self.graph.reachable_from(g.atom.pred.as_str()) {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// True if the slice `goals` demand contains a recursive predicate.
    pub(crate) fn demands_recursion(&self, goals: &[Literal]) -> bool {
        goals.iter().any(|g| self.recursive.contains(&g.atom.pred))
    }

    /// True if `goals` or the slice they demand contain a negated literal.
    pub(crate) fn demands_negation(&self, goals: &[Literal]) -> bool {
        goals
            .iter()
            .any(|g| !g.positive || self.negated.contains(&g.atom.pred))
    }
}

impl ProgramPlan {
    /// Compiles every rule of `idb` with the legacy fewest-unbound
    /// literal ordering (no stats). This is the path describe's
    /// `TransformedIdb` and other EDB-less callers use; its output is
    /// byte-stable regardless of stored data.
    pub fn compile(idb: &Idb) -> Self {
        ProgramPlan::compile_opt(idb, None)
    }

    /// Compiles every rule of `idb` with literal order chosen by the cost
    /// model over a cardinality snapshot. The snapshot is retained so
    /// adorned re-plans (top-down call plans) and per-stratum delta
    /// variants inherit the same estimates.
    pub fn compile_with_stats(idb: &Idb, stats: CatalogStats) -> Self {
        ProgramPlan::compile_opt(idb, Some(stats))
    }

    fn compile_opt(idb: &Idb, stats: Option<CatalogStats>) -> Self {
        let mut interner = Interner::new();
        let plans = idb
            .rules()
            .iter()
            .map(|r| RulePlan::new_with_stats(r, &mut interner, stats.as_ref()))
            .collect();
        ProgramPlan {
            interner,
            plans,
            stats,
            qsq: Arc::default(),
            analysis: Arc::default(),
            call_plans: Arc::default(),
        }
    }

    /// The QSQ net-fragment cache (see [`crate::qsq`]).
    pub(crate) fn qsq_cache(&self) -> &RwLock<crate::qsq::QsqCache> {
        &self.qsq
    }

    /// The rules-only analysis of `idb`, which must be the program this
    /// plan compiles. Built by the first caller (who counts one
    /// `plan_analysis_build` on `obs`), read lock-free by everyone after.
    pub(crate) fn analysis(&self, idb: &Idb, obs: &ObsSink) -> &PlanAnalysis {
        self.analysis.get_or_init(|| {
            obs.counter("plan_analysis_build", 1);
            PlanAnalysis::build(idb)
        })
    }

    /// Rule `idx` re-planned with the slots of `bound` pre-bound (the
    /// top-down solver binds head slots from the call before running the
    /// body), specialised once per binding pattern.
    pub(crate) fn call_plan(&self, idx: usize, bound: Vec<bool>) -> Arc<RulePlan> {
        let key = (idx, bound);
        if let Some(p) = self
            .call_plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(p);
        }
        let rp = &self.plans[idx];
        let built = Arc::new(RulePlan::with_bound(
            rp.compiled.clone(),
            rp.rule_str.clone(),
            key.1.clone(),
            self.stats.as_ref(),
        ));
        // A racing builder may have inserted meanwhile; both builds are
        // deterministic and identical, keep the first.
        Arc::clone(
            self.call_plans
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_insert(built),
        )
    }

    /// Number of call plans specialised so far (test hook).
    #[cfg(test)]
    pub(crate) fn call_plan_count(&self) -> usize {
        self.call_plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The cardinality snapshot this program was planned against, if any.
    pub fn stats(&self) -> Option<&CatalogStats> {
        self.stats.as_ref()
    }

    /// The rule plans, in `Idb::rules()` order.
    pub fn plans(&self) -> &[RulePlan] {
        &self.plans
    }

    /// The program's interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Renders every rule's [`RulePlan::explain`] in `Idb::rules()` order,
    /// separated by blank lines — the whole program's EXPLAIN.
    pub fn explain(&self) -> String {
        self.plans
            .iter()
            .map(RulePlan::explain)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Replays the dynamic scheduler once over the body, starting from the
/// given slot-boundness vector, and emits the resulting linear schedule.
///
/// The choice logic mirrors the recursive evaluator exactly: scan the
/// body in source order; the first evaluable built-in (a positive `=`
/// needs one ground side, everything else both) or ground negation wins
/// immediately; otherwise the positive database literal with the fewest
/// unbound arguments (first wins ties, counting repeated unbound
/// variables once per occurrence). If literals remain but none can ever
/// be scheduled, the plan ends in [`Step::Unsafe`] naming the first
/// pending literal.
///
/// Two refinements over the plain replay:
///
/// * With `stats`, positive database literals are ordered by
///   [`est_rows`] (smallest predicted output first, source order on
///   ties) instead of fewest unbound arguments — the selectivity-ordered
///   join schedule. Built-ins and ground negations still run as early as
///   they become evaluable; they only filter.
/// * With `first`, the positive literal at that body position is scanned
///   before anything else (the semi-naive delta occurrence: its
///   extension is last round's delta, the smallest input there is).
pub(crate) fn compile_steps_opt(
    compiled: &CompiledRule,
    mut bound: Vec<bool>,
    stats: Option<&CatalogStats>,
    first: Option<usize>,
) -> Vec<Step> {
    let body = &compiled.body;
    let src = &compiled.source.body;
    let mut done = vec![false; body.len()];
    let mut steps = Vec::new();
    fn ground(t: &IrTerm, bound: &[bool]) -> bool {
        match t {
            IrTerm::Const(_) => true,
            IrTerm::Slot(s) => bound.get(*s as usize).copied().unwrap_or(false),
        }
    }
    loop {
        let mut choice: Option<usize> = None;
        let mut best_unbound = usize::MAX;
        let mut best_cost = usize::MAX;
        if let Some(f) = first {
            if !done[f] && body.get(f).is_some_and(|l| l.positive) && !src[f].is_builtin() {
                choice = Some(f);
            }
        }
        if choice.is_none() {
            for (i, lit) in body.iter().enumerate() {
                if done[i] {
                    continue;
                }
                if src[i].is_builtin() {
                    if lit.atom.args.len() != 2 {
                        continue; // malformed built-in: never evaluable
                    }
                    let lg = ground(&lit.atom.args[0], &bound);
                    let rg = ground(&lit.atom.args[1], &bound);
                    let evaluable = if lit.positive && lit.atom.pred.as_str() == "=" {
                        lg || rg
                    } else {
                        lg && rg
                    };
                    if evaluable {
                        choice = Some(i);
                        break; // comparisons are cheap: do them first
                    }
                } else if lit.positive {
                    match stats {
                        Some(stats) => {
                            let bound_cols = (0..lit.atom.args.len())
                                .filter(|&c| ground(&lit.atom.args[c], &bound));
                            let cost = est_rows(stats, &lit.atom.pred, bound_cols);
                            if choice.is_none() || cost < best_cost {
                                choice = Some(i);
                                best_cost = cost;
                            }
                        }
                        None => {
                            let unbound =
                                lit.atom.args.iter().filter(|t| !ground(t, &bound)).count();
                            if choice.is_none() || unbound < best_unbound {
                                choice = Some(i);
                                best_unbound = unbound;
                            }
                        }
                    }
                } else if lit.atom.args.iter().all(|t| ground(t, &bound)) {
                    choice = Some(i);
                    break;
                }
            }
        }
        let Some(i) = choice else {
            if let Some(stuck) = (0..body.len()).find(|&i| !done[i]) {
                steps.push(Step::Unsafe {
                    literal: src[stuck].to_string(),
                });
            }
            break;
        };
        done[i] = true;
        let lit = &body[i];
        if src[i].is_builtin() {
            let lhs = lit.atom.args[0].clone();
            let rhs = lit.atom.args[1].clone();
            let literal = src[i].to_string();
            let lg = ground(&lhs, &bound);
            let rg = ground(&rhs, &bound);
            if lit.positive && lit.atom.pred.as_str() == "=" && !(lg && rg) {
                // Exactly one side bound: the equality acts as a binder.
                if !lg {
                    if let IrTerm::Slot(s) = &lhs {
                        bound[*s as usize] = true;
                    }
                }
                if !rg {
                    if let IrTerm::Slot(s) = &rhs {
                        bound[*s as usize] = true;
                    }
                }
                steps.push(Step::EqBind { lhs, rhs, literal });
            } else {
                steps.push(Step::Compare {
                    positive: lit.positive,
                    op: lit.atom.pred.clone(),
                    lhs,
                    rhs,
                    literal,
                });
            }
        } else if lit.positive {
            let cols: Vec<Col> = lit
                .atom
                .args
                .iter()
                .map(|t| match t {
                    IrTerm::Const(c) => Col::Const(c.clone()),
                    IrTerm::Slot(s) => Col::Slot {
                        slot: *s,
                        probe: bound[*s as usize],
                    },
                })
                .collect();
            let est = stats.map(|stats| {
                let bound_cols = (0..cols.len())
                    .filter(|&c| matches!(cols[c], Col::Const(_) | Col::Slot { probe: true, .. }));
                est_rows(stats, &lit.atom.pred, bound_cols)
            });
            steps.push(Step::Scan {
                occurrence: i,
                pred: lit.atom.pred.clone(),
                pred_id: lit.atom.pred_id,
                cols,
                est,
            });
            for t in &lit.atom.args {
                if let IrTerm::Slot(s) = t {
                    bound[*s as usize] = true;
                }
            }
        } else {
            steps.push(Step::NegCheck {
                pred: lit.atom.pred.clone(),
                args: lit.atom.args.clone(),
                literal: src[i].to_string(),
            });
        }
        if done.iter().all(|d| *d) {
            break;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_rule;

    fn plan(src: &str) -> RulePlan {
        let mut i = Interner::new();
        RulePlan::new(&parse_rule(src).unwrap(), &mut i)
    }

    #[test]
    fn comparison_scheduled_after_binding_scan() {
        // Comparison first in source order, but the plan defers it until
        // the scan of `student` has bound G.
        let p = plan("ans(X) :- G > 3.7, student(X, math, G).");
        assert!(matches!(p.steps[0], Step::Scan { occurrence: 1, .. }));
        assert!(matches!(p.steps[1], Step::Compare { .. }));
    }

    #[test]
    fn equality_with_one_bound_side_compiles_to_eqbind() {
        let p = plan("ans(X, C) :- C = databases, enroll(X, C).");
        assert!(matches!(p.steps[0], Step::EqBind { .. }));
        // After the bind, C is bound, so the enroll scan probes column 1.
        match &p.steps[1] {
            Step::Scan { cols, .. } => {
                assert!(matches!(cols[0], Col::Slot { probe: false, .. }));
                assert!(matches!(cols[1], Col::Slot { probe: true, .. }));
            }
            s => panic!("expected scan, got {s:?}"),
        }
    }

    #[test]
    fn unschedulable_tail_ends_in_unsafe() {
        let p = plan("ans(X) :- student(X, Y, Z), W > 3.7.");
        assert!(matches!(p.steps[0], Step::Scan { .. }));
        match &p.steps[1] {
            Step::Unsafe { literal } => assert_eq!(literal, "(W > 3.7)"),
            s => panic!("expected unsafe terminator, got {s:?}"),
        }
    }

    #[test]
    fn negation_waits_for_groundness() {
        let p = plan("ans(X) :- not enroll(X, databases), student(X, Y, Z).");
        assert!(matches!(p.steps[0], Step::Scan { occurrence: 1, .. }));
        assert!(matches!(p.steps[1], Step::NegCheck { .. }));
    }

    #[test]
    fn scan_order_prefers_most_bound() {
        // enroll(X, databases) has one unbound argument against student's
        // three, so the planner scans it first despite source order; the
        // student scan then probes on the X it bound.
        let p = plan("ans(X) :- student(X, M, G), enroll(X, databases).");
        assert!(matches!(p.steps[0], Step::Scan { occurrence: 1, .. }));
        match &p.steps[1] {
            Step::Scan {
                occurrence, cols, ..
            } => {
                assert_eq!(*occurrence, 0);
                assert!(matches!(cols[0], Col::Slot { probe: true, .. }));
            }
            s => panic!("expected scan, got {s:?}"),
        }
    }

    #[test]
    fn program_plan_parallels_idb_rules() {
        let idb = Idb::from_rules([
            parse_rule("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap(),
            parse_rule("prior(X, Y) :- prereq(X, Y).").unwrap(),
        ])
        .unwrap();
        let pp = ProgramPlan::compile(&idb);
        assert_eq!(pp.plans().len(), 2);
        assert_eq!(pp.plans()[1].compiled.head.pred.as_str(), "prior");
        assert!(pp.interner().lookup("student").is_some());
    }

    #[test]
    fn explain_is_pinned() {
        // Golden rendering of the EXPLAIN grammar: literal order, access
        // path, read/write sets. Update DESIGN.md §12 if this changes.
        let p = plan("ans(X, C) :- C = databases, enroll(X, C), G > 3.7, student(X, M, G).");
        assert_eq!(
            p.explain(),
            "plan ans(X, C) :- (C = databases), enroll(X, C), (G > 3.7), student(X, M, G).\n\
             \x20 1. bind C := databases  (writes C)\n\
             \x20 2. scan enroll(X, C)  probe on C  (reads C; writes X)\n\
             \x20 3. scan student(X, M, G)  probe on X  (reads X; writes M, G)\n\
             \x20 4. check (G > 3.7)  (reads G)\n"
        );
    }

    #[test]
    fn explain_full_scan_and_negation() {
        let p = plan("ans(X) :- student(X, M, G), not enroll(X, databases).");
        assert_eq!(
            p.explain(),
            "plan ans(X) :- student(X, M, G), not enroll(X, databases).\n\
             \x20 1. scan student(X, M, G)  full scan  (writes X, M, G)\n\
             \x20 2. check not enroll(X, databases)  (reads X)\n"
        );
    }

    #[test]
    fn program_explain_joins_rules() {
        let idb = Idb::from_rules([
            parse_rule("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap(),
            parse_rule("prior(X, Y) :- prereq(X, Y).").unwrap(),
        ])
        .unwrap();
        let text = ProgramPlan::compile(&idb).explain();
        assert!(text.contains("plan honor(X)"));
        assert!(text.contains("plan prior(X, Y)"));
        assert!(text.contains("full scan"));
    }

    fn stats(cards: &[(&str, usize)]) -> CatalogStats {
        CatalogStats::from_cards(cards.iter().map(|&(p, n)| (Sym::new(p), n)))
    }

    fn plan_with(src: &str, stats: &CatalogStats) -> RulePlan {
        let mut i = Interner::new();
        RulePlan::new_with_stats(&parse_rule(src).unwrap(), &mut i, Some(stats))
    }

    #[test]
    fn stats_order_scans_smaller_relation_first() {
        // Fewest-unbound ties (both literals have two unbound arguments),
        // so the legacy planner keeps source order; the cost model starts
        // from the much smaller relation instead.
        let src = "ans(X, Z) :- big(X, Y), small(Y, Z).";
        let legacy = plan(src);
        assert!(matches!(legacy.steps[0], Step::Scan { occurrence: 0, .. }));
        let p = plan_with(src, &stats(&[("big", 100_000), ("small", 4)]));
        assert!(matches!(p.steps[0], Step::Scan { occurrence: 1, .. }));
        // The big scan then probes on the Y that small bound.
        match &p.steps[1] {
            Step::Scan {
                occurrence, cols, ..
            } => {
                assert_eq!(*occurrence, 0);
                assert!(matches!(cols[1], Col::Slot { probe: true, .. }));
            }
            s => panic!("expected scan, got {s:?}"),
        }
    }

    #[test]
    fn stats_ties_keep_source_order() {
        let p = plan_with(
            "ans(X, Z) :- a(X, Y), b(Y, Z).",
            &stats(&[("a", 50), ("b", 50)]),
        );
        assert!(matches!(p.steps[0], Step::Scan { occurrence: 0, .. }));
    }

    #[test]
    fn est_rows_discounts_by_bound_columns() {
        let s = stats(&[("edge", 1024)]);
        let edge = Sym::new("edge");
        assert_eq!(est_rows(&s, &edge, []), 1024);
        assert_eq!(est_rows(&s, &edge, [1]), 256);
        assert_eq!(est_rows(&s, &edge, [0, 1]), 64);
        // Derived predicates default to the total stored size (floored).
        assert_eq!(est_rows(&s, &Sym::new("derived"), []), 1024);
        assert_eq!(est_rows(&stats(&[]), &Sym::new("derived"), []), 16);
        // Never below one row.
        assert_eq!(est_rows(&s, &edge, 0..31), 1);
    }

    #[test]
    fn est_rows_divides_by_each_bound_columns_distinct_count() {
        // complete(S, C, Sem, G): 5 000 rows over 1 000 students, 100
        // courses, 3 semesters and 5 grades.
        let mut complete = qdk_storage::Relation::new("complete", 4);
        for i in 0..5_000i64 {
            let row = [i % 1_000, i % 100, i % 3, i / 1_000].map(qdk_storage::Value::Int);
            complete
                .insert(qdk_storage::Tuple::new(row.to_vec()))
                .unwrap();
        }
        let s = CatalogStats::from_relations([&complete]);
        let pred = Sym::new("complete");
        assert_eq!(est_rows(&s, &pred, []), 5_000);
        // The strided sample holds most students once, and GEE scales
        // those by √(n/r) ≈ 2.2: its guaranteed error factor.
        let students = s.distinct("complete", 0).unwrap();
        assert!((1_000..=2_210).contains(&students), "{students}");
        assert_eq!(est_rows(&s, &pred, [0]), 5_000 / students as usize);
        assert_eq!(s.distinct("complete", 1), Some(100));
        assert_eq!(est_rows(&s, &pred, [1]), 50);
        assert_eq!(est_rows(&s, &pred, [1, 2]), 16);
        assert_eq!(est_rows(&s, &pred, 0..4), 1);
    }

    #[test]
    fn explain_renders_multi_bound_probe_and_estimates() {
        let p = plan_with(
            "ans(X) :- big(X, Y), small(X, Y, v).",
            &stats(&[("big", 4096), ("small", 64)]),
        );
        assert_eq!(
            p.explain(),
            "plan ans(X) :- big(X, Y), small(X, Y, v).\n\
             \x20 1. scan small(X, Y, v)  probe on v [est 16 rows]  (writes X, Y)\n\
             \x20 2. scan big(X, Y)  probe on X, Y [est 256 rows]  (reads X, Y)\n"
        );
    }

    #[test]
    fn stats_less_explain_is_unchanged() {
        let p = plan("ans(X) :- enroll(X, databases).");
        assert_eq!(
            p.explain(),
            "plan ans(X) :- enroll(X, databases).\n\
             \x20 1. scan enroll(X, databases)  probe on databases  (writes X)\n"
        );
    }

    #[test]
    fn delta_variant_forces_occurrence_first() {
        // Source order and cost both favor scanning `seed` first, but the
        // delta variant must scan the delta occurrence (the recursive
        // literal) outermost.
        let mut i = Interner::new();
        let r = parse_rule("path(X, Z) :- seed(X), path(X, Y), edge(Y, Z).").unwrap();
        let s = stats(&[("seed", 1), ("edge", 10_000)]);
        let base = RulePlan::new_with_stats(&r, &mut i, Some(&s));
        assert!(matches!(base.steps[0], Step::Scan { occurrence: 0, .. }));
        let dv = base.delta_variant(1, Some(&s));
        assert!(matches!(dv.steps[0], Step::Scan { occurrence: 1, .. }));
        // The remaining literals still schedule; same step count.
        assert_eq!(dv.steps.len(), base.steps.len());
    }

    #[test]
    fn adorned_plan_probes_prebound_head_slot() {
        let mut i = Interner::new();
        let r = parse_rule("p(X, Y) :- edge(X, Y).").unwrap();
        let compiled = CompiledRule::compile(&r, &mut i);
        let p = RulePlan::with_bound(compiled, r.to_string(), vec![true, false], None);
        match &p.steps[0] {
            Step::Scan { cols, .. } => {
                assert!(matches!(cols[0], Col::Slot { probe: true, .. }));
                assert!(matches!(cols[1], Col::Slot { probe: false, .. }));
            }
            s => panic!("expected scan, got {s:?}"),
        }
    }
}
