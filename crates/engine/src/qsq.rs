//! Query-Subquery (QSQ) evaluation — the demand-driven retrieve strategy.
//!
//! QSQ makes bottom-up evaluation goal-directed: only tuples relevant to
//! the query's bindings are derived. It compiles a **net** once per
//! (predicate, adornment) and caches it in the [`ProgramPlan`]:
//!
//! * an **input relation** `input_p^a` holding the bound-argument tuples
//!   (subqueries) with which `p^a` is demanded;
//! * an **answer relation** `ans_p^a` holding the derived answers;
//! * per rule, a chain of **pre-filter / post-filter nodes**: each body
//!   literal is a filter, and the join of the literals before an IDB
//!   occurrence is collapsed into a **supplementary relation**
//!   `sup{k}_{rule}_p^a` computed *once* and shared by the demand
//!   projection (`input_q^a' ← sup…`) and the continuation
//!   (`… ← sup…, ans_q^a', …`), so on recursive programs no prefix join
//!   is ever paid twice per round.
//!
//! The net rules form a positive (hence monotone) program, so the least
//! fixpoint needs no stratification: the semi-naive strategy's round
//! loop (`seminaive::Fixpoint`) fires the net set-at-a-time with the
//! same delta-first plan variants, index probes, and
//! selectivity-ordered literal schedules as a semi-naive stratum —
//! which also hands QSQ the Governor contract (work ticks, fact budget,
//! deadline, cancellation) for free.
//!
//! Sub-fragments are constant-free — the query's constants live only in
//! the per-query wrapper rule `__qsq_query(vars) ← goals`, compiled
//! fresh per call (one or two tiny rules). The most common shape — a
//! single positive IDB goal whose arguments are constants and distinct
//! variables — skips even that: the constants are themselves the
//! subquery tuple, so the serving path seeds `input_p^a` directly and
//! filters `ans_p^a` on the bound positions, compiling nothing per call
//! (see `bound_subject`). Everything else is a cache hit after
//! the first bound query of a given shape, which is why QSQ wins every
//! bound-query benchmark section: a warm call pays a hash lookup plus
//! the relevant fixpoint.
//!
//! Linear recursion gets two argument reductions, so a bound retrieve
//! costs the size of its answer plus the edges it touches rather than
//! one row per reachable *pair*:
//!
//! * **Persistent occurrences** (every demander). A recursive occurrence
//!   that repeats the head's bound arguments is visited first
//!   ([`crate::adorn::persistent_occurrence`]); its demand is the
//!   identity and is not emitted, so `prior(X, c)` stops demanding
//!   `prior[bb]` per edge.
//! * **Right-linear factoring** (the seeded root only). When every
//!   recursive rule of `p` has one `p` occurrence that receives each free
//!   head variable unchanged in the same position, and every other
//!   literal is stored or built in, each subquery's answers are answers
//!   of the root. The net is then the closure of `input_p^a` plus one
//!   free-columns-only answer relation (`build_factored`). A shared
//!   answer column loses which input a row came from, so only a
//!   single-seed bound subject runs it; every other demander keeps the
//!   plain fragment.
//!
//! Every net rule plans round 0 with its guard (the seeded input or a
//! supplementary relation) outermost. Net relations are absent from the
//! stats the cost model reads, so it would otherwise price them at the
//! whole store and scan a stored relation in full, probing the one-row
//! seed once per stored row.
//!
//! A bound subject's net can keep its relations across calls in a
//! [`QsqTables`], one per data epoch: QSQN answers each subquery once
//! because its input relations record what is done, and the table carries
//! that record from one call to the next. A seed the table's input
//! relation already holds is answered from its answer relation with no
//! fixpoint; a new seed is a delta over the table (see [`QsqTables`]).
//!
//! Shapes the net cannot host — negation anywhere in the demanded slice
//! (the net is a positive program) or adornments whose filter chains
//! cannot be scheduled (`UnsafeRule`) — surface as errors here; the
//! dispatch layer retries with semi-naive and records a
//! [`crate::query::Downgrade`].

use crate::adorn::{bound_args, persistent_occurrence, suffix, Adornment, SipWalk};
use crate::bindings::DeltaRanges;
use crate::bindings::DerivedFacts;
use crate::error::{EngineError, Result};
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan};
use crate::query::Retrieve;
use crate::seminaive::{Fixpoint, RoundRule, Start};
use qdk_logic::{Atom, FxHashMap, Interner, Literal, Rule, Sym, Term, Var};
use qdk_storage::{CatalogStats, Edb, Relation, Tuple, Value};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// The reserved head predicate of the per-query wrapper rule.
const QUERY_PRED: &str = "__qsq_query";

/// Name of the input (subquery) relation for `pred` under `a`.
fn input_name(pred: &str, a: &Adornment) -> Sym {
    Sym::new(&format!("input_{pred}__{}", suffix(a)))
}

/// Name of the answer relation for `pred` under `a`.
fn ans_name(pred: &str, a: &Adornment) -> Sym {
    Sym::new(&format!("ans_{pred}__{}", suffix(a)))
}

/// Name of the factored answer relation for `pred` under `a`: the free
/// columns only.
fn free_ans_name(pred: &str, a: &Adornment) -> Sym {
    Sym::new(&format!("ans_{pred}__{}__free", suffix(a)))
}

/// Name of supplementary relation `k` of rule `ri` of `pred` under `a`.
fn sup_name(pred: &str, a: &Adornment, ri: usize, k: usize) -> Sym {
    Sym::new(&format!("sup{k}_{ri}_{pred}__{}", suffix(a)))
}

/// One compiled net rule: its plan plus, per body occurrence reading a
/// net relation (input/ans/sup — the only relations that grow during
/// the fixpoint), a prebuilt delta-first plan variant.
#[derive(Debug)]
pub(crate) struct NetRule {
    pub(crate) plan: RulePlan,
    delta: Vec<(usize, RulePlan)>,
}

/// The compiled QSQ net for one (predicate, adornment): the input and
/// answer relations plus the supplementary/filter rule chains of every
/// source rule. Sub-fragments contain no query constants, so the
/// [`ProgramPlan`] caches them per adornment; only the query wrapper
/// fragment is built per call.
#[derive(Debug)]
pub(crate) struct Fragment {
    /// The source predicate this fragment answers.
    pred: Sym,
    /// The binding pattern it answers under.
    adornment: Adornment,
    /// The input (subquery) relation name.
    pub(crate) input: Sym,
    /// The answer relation name.
    pub(crate) ans: Sym,
    /// The compiled net rules, in deterministic emission order.
    pub(crate) rules: Vec<NetRule>,
    /// The (predicate, adornment) pairs this fragment demands.
    pub(crate) demands: Vec<(Sym, Adornment)>,
    /// Supplementary relations introduced.
    sups: u64,
    /// Pre/post-filter nodes (one per source body literal).
    filters: u64,
    /// True for a factored root fragment: `ans` holds the free columns
    /// of one seed's answers, and `demands` is empty.
    factored: bool,
}

/// The net fragments of one rules generation, shared by every clone of
/// its [`ProgramPlan`].
#[derive(Debug, Default)]
pub(crate) struct QsqCache {
    /// Plain fragments per (predicate, adornment), valid for every
    /// demander.
    plain: FxHashMap<(Sym, Adornment), Arc<Fragment>>,
    /// Factored root fragments per (predicate, adornment), `None` where
    /// the predicate's rules do not factor.
    factored: FxHashMap<(Sym, Adornment), Option<Arc<Fragment>>>,
}

impl Fragment {
    /// Net nodes of this fragment: the input and answer relations, one
    /// node per supplementary relation, one filter node per source body
    /// literal.
    pub(crate) fn nodes(&self) -> u64 {
        2 + self.sups + self.filters
    }
}

/// Compiles one net rule: the round-0 plan, which scans the guard at
/// body position 0 first (see the module docs), plus delta variants for
/// the body positions in `net_positions` (occurrences reading net
/// relations).
fn net_rule(
    rule: &Rule,
    net_positions: &[usize],
    interner: &mut Interner,
    stats: Option<&CatalogStats>,
) -> NetRule {
    let plan = RulePlan::new_with_stats(rule, interner, stats).delta_variant(0, stats);
    let delta = net_positions
        .iter()
        .map(|&i| (i, plan.delta_variant(i, stats)))
        .collect();
    NetRule { plan, delta }
}

/// The supplementary relation's columns: the distinct variables of the
/// prefix literals (first-occurrence order) still needed by `head` or
/// the body literals not yet visited, `rest`.
fn live_vars<'r>(
    prefix: &[(Literal, bool)],
    head: &Atom,
    rest: impl Iterator<Item = &'r Literal>,
) -> Vec<Var> {
    let mut needed: Vec<Var> = Vec::new();
    head.collect_vars(&mut needed);
    for lit in rest {
        lit.atom.collect_vars(&mut needed);
    }
    let mut out: Vec<Var> = Vec::new();
    for (lit, _) in prefix {
        let mut vs = Vec::new();
        lit.atom.collect_vars(&mut vs);
        for v in vs {
            if needed.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

/// Builds the net fragment for `pred` under `adornment` from the given
/// source rules (the predicate's rules, or the per-query wrapper rule).
///
/// Rejects negation with `NotStratified`: the net program must stay
/// positive for the unstratified fixpoint to be the least model.
fn build_fragment<'a>(
    idb: &Idb,
    pred: &Sym,
    adornment: &Adornment,
    rules: impl IntoIterator<Item = &'a Rule>,
    stats: Option<&CatalogStats>,
) -> Result<Fragment> {
    let input = input_name(pred.as_str(), adornment);
    let ans = ans_name(pred.as_str(), adornment);
    let mut interner = Interner::new();
    let mut net: Vec<NetRule> = Vec::new();
    let mut demands: Vec<(Sym, Adornment)> = Vec::new();
    let mut sups = 0u64;
    let mut filters = 0u64;

    for (ri, rule) in rules.into_iter().enumerate() {
        if rule.body.iter().any(|l| !l.positive) {
            return Err(EngineError::NotStratified(format!(
                "qsq net does not support negation (rule {rule})"
            )));
        }
        let mut walk = SipWalk::new(&rule.head, adornment);
        let guard = Atom::new(input.clone(), bound_args(&rule.head, adornment));
        // The running prefix: literals joined so far, each marked with
        // whether it reads a net relation (and is thus delta-eligible).
        let mut prefix: Vec<(Literal, bool)> = vec![(Literal::pos(guard), true)];
        let mut sup_idx = 0usize;
        let positions = |p: &[(Literal, bool)]| -> Vec<usize> {
            p.iter()
                .enumerate()
                .filter(|(_, (_, is_net))| *is_net)
                .map(|(i, _)| i)
                .collect()
        };
        let body =
            |p: &[(Literal, bool)]| -> Vec<Literal> { p.iter().map(|(l, _)| l.clone()).collect() };
        // Visit order: a persistent occurrence first, then source order.
        let first = persistent_occurrence(rule, adornment);
        let order: Vec<usize> = first
            .into_iter()
            .chain((0..rule.body.len()).filter(|&i| Some(i) != first))
            .collect();

        for (n, &i) in order.iter().enumerate() {
            let lit = &rule.body[i];
            let atom = &lit.atom;
            filters += 1;
            if atom.is_builtin() || !idb.defines(atom.pred.as_str()) {
                prefix.push((lit.clone(), false));
                walk.absorb(lit);
                continue;
            }
            let a = walk.adorn(atom);
            // Collapse a multi-literal prefix into a supplementary
            // relation: the prefix join is computed once, then shared by
            // the demand projection and the continuation below.
            if prefix.len() > 1 {
                let rest = order[n..].iter().map(|&j| &rule.body[j]);
                let live = live_vars(&prefix, &rule.head, rest);
                let sup = Atom::new(
                    sup_name(pred.as_str(), adornment, ri, sup_idx),
                    live.into_iter().map(Term::Var).collect(),
                );
                sup_idx += 1;
                sups += 1;
                net.push(net_rule(
                    &Rule::with_literals(sup.clone(), body(&prefix)),
                    &positions(&prefix),
                    &mut interner,
                    stats,
                ));
                prefix = vec![(Literal::pos(sup), true)];
            }
            // Demand projection: input_q^a(bound args) ← prefix. A
            // persistent occurrence's is the identity on this fragment's
            // own guard, and is neither emitted nor a demand.
            if Some(i) != first {
                net.push(net_rule(
                    &Rule::with_literals(
                        Atom::new(input_name(atom.pred.as_str(), &a), bound_args(atom, &a)),
                        body(&prefix),
                    ),
                    &positions(&prefix),
                    &mut interner,
                    stats,
                ));
                let demand = (atom.pred.clone(), a.clone());
                if !demands.contains(&demand) {
                    demands.push(demand);
                }
            }
            // Continuation: the occurrence's answers join the prefix.
            prefix.push((
                Literal::pos(Atom::new(
                    ans_name(atom.pred.as_str(), &a),
                    atom.args.clone(),
                )),
                true,
            ));
            walk.absorb(lit);
        }

        // The answer rule: head args are the source head's.
        net.push(net_rule(
            &Rule::with_literals(
                Atom::new(ans.clone(), rule.head.args.clone()),
                body(&prefix),
            ),
            &positions(&prefix),
            &mut interner,
            stats,
        ));
    }

    Ok(Fragment {
        pred: pred.clone(),
        adornment: adornment.clone(),
        input,
        ans,
        rules: net,
        demands,
        sups,
        filters,
        factored: false,
    })
}

/// Builds the factored root fragment for `pred` under `adornment`, or
/// `None` when its rules are not right-linear in the sense of the module
/// docs. Per recursive rule `p(H) :- rest, p(O)` it emits
/// `input_p^a(O's bound args) :- input_p^a(H's bound args), rest`; per
/// exit rule `p(H) :- body` it emits `ans(H's free args) :-
/// input_p^a(H's bound args), body`. Negation anywhere fails the shape,
/// and the plain fragment then reports it.
fn build_factored(
    idb: &Idb,
    pred: &Sym,
    adornment: &Adornment,
    stats: Option<&CatalogStats>,
) -> Option<Fragment> {
    let input = input_name(pred.as_str(), adornment);
    let ans = free_ans_name(pred.as_str(), adornment);
    let stored = |l: &Literal| l.positive && (l.is_builtin() || !idb.defines(l.atom.pred.as_str()));
    let mut interner = Interner::new();
    let mut net: Vec<NetRule> = Vec::new();
    let mut filters = 0u64;
    let mut recursive = false;
    for rule in idb.rules_for(pred.as_str()) {
        let occurrences: Vec<usize> = (0..rule.body.len())
            .filter(|&i| rule.body[i].atom.pred == *pred)
            .collect();
        let head = match occurrences[..] {
            [] => Atom::new(
                ans.clone(),
                rule.head
                    .args
                    .iter()
                    .zip(adornment)
                    .filter(|(_, b)| !**b)
                    .map(|(t, _)| t.clone())
                    .collect(),
            ),
            [k] if passes_free_args_through(rule, k, adornment) => {
                recursive = true;
                Atom::new(input.clone(), bound_args(&rule.body[k].atom, adornment))
            }
            _ => return None,
        };
        let rest: Vec<Literal> = (0..rule.body.len())
            .filter(|i| !occurrences.contains(i))
            .map(|i| rule.body[i].clone())
            .collect();
        if !rest.iter().all(stored) {
            return None;
        }
        filters += rest.len() as u64;
        let guard = Literal::pos(Atom::new(input.clone(), bound_args(&rule.head, adornment)));
        let body = std::iter::once(guard).chain(rest).collect();
        net.push(net_rule(
            &Rule::with_literals(head, body),
            &[0],
            &mut interner,
            stats,
        ));
    }
    recursive.then(|| Fragment {
        pred: pred.clone(),
        adornment: adornment.clone(),
        input,
        ans,
        rules: net,
        demands: Vec::new(),
        sups: 0,
        filters,
        factored: true,
    })
}

/// True if the occurrence of the head predicate at body position `k`
/// receives every free head variable under `a` unchanged, in the same
/// position, with no other use of it in the rule, and is adorned `a`
/// once the rest of the body has bound what it binds. Then a subquery's
/// answers are exactly the root's.
fn passes_free_args_through(rule: &Rule, k: usize, a: &Adornment) -> bool {
    let occ = &rule.body[k];
    if !occ.positive {
        return false;
    }
    let mut uses: Vec<Var> = Vec::new();
    rule.head.collect_vars(&mut uses);
    for lit in &rule.body {
        lit.atom.collect_vars(&mut uses);
    }
    let passed = rule
        .head
        .args
        .iter()
        .zip(&occ.atom.args)
        .zip(a)
        .filter(|(_, b)| !**b)
        .all(|((h, o), _)| match h {
            Term::Var(v) => o == h && uses.iter().filter(|u| *u == v).count() == 2,
            Term::Const(_) => false,
        });
    if !passed {
        return false;
    }
    let mut walk = SipWalk::new(&rule.head, a);
    for (i, lit) in rule.body.iter().enumerate() {
        if i != k {
            walk.absorb(lit);
        }
    }
    walk.adorn(&occ.atom) == *a
}

/// Reads the plan's fragment cache.
fn cached<T>(plan: &ProgramPlan, read: impl FnOnce(&QsqCache) -> Option<T>) -> Option<T> {
    read(
        &plan
            .qsq_cache()
            .read()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Returns the cached fragment for `(pred, adornment)`, building and
/// caching it on first demand. Build failures (negation in the slice)
/// are not cached — the downgraded strategies don't consult the cache,
/// and a later retry rebuilds cheaply.
fn fragment_for(
    plan: &ProgramPlan,
    idb: &Idb,
    pred: &Sym,
    adornment: &Adornment,
) -> Result<Arc<Fragment>> {
    let key = (pred.clone(), adornment.clone());
    if let Some(f) = cached(plan, |c| c.plain.get(&key).cloned()) {
        return Ok(f);
    }
    let built = Arc::new(build_fragment(
        idb,
        pred,
        adornment,
        idb.rules_for(pred.as_str()),
        plan.stats(),
    )?);
    let mut cache = plan
        .qsq_cache()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    // A racing builder may have inserted meanwhile; both builds are
    // deterministic and identical, keep the first.
    Ok(Arc::clone(cache.plain.entry(key).or_insert(built)))
}

/// Returns the cached factored fragment for `(pred, adornment)`, or
/// `None` when the predicate's rules do not factor; both outcomes are
/// cached on first ask.
fn factored_for(
    plan: &ProgramPlan,
    idb: &Idb,
    pred: &Sym,
    adornment: &Adornment,
) -> Option<Arc<Fragment>> {
    let key = (pred.clone(), adornment.clone());
    if let Some(f) = cached(plan, |c| c.factored.get(&key).cloned()) {
        return f;
    }
    let built = build_factored(idb, pred, adornment, plan.stats()).map(Arc::new);
    let mut cache = plan
        .qsq_cache()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    cache.factored.entry(key).or_insert(built).clone()
}

/// The transitive demand closure of a root fragment: the cached
/// sub-fragments it demands, in deterministic BFS order.
fn demand_closure(plan: &ProgramPlan, idb: &Idb, qfrag: &Fragment) -> Result<Vec<Arc<Fragment>>> {
    let mut frags: Vec<Arc<Fragment>> = Vec::new();
    let mut queued: HashSet<(Sym, String)> = HashSet::new();
    // The root fragment's rules are already in the net — a recursive
    // self-demand (the bound-subject fast path) must not re-add them.
    queued.insert((qfrag.pred.clone(), suffix(&qfrag.adornment)));
    let mut work: VecDeque<(Sym, Adornment)> = VecDeque::new();
    for (p, a) in &qfrag.demands {
        if queued.insert((p.clone(), suffix(a))) {
            work.push_back((p.clone(), a.clone()));
        }
    }
    while let Some((p, a)) = work.pop_front() {
        let f = fragment_for(plan, idb, &p, &a)?;
        for (dp, da) in &f.demands {
            if queued.insert((dp.clone(), suffix(da))) {
                work.push_back((dp.clone(), da.clone()));
            }
        }
        frags.push(f);
    }
    Ok(frags)
}

/// The distinct variables of the goal conjunction, in first-occurrence
/// order, with the answer columns appended (they are a subset for known
/// subjects, but a fresh subject's columns must be present too).
fn query_vars(columns: &[Var], goals: &[Literal]) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::new();
    for g in goals {
        for v in g.atom.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    for v in columns {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    vars
}

/// Builds the per-query wrapper fragment `__qsq_query(vars) ← goals`.
/// The wrapper's head is all-variables, so its adornment is all-free
/// and its input relation is zero-ary — the seed is the empty tuple.
fn query_fragment(
    idb: &Idb,
    vars: &[Var],
    goals: &[Literal],
    stats: Option<&CatalogStats>,
) -> Result<Fragment> {
    let head = Atom::new(QUERY_PRED, vars.iter().cloned().map(Term::Var).collect());
    let rule = Rule::with_literals(head, goals.to_vec());
    let pattern: Adornment = vec![false; vars.len()];
    build_fragment(idb, &Sym::new(QUERY_PRED), &pattern, [&rule], stats)
}

/// A bound subject: the goal conjunction is a single positive IDB
/// literal whose arguments are constants or distinct variables. The
/// query *is* then a subquery of the subject's own cached fragment — the
/// constant arguments are exactly one `input_p^a` seed tuple. No wrapper
/// rule exists, so a warm call compiles nothing at all: two cache
/// lookups, the net fixpoint, and a read of the answer relation.
struct BoundSubject<'q> {
    atom: &'q Atom,
    adornment: Adornment,
    seed: Tuple,
    /// The goal's variables with their argument positions, in order.
    vars: Vec<(&'q Var, usize)>,
}

/// The goals' [`BoundSubject`], or `None` when the shape doesn't apply
/// (qualifier goals, builtins, EDB subjects, repeated variables, a
/// fresh-subject column) — the caller then runs the per-query wrapper.
fn bound_subject<'q>(idb: &Idb, columns: &[Var], goals: &'q [Literal]) -> Option<BoundSubject<'q>> {
    let [lit] = goals else { return None };
    let atom = &lit.atom;
    if !lit.positive || atom.is_builtin() || !idb.defines(atom.pred.as_str()) {
        return None;
    }
    let mut adornment: Adornment = Vec::with_capacity(atom.args.len());
    let mut seed = Vec::new();
    let mut vars: Vec<(&Var, usize)> = Vec::new();
    for (i, t) in atom.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                adornment.push(true);
                seed.push(c.clone());
            }
            Term::Var(v) => {
                if vars.iter().any(|(u, _)| *u == v) {
                    return None; // repeated variable: needs the wrapper's join
                }
                vars.push((v, i));
                adornment.push(false);
            }
        }
    }
    if columns.iter().any(|c| !vars.iter().any(|(v, _)| *v == c)) {
        return None; // a fresh-subject column the goal does not bind
    }
    Some(BoundSubject {
        atom,
        adornment,
        seed: Tuple::new(seed),
        vars,
    })
}

impl BoundSubject<'_> {
    /// The subject's answers in the answer relation of `root`, projected
    /// onto `columns`. A plain relation serves every subquery the net
    /// demanded, so only the tuples matching the seed's constants are
    /// ours, found by a probe; a factored one holds the seed's free
    /// columns and nothing else.
    fn rows(&self, root: &Fragment, derived: &DerivedFacts, columns: &[Var]) -> Vec<Tuple> {
        let Some(rel) = derived.relation(root.ans.as_str()) else {
            return Vec::new();
        };
        // Where each column sits in an answer tuple.
        let at: Vec<usize> = columns
            .iter()
            .filter_map(|c| {
                let j = self.vars.iter().position(|(v, _)| *v == c)?;
                Some(if root.factored { j } else { self.vars[j].1 })
            })
            .collect();
        let project = |t: &Tuple| at.iter().map(|&i| t.values()[i].clone()).collect();
        if root.factored {
            return rel.iter().map(project).collect();
        }
        let bound: Vec<(usize, &Value)> = self
            .atom
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Const(c) => Some((i, c)),
                Term::Var(_) => None,
            })
            .collect();
        rel.probe_cols(&bound)
            .into_iter()
            .map(|id| project(rel.tuple_at(id)))
            .collect()
    }
}

/// The net one evaluation runs: a root fragment whose input is seeded
/// with one tuple, and the fragments it demands, in BFS order.
struct Net {
    root: Arc<Fragment>,
    frags: Vec<Arc<Fragment>>,
    seed: Tuple,
}

impl Net {
    /// A bound subject's net: its factored fragment when the subject's
    /// rules factor, else its plain fragment and demand closure.
    fn seeded(plan: &ProgramPlan, idb: &Idb, subject: &BoundSubject<'_>) -> Result<Net> {
        let (pred, adornment) = (&subject.atom.pred, &subject.adornment);
        let (root, frags) = match factored_for(plan, idb, pred, adornment) {
            Some(root) => (root, Vec::new()),
            None => {
                let root = fragment_for(plan, idb, pred, adornment)?;
                let frags = demand_closure(plan, idb, &root)?;
                (root, frags)
            }
        };
        Ok(Net {
            root,
            frags,
            seed: subject.seed.clone(),
        })
    }

    /// The per-query wrapper `__qsq_query(vars) ← goals` and its demand
    /// closure, seeded with the empty tuple.
    fn wrapper(plan: &ProgramPlan, idb: &Idb, vars: &[Var], goals: &[Literal]) -> Result<Net> {
        let root = query_fragment(idb, vars, goals, plan.stats())?;
        let frags = demand_closure(plan, idb, &root)?;
        Ok(Net {
            root: Arc::new(root),
            frags,
            seed: Tuple::new(Vec::new()),
        })
    }

    /// Seeds the root's input in `derived` and runs the net to its
    /// fixpoint. An empty `derived` starts from round 0 over the totals;
    /// a non-empty one is a net at its fixpoint already (a table's), and
    /// the seed is the one new fact: the rounds start from it alone.
    fn eval(
        &self,
        edb: &Edb,
        mut derived: DerivedFacts,
        opts: &EvalOptions,
    ) -> Result<DerivedFacts> {
        let start = if derived.is_empty() {
            derived.insert(&self.root.input, self.seed.clone())?;
            Start::Totals
        } else {
            let mark = |d: &DerivedFacts| {
                d.relation(self.root.input.as_str())
                    .map_or(0, Relation::high_water)
            };
            let before = mark(&derived);
            derived.insert(&self.root.input, self.seed.clone())?;
            let mut delta = DeltaRanges::default();
            delta.insert(self.root.input.clone(), (before, mark(&derived)));
            Start::Delta(delta)
        };
        eval_net(edb, &self.root, &self.frags, &mut derived, start, opts)?;
        Ok(derived)
    }

    /// The table key of a seeded net: a factored net's answers hold no
    /// seed column, so its table serves one seed only.
    fn key(&self) -> TableKey {
        let root = &self.root;
        let seed = root.factored.then(|| self.seed.clone());
        (root.pred.clone(), root.adornment.clone(), seed)
    }

    /// The net's relations with the seed answered: read from `tables`
    /// when they hold the seed; else, while the tables are under their
    /// cap, derived from the table's relations (or from empty ones) and
    /// kept if they still fit; else derived from empty relations.
    fn tabled(
        &self,
        edb: &Edb,
        tables: &QsqTables,
        opts: &EvalOptions,
    ) -> Result<Arc<DerivedFacts>> {
        let key = self.key();
        let warm = tables.get(&key);
        if let Some(warm) = &warm {
            let input = warm.relation(self.root.input.as_str());
            if input.is_some_and(|r| r.contains(&self.seed)) {
                opts.sink.counter("qsq_table_hit", 1);
                return Ok(Arc::clone(warm));
            }
        }
        if tables.full() {
            return Ok(Arc::new(self.eval(edb, DerivedFacts::new(), opts)?));
        }
        // A fork: its relations are shared with the table's, and a write
        // copies only what it touches.
        let fork = warm.map_or_else(DerivedFacts::new, |warm| (*warm).clone());
        let derived = Arc::new(self.eval(edb, fork, opts)?);
        tables.adopt(key, &derived);
        Ok(derived)
    }
}

/// Rows a [`QsqTables`] holds at most, over all its nets. A call that
/// finds the tables full runs its net from empty relations, and a net
/// that would push them over is not kept. Sized so that a data epoch's
/// hot subqueries stay warm while the tables add a few megabytes at most
/// beside the stored relations.
pub const TABLE_ROW_CAP: usize = 1 << 16;

/// The key of a kept net: (predicate, adornment, the seed of a factored
/// net).
type TableKey = (Sym, Adornment, Option<Tuple>);

/// The relations of the QSQ nets run over one data epoch — one EDB and one
/// rules generation — kept across calls, per (predicate, adornment) and,
/// for a factored net, per seed. The knowledge-base layer starts empty
/// tables on every fact or rule change and shares them with every clone
/// of the epoch (snapshot readers included).
///
/// A seed already in a table's input relation is answered from its
/// answer relation, with no fixpoint. A new seed runs as a delta from the
/// table's marks in a structurally shared fork, which replaces the table
/// only once its fixpoint completes: a call that trips a limit or is
/// cancelled leaves the table as it was. Two calls extending one net at
/// once both finish; the later adoption wins, and the other's seed is
/// derived again when next asked.
#[derive(Debug, Default)]
pub struct QsqTables {
    nets: Mutex<TableMap>,
}

#[derive(Debug, Default)]
struct TableMap {
    nets: FxHashMap<TableKey, Arc<DerivedFacts>>,
    rows: usize,
}

impl QsqTables {
    /// Rows held, over every kept net.
    pub fn rows(&self) -> usize {
        self.lock().rows
    }

    /// Nets kept.
    pub fn nets(&self) -> usize {
        self.lock().nets.len()
    }

    /// Drops every kept net.
    pub fn clear(&mut self) {
        *self.nets.get_mut().unwrap_or_else(PoisonError::into_inner) = TableMap::default();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableMap> {
        self.nets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &TableKey) -> Option<Arc<DerivedFacts>> {
        self.lock().nets.get(key).cloned()
    }

    fn full(&self) -> bool {
        self.lock().rows >= TABLE_ROW_CAP
    }

    /// Keeps `derived` as the net of `key` if the tables stay within
    /// [`TABLE_ROW_CAP`].
    fn adopt(&self, key: TableKey, derived: &Arc<DerivedFacts>) {
        let mut map = self.lock();
        let old = map.nets.get(&key).map_or(0, |d| d.len());
        let rows = map.rows - old + derived.len();
        if rows <= TABLE_ROW_CAP {
            map.rows = rows;
            map.nets.insert(key, Arc::clone(derived));
        }
    }
}

/// QSQ evaluation of a goal conjunction, projected onto `columns`: a
/// bound subject seeds its own fragment, kept in `tables` when given;
/// anything else builds the wrapper fragment, pulls the demanded
/// sub-fragments from the plan cache, seeds the wrapper's input relation,
/// runs the net fixpoint from empty relations, and reads the wrapper's
/// answers. The rows come in no particular order.
pub(crate) fn qsq_rows(
    edb: &Edb,
    idb: &Idb,
    plan: &ProgramPlan,
    tables: Option<&QsqTables>,
    columns: &[Var],
    goals: &[Literal],
    opts: &EvalOptions,
) -> Result<Vec<Tuple>> {
    if let Some(subject) = bound_subject(idb, columns, goals) {
        let net = Net::seeded(plan, idb, &subject)?;
        let derived = match tables {
            Some(tables) => net.tabled(edb, tables, opts)?,
            None => Arc::new(net.eval(edb, DerivedFacts::new(), opts)?),
        };
        return Ok(subject.rows(&net.root, &derived, columns));
    }
    let vars = query_vars(columns, goals);
    let net = Net::wrapper(plan, idb, &vars, goals)?;
    let derived = net.eval(edb, DerivedFacts::new(), opts)?;
    let Some(rel) = derived.relation(net.root.ans.as_str()) else {
        return Ok(Vec::new());
    };
    // `vars` ends with every column, so each is found.
    let at: Vec<usize> = columns
        .iter()
        .filter_map(|c| vars.iter().position(|v| v == c))
        .collect();
    Ok(rel
        .iter()
        .map(|t| at.iter().map(|&i| t.values()[i].clone()).collect())
        .collect())
}

/// The net fixpoint: the (positive, hence monotone) net program run by
/// the semi-naive round loop from `start` — round 0 fires every net rule
/// against the totals (the seeded input), or the given delta stands in
/// for it; then delta rounds fire the prebuilt delta-first variants whose
/// net occurrence grew — plus the QSQ counters.
fn eval_net(
    edb: &Edb,
    qfrag: &Fragment,
    frags: &[Arc<Fragment>],
    derived: &mut DerivedFacts,
    start: Start,
    opts: &EvalOptions,
) -> Result<()> {
    let net: Vec<RoundRule<'_>> = qfrag
        .rules
        .iter()
        .chain(frags.iter().flat_map(|f| f.rules.iter()))
        .map(|nr| (&nr.plan, &nr.delta[..]))
        .collect();
    let fixpoint = Fixpoint::new(edb, derived, opts);
    fixpoint.run(&net, derived, start)?;
    fixpoint.finish(derived);
    let obs = &opts.sink;
    if obs.enabled() {
        let nodes: u64 = qfrag.nodes() + frags.iter().map(|f| f.nodes()).sum::<u64>();
        obs.counter("qsq_net_nodes", nodes);
        obs.counter("qsq_subqueries", 1 + frags.len() as u64);
        let input_tuples: usize = std::iter::once(&qfrag.input)
            .chain(frags.iter().map(|f| &f.input))
            .filter_map(|p| derived.relation(p.as_str()))
            .map(Relation::len)
            .sum();
        obs.counter("qsq_input_tuples", input_tuples as u64);
    }
    Ok(())
}

/// Renders the QSQ net a query evaluates: one block per subquery
/// fragment (the seeded root first — the factored or plain fragment of a
/// bound subject, else the per-query wrapper — then the demanded
/// fragments in BFS order) listing its input/answer/supplementary nodes,
/// its demand edges, and every net rule's round-0 plan — the same
/// EXPLAIN grammar as [`ProgramPlan::explain`], so the chosen access
/// paths (index probes, full scans) are visible per filter chain.
///
/// Builds (and caches) the same fragments evaluation would use, so
/// explaining a query warms its net cache.
pub fn explain_net(edb: &Edb, idb: &Idb, plan: &ProgramPlan, query: &Retrieve) -> Result<String> {
    let (columns, goals) = crate::query::query_goals(edb, idb, query)?;
    let net = match bound_subject(idb, &columns, &goals) {
        Some(subject) => Net::seeded(plan, idb, &subject)?,
        None => Net::wrapper(plan, idb, &query_vars(&columns, &goals), &goals)?,
    };

    let mut out = format!("qsq net for: {query}\n");
    let mut render = |frag: &Fragment, seed: Option<&Tuple>| {
        out.push_str(&format!(
            "subquery {}[{}]{} — {} nodes: input {}{}, ans {}, {} supplementary, {} filters\n",
            frag.pred,
            suffix(&frag.adornment),
            if frag.factored { " factored" } else { "" },
            frag.nodes(),
            frag.input,
            seed.map_or_else(String::new, |t| format!(" (seed {t})")),
            frag.ans,
            frag.sups,
            frag.filters,
        ));
        for (p, a) in &frag.demands {
            out.push_str(&format!(
                "  edge: {} -> {}\n",
                frag.input,
                input_name(p.as_str(), a)
            ));
        }
        for nr in &frag.rules {
            for line in nr.plan.explain().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
    };
    render(&net.root, Some(&net.seed));
    for f in &net.frags {
        render(f, None);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{self, Retrieve, Strategy};
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn prior_idb() -> Idb {
        Idb::from_rules(
            parse_program(
                "prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    fn chain(n: usize) -> Edb {
        let mut edb = Edb::new();
        edb.declare("prereq", &["C", "P"]).unwrap();
        for i in 0..n {
            edb.insert_fact(&parse_atom(&format!("prereq(c{}, c{})", i + 1, i)).unwrap())
                .unwrap();
        }
        edb
    }

    #[test]
    fn fragment_decomposes_recursive_rule_with_one_supplementary() {
        let idb = prior_idb();
        let pred = Sym::new("prior");
        let frag = build_fragment(
            &idb,
            &pred,
            &vec![true, false],
            idb.rules_for("prior"),
            None,
        )
        .unwrap();
        let rendered: Vec<&str> = frag
            .rules
            .iter()
            .map(|nr| nr.plan.rule_str.as_str())
            .collect();
        assert_eq!(
            rendered,
            vec![
                // Base rule: no IDB occurrence, guard + EDB literal.
                "ans_prior__bf(X, Y) :- input_prior__bf(X), prereq(X, Y).",
                // Recursive rule: the prefix join is collapsed into the
                // supplementary, shared by demand and continuation.
                "sup0_1_prior__bf(X, Z) :- input_prior__bf(X), prereq(X, Z).",
                "input_prior__bf(Z) :- sup0_1_prior__bf(X, Z).",
                "ans_prior__bf(X, Y) :- sup0_1_prior__bf(X, Z), ans_prior__bf(Z, Y).",
            ]
        );
        assert_eq!(frag.demands, vec![(pred, vec![true, false])]);
        // 2 (input/ans) + 1 supplementary + 3 filters.
        assert_eq!(frag.nodes(), 6);
    }

    #[test]
    fn bound_query_matches_seminaive() {
        let edb = chain(8);
        let idb = prior_idb();
        for subject in [
            "prior(c5, Y)",
            "prior(X, c2)",
            "prior(X, Y)",
            "prior(c5, c2)",
        ] {
            let q = Retrieve::new(parse_atom(subject).unwrap(), vec![]);
            let qsq = query::retrieve(&edb, &idb, &q, Strategy::Qsq).unwrap();
            let semi = query::retrieve(&edb, &idb, &q, Strategy::SemiNaive).unwrap();
            assert_eq!(qsq.rows, semi.rows, "{subject}");
            assert!(qsq.downgrades.is_empty(), "{subject}");
        }
    }

    #[test]
    fn qualifier_and_fresh_subject_match_seminaive() {
        let edb = chain(8);
        let idb = prior_idb();
        let q = Retrieve::new(
            parse_atom("answer(X)").unwrap(),
            parse_body("prior(X, c0), prereq(X, c4)").unwrap(),
        );
        let qsq = query::retrieve(&edb, &idb, &q, Strategy::Qsq).unwrap();
        let semi = query::retrieve(&edb, &idb, &q, Strategy::SemiNaive).unwrap();
        assert_eq!(qsq.rows, semi.rows);
    }

    #[test]
    fn derives_only_the_relevant_slice() {
        // On a chain, prior(c5, Y) reaches only c5's 5 descendants — the
        // net must not materialize the full 36-fact closure.
        let edb = chain(8);
        let idb = prior_idb();
        let q = Retrieve::new(parse_atom("prior(c5, Y)").unwrap(), vec![]);
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let (columns, goals) = query::query_goals(&edb, &idb, &q).unwrap();
        let opts = EvalOptions::default();
        let rows = qsq_rows(&edb, &idb, &plan, None, &columns, &goals, &opts).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn tables_stay_under_their_row_cap_and_answer_alike_above_it() {
        // prior(cK, Y) keeps one factored net of about 2K rows per seed:
        // 300 seeds would hold about 90 000.
        let edb = chain(300);
        let idb = prior_idb();
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let tables = QsqTables::default();
        for k in 1..=300 {
            let q = Retrieve::new(parse_atom(&format!("prior(c{k}, Y)")).unwrap(), vec![]);
            let opts = EvalOptions::default();
            let run = |tables| {
                query::retrieve_tabled(&edb, &idb, &plan, tables, &q, Strategy::Qsq, opts.clone())
                    .unwrap()
            };
            assert_eq!(run(Some(&tables)), run(None), "prior(c{k}, Y)");
            assert_eq!(run(Some(&tables)).len(), k);
            assert!(tables.rows() <= TABLE_ROW_CAP, "{} rows", tables.rows());
        }
        assert!(tables.nets() < 300 && tables.rows() > TABLE_ROW_CAP / 2);
    }

    /// `retrieve subject where qualifier`; an empty qualifier is none.
    fn retrieve(subject: &str, qualifier: &str) -> Retrieve {
        let goals = if qualifier.is_empty() {
            vec![]
        } else {
            parse_body(qualifier).unwrap()
        };
        Retrieve::new(parse_atom(subject).unwrap(), goals)
    }

    /// The (plain, factored) entry counts of a plan's fragment cache.
    fn cache_sizes(plan: &ProgramPlan) -> (usize, usize) {
        let cache = plan.qsq_cache().read().unwrap();
        (cache.plain.len(), cache.factored.len())
    }

    #[test]
    fn fragments_are_cached_per_adornment_and_shared_by_clones() {
        let edb = chain(6);
        let idb = prior_idb();
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let run = |plan: &ProgramPlan, subject: &str, qualifier: &str| {
            let q = retrieve(subject, qualifier);
            query::retrieve_compiled(&edb, &idb, plan, &q, Strategy::Qsq, EvalOptions::default())
                .unwrap()
        };
        // A bound subject runs the factored fragment; a qualifier's
        // wrapper demands the plain one. Each has a key of its own.
        run(&plan, "prior(c3, Y)", "");
        assert_eq!(cache_sizes(&plan), (0, 1));
        run(&plan, "answer(Y)", "prior(c3, Y), prereq(Y, c1)");
        assert_eq!(cache_sizes(&plan), (1, 1));
        let key = (Sym::new("prior"), vec![true, false]);
        let (factored, plain) = {
            let cache = plan.qsq_cache().read().unwrap();
            (
                cache.factored[&key].clone().unwrap(),
                Arc::clone(&cache.plain[&key]),
            )
        };
        assert!(factored.factored && !plain.factored);
        // A clone of the plan (the serving layer clones per snapshot)
        // shares the cache, and repeat queries reuse the same fragments.
        let clone = plan.clone();
        run(&clone, "prior(c2, Y)", "");
        run(&clone, "answer(Y)", "prior(c2, Y), prereq(Y, c0)");
        assert_eq!(cache_sizes(&clone), (1, 1));
        let cache = clone.qsq_cache().read().unwrap();
        assert!(Arc::ptr_eq(
            &factored,
            cache.factored[&key].as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(&plain, &cache.plain[&key]));
    }

    #[test]
    fn factored_answer_relation_is_unary_and_holds_the_answers() {
        // prior(c5, Y) on chain(8): the plain net holds one ans row per
        // reachable pair (15); the factored one holds Y alone, one row
        // per answer.
        let edb = chain(8);
        let idb = prior_idb();
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let q = Retrieve::new(parse_atom("prior(c5, Y)").unwrap(), vec![]);
        let (columns, goals) = query::query_goals(&edb, &idb, &q).unwrap();
        let subject = bound_subject(&idb, &columns, &goals).unwrap();
        let net = Net::seeded(&plan, &idb, &subject).unwrap();
        assert!(net.root.factored && net.frags.is_empty());
        let derived = net
            .eval(&edb, DerivedFacts::new(), &EvalOptions::default())
            .unwrap();
        let ans = derived.relation(net.root.ans.as_str()).unwrap();
        assert_eq!(ans.arity(), 1);
        assert_eq!(ans.len(), 5);
        let rendered: Vec<&str> = net
            .root
            .rules
            .iter()
            .map(|nr| nr.plan.rule_str.as_str())
            .collect();
        assert_eq!(
            rendered,
            [
                "ans_prior__bf__free(Y) :- input_prior__bf(X), prereq(X, Y).",
                "input_prior__bf(Z) :- input_prior__bf(X), prereq(X, Z).",
            ]
        );
    }

    /// Whether `pred`'s rules factor under `adornment`.
    fn factors(rules: &str, pred: &str, adornment: &[bool]) -> bool {
        let idb = Idb::from_rules(parse_program(rules).unwrap().rules).unwrap();
        build_factored(&idb, &Sym::new(pred), &adornment.to_vec(), None).is_some()
    }

    #[test]
    fn only_right_linear_rules_over_stored_literals_factor() {
        const EXIT: &str = "p(X, Y) :- e(X, Y).\n";
        let right = format!("{EXIT}p(X, Y) :- e(X, Z), p(Z, Y).");
        assert!(factors(&right, "p", &[true, false]));
        assert!(factors(&right, "p", &[true, true]));
        // The free variable does not pass through unchanged.
        assert!(!factors(&right, "p", &[false, true]));
        assert!(!factors(
            &format!("{EXIT}p(X, Y) :- p(X, Z), e(Z, Y)."),
            "p",
            &[true, false]
        ));
        // Two occurrences; a free variable reused in the body.
        assert!(!factors(
            &format!("{EXIT}p(X, Y) :- p(X, Z), p(Z, Y)."),
            "p",
            &[true, false]
        ));
        assert!(!factors(
            &format!("{EXIT}p(X, Y) :- e(X, Z), e(Y, Z), p(Z, Y)."),
            "p",
            &[true, false]
        ));
        // A derived or negated literal beside the occurrence.
        assert!(!factors(
            &format!("{EXIT}p(X, Y) :- q(X, Z), p(Z, Y).\nq(X, Y) :- e(X, Y)."),
            "p",
            &[true, false]
        ));
        assert!(!factors(
            &format!("{EXIT}p(X, Y) :- e(X, Z), not f(Z), p(Z, Y)."),
            "p",
            &[true, false]
        ));
        // Two recursive rules, and a constant in the occurrence's bound
        // position, still factor; non-recursive rules have nothing to
        // factor.
        assert!(factors(
            &format!("{right}\np(X, Y) :- e(Z, X), p(Z, Y).\np(X, Y) :- e(X, c0), p(c0, Y)."),
            "p",
            &[true, false]
        ));
        assert!(!factors(EXIT, "p", &[true, false]));
    }

    #[test]
    fn negation_errors_not_stratified() {
        let idb = Idb::from_rules(
            parse_program("p(X) :- q(X), not r(X).\nq(X) :- e(X).\nr(X) :- e(X).")
                .unwrap()
                .rules,
        )
        .unwrap();
        let pred = Sym::new("p");
        assert!(matches!(
            build_fragment(&idb, &pred, &vec![true], idb.rules_for("p"), None),
            Err(EngineError::NotStratified(_))
        ));
    }

    #[test]
    fn mutual_recursion_matches_seminaive() {
        let mut edb = Edb::new();
        edb.declare("zero", &["A"]).unwrap();
        edb.declare("succ", &["A", "B"]).unwrap();
        edb.insert_fact(&parse_atom("zero(n0)").unwrap()).unwrap();
        for i in 0..6 {
            edb.insert_fact(&parse_atom(&format!("succ(n{i}, n{})", i + 1)).unwrap())
                .unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "even(X) :- zero(X).\n\
                 even(X) :- succ(Y, X), odd(Y).\n\
                 odd(X) :- succ(Y, X), even(Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        for subject in ["even(n4)", "even(X)", "odd(n3)"] {
            let q = Retrieve::new(parse_atom(subject).unwrap(), vec![]);
            let qsq = query::retrieve(&edb, &idb, &q, Strategy::Qsq).unwrap();
            let semi = query::retrieve(&edb, &idb, &q, Strategy::SemiNaive).unwrap();
            assert_eq!(qsq.rows, semi.rows, "{subject}");
        }
    }

    #[test]
    fn builtin_filters_pass_through() {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "M", "G"]).unwrap();
        for f in [
            "student(ann, math, 3.9)",
            "student(bob, math, 3.5)",
            "student(cara, physics, 3.8)",
        ] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program("honor(X) :- student(X, Y, Z), Z > 3.7.")
                .unwrap()
                .rules,
        )
        .unwrap();
        for subject in ["honor(ann)", "honor(X)", "honor(bob)"] {
            let q = Retrieve::new(parse_atom(subject).unwrap(), vec![]);
            let qsq = query::retrieve(&edb, &idb, &q, Strategy::Qsq).unwrap();
            let semi = query::retrieve(&edb, &idb, &q, Strategy::SemiNaive).unwrap();
            assert_eq!(qsq.rows, semi.rows, "{subject}");
        }
    }

    #[test]
    fn explain_renders_the_net_that_runs() {
        let edb = chain(6);
        let idb = prior_idb();
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let explain = |subject: &str, qualifier: &str| {
            let q = retrieve(subject, qualifier);
            explain_net(&edb, &idb, &plan, &q).unwrap()
        };

        // A bound subject: its factored fragment, seeded directly, each
        // rule's round-0 plan scanning the seed first and probing the
        // stored relation on it.
        let text = explain("prior(c3, Y)", "");
        assert!(
            text.starts_with("qsq net for: retrieve prior(c3, Y)"),
            "{text}"
        );
        assert!(!text.contains("__qsq_query"), "{text}");
        assert!(
            text.contains(
                "subquery prior[bf] factored — 4 nodes: input input_prior__bf (seed (c3)), \
                 ans ans_prior__bf__free, 0 supplementary, 2 filters"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "plan ans_prior__bf__free(Y) :- input_prior__bf(X), prereq(X, Y).\n\
                 \x20   1. scan input_prior__bf(X)  full scan"
            ),
            "{text}"
        );
        assert!(text.contains("2. scan prereq(X, Y)  probe on X"), "{text}");
        assert!(!text.contains("scan prereq(X, Y)  full scan"), "{text}");

        // Bound second: the plain fragment, whose persistent occurrence
        // demands nothing beyond itself.
        let text = explain("prior(X, c2)", "");
        assert!(text.contains("subquery prior[fb] — "), "{text}");
        assert!(text.contains("(seed (c2))"), "{text}");
        assert!(!text.contains("edge:"), "{text}");

        // A qualifier: the per-query wrapper, then what it demands.
        let text = explain("answer(Y)", "prior(c3, Y), prereq(Y, c1)");
        assert!(text.contains("subquery __qsq_query[f]"), "{text}");
        assert!(
            text.contains("input input___qsq_query__f (seed ())"),
            "{text}"
        );
        assert!(text.contains("edge: input___qsq_query__f -> input_prior__bf"));
        assert!(text.contains("sup0_1_prior__bf"), "{text}");
        // Explaining warmed the fragment cache.
        assert_eq!(cache_sizes(&plan), (2, 2));
    }
}
