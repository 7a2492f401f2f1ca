//! Incremental maintenance of derived facts under fact churn.
//!
//! A [`MaintainedStore`] keeps the full IDB fixpoint materialized across
//! mutations of the stored database, so a living knowledge base answers
//! bottom-up retrieves by projection instead of re-deriving everything:
//!
//! * **Insertion** runs semi-naive delta propagation seeded with the new
//!   tuple: the freshly appended EDB tuple is a one-element id window, and
//!   only rule instantiations touching it (transitively) fire.
//! * **Retraction** runs Backward/Forward (B/F; Motik, Nenov, Piro and
//!   Horrocks, AAAI 2015), one dependency component at a time (the
//!   strongly connected components of the predicate graph, in dependency
//!   order — each stratum split further). The *forward* step fires
//!   delta-first rule variants whose delta occurrence reads the
//!   deleted-facts overlay, finding each derived fact that had a
//!   derivation through a deleted fact. Before such a candidate goes, the
//!   *backward* check looks for another derivation with the head-bound
//!   plans, proving facts only from surviving EDB facts, settled lower
//!   components and facts already proved in this run; it recurses into
//!   body facts of the candidate's own component, so mutual support never
//!   counts as a derivation. Only unproved candidates are removed, and
//!   only they feed the next forward step: a retraction costs the facts
//!   that go plus their boundary checks, and survivors keep their row ids.
//! * **Rule changes** invalidate only the affected predicates: relations of
//!   the new head and everything depending on it are dropped and re-derived
//!   with the settled lower strata as seed ([`crate::seminaive::eval`]);
//!   per-stratum generation counters record which strata actually changed.
//!
//! Negation is where incremental maintenance stops being sound tuple-wise:
//! if any affected rule negates an affected predicate (insertion can then
//! *delete* derived facts, deletion can *create* them), the store falls
//! back to a full sequential recomputation and reports the reason so the
//! caller can surface it as a [`crate::query::Downgrade`]. Maintenance
//! always runs with an unbounded governor: the store must end identical
//! regardless of the session's limits.

use crate::bindings::{exec, DeltaRanges, DerivedFacts, FactView};
use crate::error::{EngineError, Result};
use crate::graph::Strata;
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan};
use crate::seminaive::{self, Fixpoint, RoundRule, Start};
use qdk_logic::fasthash::{FxHashMap, FxHashSet};
use qdk_logic::obs::ObsSink;
use qdk_logic::{Frame, IrAtom, IrTerm, Rule, Sym};
use qdk_storage::{Edb, Relation, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters describing what one maintenance operation did. Merged across
/// the operations of a mutation batch by the language layer.
#[derive(Clone, Debug, Default)]
pub struct MaintainStats {
    /// Derived facts added by delta propagation.
    pub derived_added: usize,
    /// Derived facts removed: by a retraction, the candidates whose last
    /// derivation went (each removed once, never put back); by a rule
    /// change, the extensions of the invalidated predicates.
    pub derived_deleted: usize,
    /// Retraction candidates that lost a derivation but kept another: the
    /// backward check proved them, so they stayed in place with their row
    /// ids (nothing is deleted and re-inserted).
    pub rederived: usize,
    /// Facts whose derivations a retraction's backward check enumerated,
    /// each at most once per retraction.
    pub checked: usize,
    /// Strata whose generation counter was bumped by a rule change.
    pub strata_invalidated: usize,
    /// Reasons incremental maintenance fell back to full recomputation
    /// (empty when the operation stayed incremental).
    pub recompute_reasons: Vec<String>,
}

impl MaintainStats {
    /// Folds another operation's counters into this one.
    pub fn merge(&mut self, other: &MaintainStats) {
        self.derived_added += other.derived_added;
        self.derived_deleted += other.derived_deleted;
        self.rederived += other.rederived;
        self.checked += other.checked;
        self.strata_invalidated += other.strata_invalidated;
        self.recompute_reasons
            .extend(other.recompute_reasons.iter().cloned());
    }

    /// How many operations fell back to full recomputation.
    pub fn recomputes(&self) -> usize {
        self.recompute_reasons.len()
    }
}

/// The outcome of preparing a retraction against the pre-retraction state.
#[derive(Debug)]
pub enum Retraction {
    /// No derived fact has a derivation through the retracted fact:
    /// removing the EDB tuple is the whole operation.
    Clean,
    /// The retracted fact and the derived facts with a derivation through
    /// it. Hand it to [`MaintainedStore::finish_retract`] after removing
    /// the EDB tuple.
    Prepared(Doomed),
}

/// Opaque payload of [`Retraction::Prepared`]: the first forward step of
/// a Backward/Forward retraction, taken before the EDB tuple leaves so a
/// derivation that reads the tuple twice is still seen.
#[derive(Debug)]
pub struct Doomed {
    /// The deleted-facts overlay, holding just the retracted tuple.
    deleted: DerivedFacts,
    /// Derived facts with a derivation through the retracted tuple.
    candidates: Vec<(Sym, Tuple)>,
}

/// Everything a maintained store derives from the rules alone: the
/// program plan, the strata and dependency components of the plan's
/// analysis, delta-first rule variants for every positive body
/// occurrence, head-bound plans for the backward check, and which
/// predicates each mutation can reach. Shared behind an `Arc` by every
/// clone of the store (transaction undo copies, published epochs) and
/// rebuilt only when the rules change.
#[derive(Debug)]
struct RuleParts {
    plan: Arc<ProgramPlan>,
    /// The strata, with each stratum's rules (positions in
    /// `plan.plans()`), as the plan's analysis computed them.
    strata: Arc<Strata>,
    /// Per rule (parallel to `plan.plans()`): every positive non-builtin
    /// body occurrence paired with the delta-first re-plan that scans it
    /// outermost. Insertion propagation and the retraction's forward step
    /// both fire these.
    variants: Vec<Vec<(usize, RulePlan)>>,
    /// Per scanned predicate, the variants (rule, position in
    /// `variants[rule]`) whose delta occurrence reads it.
    readers: FxHashMap<Sym, Vec<(usize, usize)>>,
    /// The predicates the variants scan, each once: the relations whose
    /// high-water marks are a propagation's baseline.
    scanned: Vec<Sym>,
    /// The dependency component of every rule head, numbered in
    /// dependency order: a component's rules read only its own and lower
    /// components' predicates.
    component: FxHashMap<Sym, usize>,
    /// Per rule: how the backward check enumerates its derivations.
    checks: Vec<CheckPlan>,
    /// Every predicate some rule body reads (either polarity), with the
    /// reason a mutation of it cannot be maintained incrementally, if it
    /// cannot (see [`fallback_reasons`]). A predicate no rule reads is
    /// absent: mutating it changes no derived fact.
    reach: FxHashMap<Sym, Option<String>>,
}

impl RuleParts {
    /// Reads the strata and dependency components of `plan`'s analysis
    /// (built on `obs` if no retrieve built it yet) and compiles
    /// everything maintenance fires from `plan`, the compilation of
    /// `idb`.
    fn new(idb: &Idb, plan: Arc<ProgramPlan>, obs: &ObsSink) -> Result<RuleParts> {
        let analysis = plan.analysis(idb, obs);
        let strata = Arc::clone(analysis.strata()?);
        let component: FxHashMap<Sym, usize> = idb
            .predicates()
            .into_iter()
            .filter_map(|p| analysis.graph().component(p.as_str()).map(|c| (p, c)))
            .collect();
        let variants = compile_variants(&plan);
        let mut scanned: Vec<Sym> = Vec::new();
        let mut seen: FxHashSet<&Sym> = FxHashSet::default();
        for (_, dp) in variants.iter().flatten() {
            for (i, lit) in dp.compiled.body.iter().enumerate() {
                if lit.positive
                    && !dp.compiled.source.body[i].is_builtin()
                    && seen.insert(&lit.atom.pred)
                {
                    scanned.push(lit.atom.pred.clone());
                }
            }
        }
        let mut readers: FxHashMap<Sym, Vec<(usize, usize)>> = FxHashMap::default();
        for (r, rule_variants) in variants.iter().enumerate() {
            for (k, (i, dp)) in rule_variants.iter().enumerate() {
                readers
                    .entry(dp.compiled.body[*i].atom.pred.clone())
                    .or_default()
                    .push((r, k));
            }
        }
        let checks = plan
            .plans()
            .iter()
            .map(|rp| CheckPlan::new(rp, &component, plan.stats()))
            .collect();
        Ok(RuleParts {
            reach: fallback_reasons(idb),
            plan,
            strata,
            variants,
            readers,
            scanned,
            component,
            checks,
        })
    }
}

/// For every predicate some rule body reads, why a mutation of it cannot
/// be maintained incrementally, if it cannot: some affected rule negates
/// an affected predicate, so the update is non-monotone through that
/// rule. The affected set of `p` is `p` plus every head whose rule reads
/// an affected predicate — the closure follows *both* literal polarities,
/// since a head whose rule negates `p` changes when `p` does. Computed
/// once per rules generation by a reverse-dependency walk per predicate;
/// the reason names the first offending literal in rule order.
fn fallback_reasons(idb: &Idb) -> FxHashMap<Sym, Option<String>> {
    let rules = idb.rules();
    // readers[p]: heads of the rules whose body mentions p.
    let mut readers: FxHashMap<&str, Vec<&str>> = FxHashMap::default();
    for rule in rules {
        for lit in rule.body.iter().filter(|l| !l.is_builtin()) {
            readers
                .entry(lit.atom.pred.as_str())
                .or_default()
                .push(rule.head.pred.as_str());
        }
    }
    // Only a rule with a negated literal can make an update non-monotone;
    // without one (the common rule base) no predicate needs its walk.
    let negating: Vec<&Rule> = rules
        .iter()
        .filter(|r| r.body.iter().any(|l| !l.positive && !l.is_builtin()))
        .collect();
    let mut reasons = FxHashMap::default();
    for &pred in readers.keys() {
        let reason = if negating.is_empty() {
            None
        } else {
            let mut reached: FxHashSet<&str> = FxHashSet::default();
            reached.insert(pred);
            let mut stack = vec![pred];
            while let Some(p) = stack.pop() {
                for &head in readers.get(p).into_iter().flatten() {
                    if reached.insert(head) {
                        stack.push(head);
                    }
                }
            }
            negating
                .iter()
                .filter(|rule| reached.contains(rule.head.pred.as_str()))
                .find_map(|rule| {
                    rule.body
                        .iter()
                        .find(|l| {
                            !l.positive && !l.is_builtin() && reached.contains(l.atom.pred.as_str())
                        })
                        .map(|l| {
                            format!(
                                "rule {rule} negates affected predicate {}; \
                                 the update is non-monotone",
                                l.atom.pred
                            )
                        })
                })
        };
        reasons.insert(Sym::new(pred), reason);
    }
    reasons
}

/// A materialized, incrementally maintained derived-fact store: the
/// derived facts, the rule-derived parts maintenance fires (shared, see
/// `RuleParts`), and per-stratum generation counters. Cloning costs
/// O(derived relations): the rule-derived parts are one `Arc`, and each
/// relation shares its storage with the clone.
#[derive(Clone, Debug)]
pub struct MaintainedStore {
    rules: Arc<RuleParts>,
    derived: DerivedFacts,
    /// Generation counter per stratum, bumped when a rule change
    /// invalidates that stratum's extension. Strata untouched by a change
    /// keep their generation, which is what lets plan- and answer-caches
    /// scope their invalidation.
    gens: Vec<u64>,
}

/// The full fixpoint of the compiled program, from scratch.
fn materialize(edb: &Edb, idb: &Idb, plan: &ProgramPlan) -> Result<DerivedFacts> {
    seminaive::eval(
        edb,
        idb,
        plan,
        None,
        DerivedFacts::new(),
        EvalOptions::default(),
    )
}

/// The delta-variant plans for every rule of `plan`.
fn compile_variants(plan: &ProgramPlan) -> Vec<Vec<(usize, RulePlan)>> {
    plan.plans()
        .iter()
        .map(|rp| {
            rp.compiled
                .body
                .iter()
                .enumerate()
                .filter(|(i, lit)| lit.positive && !rp.compiled.source.body[*i].is_builtin())
                .map(|(i, _)| (i, rp.delta_variant(i, plan.stats())))
                .collect()
        })
        .collect()
}

/// How the backward check enumerates one rule's derivations of a given
/// head fact.
#[derive(Debug)]
struct CheckPlan {
    /// The body with every head slot pre-bound, minus the looked-up atoms.
    plan: RulePlan,
    /// The positive body atoms in the head's own component — the body
    /// facts a check recurses into instead of reading as settled — each
    /// with whether it is looked up rather than scanned: an atom whose
    /// every slot the head or a scanned atom binds is left out of `plan`
    /// and looked up by value once the rest of the body matched.
    recursive: Vec<(usize, bool)>,
}

impl CheckPlan {
    fn new(
        rp: &RulePlan,
        component: &FxHashMap<Sym, usize>,
        stats: Option<&qdk_storage::CatalogStats>,
    ) -> CheckPlan {
        let c = &rp.compiled;
        let own = component.get(&c.head.pred);
        let database = |i: usize| c.body[i].positive && !c.source.body[i].is_builtin();
        let same: Vec<usize> = (0..c.body.len())
            .filter(|&i| database(i) && component.get(&c.body[i].atom.pred) == own)
            .collect();
        let slots = |atom: &IrAtom| -> Vec<u32> {
            atom.args
                .iter()
                .filter_map(|t| match t {
                    IrTerm::Slot(s) => Some(*s),
                    IrTerm::Const(_) => None,
                })
                .collect()
        };
        let mut bound = vec![false; c.num_slots()];
        for s in slots(&c.head) {
            bound[s as usize] = true;
        }
        let mut by_rest = bound.clone();
        for i in (0..c.body.len()).filter(|i| database(*i) && !same.contains(i)) {
            for s in slots(&c.body[i].atom) {
                by_rest[s as usize] = true;
            }
        }
        let recursive: Vec<(usize, bool)> = same
            .iter()
            .map(|&i| {
                (
                    i,
                    slots(&c.body[i].atom).iter().all(|&s| by_rest[s as usize]),
                )
            })
            .collect();
        let mut scanned = c.clone();
        for &(i, _) in recursive.iter().rev().filter(|(_, looked_up)| *looked_up) {
            scanned.body.remove(i);
            scanned.source.body.remove(i);
        }
        CheckPlan {
            plan: RulePlan::with_bound(scanned, rp.rule_str.clone(), bound, stats),
            recursive,
        }
    }
}

impl MaintainedStore {
    /// Materializes the full fixpoint of `idb` over `edb` and prepares the
    /// maintenance plans. `plan` must be the compilation of `idb`.
    pub fn build(edb: &Edb, idb: &Idb, plan: Arc<ProgramPlan>) -> Result<MaintainedStore> {
        let rules = RuleParts::new(idb, plan, &ObsSink::disabled())?;
        let derived = materialize(edb, idb, &rules.plan)?;
        Ok(MaintainedStore {
            gens: vec![0; rules.strata.len()],
            rules: Arc::new(rules),
            derived,
        })
    }

    /// The maintained derived facts.
    pub fn derived(&self) -> &DerivedFacts {
        &self.derived
    }

    /// Adopts the index demand readers of `other` (typically the
    /// previously published snapshot of this store) expressed, so the
    /// next snapshot's derived relations have those indexes built (see
    /// [`DerivedFacts::adopt_index_demand`]).
    pub fn adopt_index_demand(&mut self, other: &MaintainedStore) {
        self.derived.adopt_index_demand(&other.derived);
    }

    /// The per-stratum generation counters, in stratum order.
    pub fn stratum_generations(&self) -> &[u64] {
        &self.gens
    }

    /// The generation of the stratum an IDB predicate belongs to.
    pub fn generation_of(&self, pred: &str) -> Option<u64> {
        self.rules
            .strata
            .stratum_of(pred)
            .and_then(|s| self.gens.get(s).copied())
    }

    /// Why a mutation of `pred` cannot be maintained incrementally, if it
    /// cannot: the predicate is simultaneously stored and derived, or some
    /// affected rule negates an affected predicate (precomputed per rules
    /// generation, see [`fallback_reasons`]).
    fn fallback_reason(&self, edb: &Edb, idb: &Idb, pred: &str) -> Option<String> {
        if edb.is_edb_predicate(pred) && idb.defines(pred) {
            return Some(format!(
                "predicate {pred} is both stored and derived; incremental maintenance \
                 cannot separate the contributions"
            ));
        }
        self.rules.reach.get(pred).cloned().flatten()
    }

    /// True if some rule body reads `pred`: only then can mutating it
    /// change a derived fact.
    fn is_read(&self, pred: &str) -> bool {
        self.rules.reach.contains_key(pred)
    }

    /// Current row-id high-water mark of `pred` in the stores a scan would
    /// read — matching [`FactView`]'s resolution order (EDB first).
    fn high_water(&self, edb: &Edb, pred: &Sym) -> usize {
        if edb.is_edb_predicate(pred.as_str()) {
            edb.relation(pred.as_str()).map_or(0, Relation::high_water)
        } else {
            self.derived
                .relation(pred.as_str())
                .map_or(0, Relation::high_water)
        }
    }

    /// Semi-naive delta propagation from the given seed windows: stratum by
    /// stratum, the round loop fires every delta-first variant whose
    /// occurrence predicate has unconsumed new tuples, until no stratum
    /// grows. Returns how many derived facts were added.
    ///
    /// Each stratum starts from every predicate its variants scan, windowed
    /// from the propagation baseline to the current high-water mark, so
    /// windows produced while processing one stratum remain visible to
    /// every higher stratum.
    fn propagate(&mut self, edb: &Edb, seed: &DeltaRanges) -> Result<usize> {
        let opts = EvalOptions::default();
        let fixpoint = Fixpoint::new(edb, &opts);
        let rules = Arc::clone(&self.rules);
        // Baseline: everything below these ids is already reflected in the
        // store; seed windows start below their predicate's mark.
        let mut base: FxHashMap<&Sym, usize> = FxHashMap::default();
        for p in &rules.scanned {
            base.insert(p, self.high_water(edb, p));
        }
        for (p, &(lo, _)) in seed {
            base.insert(p, lo);
        }
        let mut added = 0usize;
        for rule_ids in rules.strata.rules() {
            let mut delta = DeltaRanges::default();
            for &r in rule_ids {
                for (i, dp) in &rules.variants[r] {
                    let p = &dp.compiled.body[*i].atom.pred;
                    let mark = self.high_water(edb, p);
                    let lo = base.get(p).copied().unwrap_or(mark);
                    if mark > lo {
                        delta.insert(p.clone(), (lo, mark));
                    }
                }
            }
            let stratum: Vec<RoundRule<'_>> = rule_ids
                .iter()
                .map(|&r| (&rules.plan.plans()[r], &rules.variants[r][..]))
                .collect();
            added += fixpoint.run(&stratum, &mut self.derived, Start::Delta(delta))?;
        }
        Ok(added)
    }

    /// Maintains the store after a *new* EDB tuple of `pred` was inserted
    /// (the tuple holds the highest id of its relation). Returns at once
    /// when no rule reads `pred`; falls back to full recomputation —
    /// recording the reason — when the insertion is non-monotone through
    /// negation.
    pub fn after_insert(&mut self, edb: &Edb, idb: &Idb, pred: &str) -> Result<MaintainStats> {
        let mut stats = MaintainStats::default();
        if let Some(reason) = self.fallback_reason(edb, idb, pred) {
            self.recompute(edb, idb)?;
            stats.recompute_reasons.push(reason);
            return Ok(stats);
        }
        if !self.is_read(pred) {
            return Ok(stats);
        }
        let mark = edb.relation(pred).map_or(0, Relation::high_water);
        if mark == 0 {
            return Ok(stats);
        }
        let mut seed = DeltaRanges::default();
        seed.insert(Sym::new(pred), (mark - 1, mark));
        stats.derived_added = self.propagate(edb, &seed)?;
        Ok(stats)
    }

    /// The first forward step of a retraction, run against the
    /// *pre-retraction* state: finds the derived facts with a derivation
    /// through the retracted `tuple` of `pred`. Read-only; call before
    /// removing the tuple from the EDB, and check
    /// [`MaintainedStore::retract_fallback_reason`] first — this method
    /// assumes the retraction is maintainable.
    pub fn prepare_retract(&self, edb: &Edb, pred: &str, tuple: &Tuple) -> Result<Retraction> {
        if !self.is_read(pred) {
            return Ok(Retraction::Clean);
        }
        let pred = Sym::new(pred);
        let mut deleted = DerivedFacts::new();
        deleted.insert(&pred, tuple.clone())?;
        let mut window = DeltaRanges::default();
        window.insert(pred, (0, 1));
        let candidates = self.forward(edb, &deleted, &window)?;
        if candidates.is_empty() {
            return Ok(Retraction::Clean);
        }
        Ok(Retraction::Prepared(Doomed {
            deleted,
            candidates,
        }))
    }

    /// Why retracting from `pred` cannot be maintained incrementally, if
    /// it cannot. Callers check this before [`MaintainedStore::prepare_retract`]
    /// and fall back to [`MaintainedStore::recompute`] on `Some`.
    pub fn retract_fallback_reason(&self, edb: &Edb, idb: &Idb, pred: &str) -> Option<String> {
        self.fallback_reason(edb, idb, pred)
    }

    /// The rest of a Backward/Forward retraction, run after the EDB tuple
    /// has been removed; `idb` is the program the store's rule-derived
    /// parts were compiled from (its by-head index names the rules a
    /// check enumerates). Component by component in
    /// dependency order, each candidate is checked for another
    /// derivation; the unproved ones are removed in one batch per
    /// relation, after the forward step from that batch has found the
    /// next candidates. A component is settled before any component
    /// reading it is checked.
    pub fn finish_retract(
        &mut self,
        edb: &Edb,
        idb: &Idb,
        doomed: Doomed,
    ) -> Result<MaintainStats> {
        let Doomed {
            mut deleted,
            candidates,
        } = doomed;
        let rules = Arc::clone(&self.rules);
        let mut stats = MaintainStats::default();
        // The overlay ids each forward step has read: the retracted
        // tuple's step ran in `prepare_retract`.
        let mut consumed: FxHashMap<Sym, usize> = deleted
            .iter()
            .map(|(p, rel)| (p.clone(), rel.high_water()))
            .collect();
        // Candidates per component, settled in dependency order.
        let mut pending: BTreeMap<usize, Vec<(Sym, Tuple)>> = BTreeMap::new();
        for (p, t) in candidates {
            pending.entry(rules.component[&p]).or_default().push((p, t));
        }
        while let Some((c, mut todo)) = pending.pop_first() {
            let mut back = Backward::default();
            while !todo.is_empty() {
                for (p, t) in todo.drain(..) {
                    if !back.check(&rules, idb, edb, &self.derived, &p, &t)? {
                        deleted.insert(&p, t)?;
                    }
                }
                let mut batch = DeltaRanges::default();
                for (p, rel) in deleted.iter() {
                    let lo = consumed.get(p).copied().unwrap_or(0);
                    if rel.high_water() > lo {
                        batch.insert(p.clone(), (lo, rel.high_water()));
                    }
                }
                if batch.is_empty() {
                    break;
                }
                // The forward step reads the batch still in place, so a
                // derivation using two of its facts is seen.
                for (p, t) in self.forward(edb, &deleted, &batch)? {
                    match rules.component[&p] {
                        d if d == c => todo.push((p, t)),
                        d => pending.entry(d).or_default().push((p, t)),
                    }
                }
                for (p, (lo, hi)) in batch {
                    let gone = deleted.relation(p.as_str()).map(|rel| rel.delta(lo, hi));
                    stats.derived_deleted += self
                        .derived
                        .remove_all(&p, gone.iter().flat_map(|view| view.iter()));
                    consumed.insert(p, hi);
                }
            }
            stats.checked += back.explored;
            stats.rederived += back.kept();
        }
        Ok(stats)
    }

    /// The forward step: every derived fact with a derivation that reads
    /// a tuple of `deleted` inside `window` at some positive body
    /// position, every other position reading the current EDB and derived
    /// store. Returns those not already in `deleted`, duplicates included.
    fn forward(
        &self,
        edb: &Edb,
        deleted: &DerivedFacts,
        window: &DeltaRanges,
    ) -> Result<Vec<(Sym, Tuple)>> {
        let gov = EvalOptions::default().governor();
        let mut found: Vec<(Sym, Tuple)> = Vec::new();
        let mut row: Vec<Value> = Vec::new();
        for p in window.keys() {
            for &(r, k) in self.rules.readers.get(p).into_iter().flatten() {
                gov.tick()?;
                let (i, dp) = &self.rules.variants[r][k];
                let view = FactView::with_overlay(edb, &self.derived, deleted, window, *i);
                let head = &dp.compiled.head;
                let known = self.derived.relation(head.pred.as_str());
                let gone = deleted.relation(head.pred.as_str());
                let mut frame = Frame::new(dp.compiled.num_slots());
                exec(dp, 0, &view, &mut frame, &mut |frame| {
                    resolve_into(&mut row, head, frame, dp)?;
                    if known.is_some_and(|rel| rel.contains_slice(&row))
                        && !gone.is_some_and(|rel| rel.contains_slice(&row))
                    {
                        found.push((head.pred.clone(), row.iter().cloned().collect()));
                    }
                    Ok(())
                })?;
            }
        }
        Ok(found)
    }

    /// Applies a rule-set change whose new rule heads `head`: drop the
    /// extensions of `head` and everything depending on it, re-derive just
    /// those predicates with the surviving relations as seed, rebuild the
    /// rule-derived parts, and bump the generation of each invalidated
    /// stratum. `plan` must be the compilation of the new `idb`; its
    /// analysis, if no retrieve built it yet, is built on `obs`.
    pub fn rules_changed(
        &mut self,
        edb: &Edb,
        idb: &Idb,
        plan: Arc<ProgramPlan>,
        head: &str,
        obs: &ObsSink,
    ) -> Result<MaintainStats> {
        let mut stats = MaintainStats::default();
        let rules = RuleParts::new(idb, plan, obs)?;
        // Affected under the *new* evaluation graph, so a rule that adds a
        // dependency invalidates through it; the graph follows negated
        // literals, so a head that negates an affected predicate is
        // affected too.
        let slice = rules
            .plan
            .analysis(idb, obs)
            .graph()
            .slices_containing(|p| p.as_str() == head);
        let affected: Vec<Sym> = idb
            .predicates()
            .into_iter()
            .filter(|p| slice.contains(p))
            .collect();
        for p in &affected {
            stats.derived_deleted += self.derived.remove_relation(p);
        }
        let seed = std::mem::take(&mut self.derived);
        self.derived = seminaive::eval(
            edb,
            idb,
            &rules.plan,
            Some(&affected),
            seed,
            EvalOptions::default(),
        )?;
        stats.derived_added = affected
            .iter()
            .map(|p| self.derived.relation(p.as_str()).map_or(0, Relation::len))
            .sum();
        // Carry generations by stratum index; new strata start at 0, and
        // every stratum containing an affected predicate is bumped.
        let strata = rules.strata.len();
        self.gens.resize(strata, 0);
        let mut bumped = vec![false; strata];
        for p in &affected {
            if let Some(s) = rules.strata.stratum_of(p.as_str()) {
                if !bumped[s] {
                    bumped[s] = true;
                    self.gens[s] += 1;
                    stats.strata_invalidated += 1;
                }
            }
        }
        self.rules = Arc::new(rules);
        Ok(stats)
    }

    /// Throws the maintained state away and re-derives everything from the
    /// current EDB — the fallback when an update is non-monotone.
    pub fn recompute(&mut self, edb: &Edb, idb: &Idb) -> Result<()> {
        self.derived = materialize(edb, idb, &self.rules.plan)?;
        Ok(())
    }
}

/// Binds a head-bound plan's frame from a concrete head tuple: constants
/// must match, repeated variables must agree. `None` means the tuple
/// cannot be this rule's head instance.
fn bind_head(plan: &RulePlan, tuple: &Tuple) -> Option<Frame> {
    let head = &plan.compiled.head;
    if head.args.len() != tuple.arity() {
        return None;
    }
    let mut frame = Frame::new(plan.compiled.num_slots());
    for (arg, val) in head.args.iter().zip(tuple.values()) {
        match arg {
            IrTerm::Const(c) => {
                if c != val {
                    return None;
                }
            }
            IrTerm::Slot(s) => match frame.get(*s) {
                Some(bound) => {
                    if bound != val {
                        return None;
                    }
                }
                None => frame.set(*s, val.clone()),
            },
        }
    }
    Some(frame)
}

/// Fills `row` with `atom`'s arguments under `frame`; an unbound slot is
/// an unsafe rule.
fn resolve_into(row: &mut Vec<Value>, atom: &IrAtom, frame: &Frame, plan: &RulePlan) -> Result<()> {
    row.clear();
    for t in &atom.args {
        match t.resolve(frame) {
            Some(c) => row.push(c.clone()),
            None => {
                return Err(EngineError::UnsafeRule {
                    rule: plan.rule_str.clone(),
                    literal: atom.reify(frame, &plan.compiled.slots).to_string(),
                })
            }
        }
    }
    Ok(())
}

/// What the backward check knows about one fact of the component under
/// retraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Met as a body fact; its derivations are not enumerated.
    Unknown,
    /// On the frontier, to be explored.
    Queued,
    /// Derivations enumerated, none proved yet.
    Open,
    /// Derivable from surviving facts: it stays.
    Proved,
    /// No derivation survives.
    Refuted,
}

/// A fact of the component under retraction, as the backward check met it.
#[derive(Debug)]
struct Node {
    pred: Sym,
    tuple: Tuple,
    state: State,
    /// The instances with this fact among their unproved body facts.
    waiters: Vec<usize>,
    /// A forward step named it: a check was asked for it directly.
    candidate: bool,
}

/// A rule instance whose head waits for `missing` more of its body facts
/// in the head's component to be proved.
#[derive(Debug)]
struct Instance {
    head: usize,
    missing: usize,
}

/// The backward check of one component's retraction, memoised across
/// every candidate of the component.
///
/// Exploring a fact enumerates its derivations over the current store
/// with the head-bound plans. Body facts of lower components and the EDB
/// are settled, so a derivation is proved once its body facts of the
/// component itself are; those are explored in turn (depth first, from
/// the `frontier`), and proving a fact proves every instance waiting on
/// it. When the frontier runs dry every explored fact left unproved has
/// no derivation from surviving facts — mutual support included — and is
/// refuted. A fact is explored at most once per retraction.
#[derive(Debug, Default)]
struct Backward {
    ids: FxHashMap<Sym, FxHashMap<Tuple, usize>>,
    nodes: Vec<Node>,
    instances: Vec<Instance>,
    frontier: Vec<usize>,
    /// Explored facts not yet proved or refuted.
    open: Vec<usize>,
    /// How many facts were explored.
    explored: usize,
}

impl Backward {
    fn state(&self, pred: &Sym, values: &[Value]) -> State {
        self.ids
            .get(pred)
            .and_then(|m| m.get(values))
            .map_or(State::Unknown, |&id| self.nodes[id].state)
    }

    fn node(&mut self, pred: &Sym, tuple: Tuple) -> usize {
        if let Some(&id) = self.ids.get(pred).and_then(|m| m.get(tuple.values())) {
            return id;
        }
        let id = self.nodes.len();
        self.ids
            .entry(pred.clone())
            .or_default()
            .insert(tuple.clone(), id);
        self.nodes.push(Node {
            pred: pred.clone(),
            tuple,
            state: State::Unknown,
            waiters: Vec::new(),
            candidate: false,
        });
        id
    }

    /// How many candidates were proved.
    fn kept(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.candidate && n.state == State::Proved)
            .count()
    }

    /// True if the candidate `tuple` of `pred` keeps a derivation.
    fn check(
        &mut self,
        rules: &RuleParts,
        idb: &Idb,
        edb: &Edb,
        derived: &DerivedFacts,
        pred: &Sym,
        tuple: &Tuple,
    ) -> Result<bool> {
        let id = self.node(pred, tuple.clone());
        self.nodes[id].candidate = true;
        if matches!(self.nodes[id].state, State::Unknown | State::Queued) {
            self.nodes[id].state = State::Queued;
            self.frontier.push(id);
        }
        loop {
            match self.nodes[id].state {
                State::Proved => return Ok(true),
                State::Refuted => return Ok(false),
                _ => {}
            }
            let Some(next) = self.frontier.pop() else {
                for f in self.open.drain(..) {
                    if self.nodes[f].state == State::Open {
                        self.nodes[f].state = State::Refuted;
                    }
                }
                continue;
            };
            if self.nodes[next].state != State::Queued {
                continue;
            }
            // A fact only proved heads wait on is not worth exploring; a
            // later instance that needs it queues it again.
            let needed = self.nodes[next].candidate
                || self.nodes[next]
                    .waiters
                    .iter()
                    .any(|&i| self.nodes[self.instances[i].head].state != State::Proved);
            if needed {
                self.explore(rules, idb, edb, derived, next)?;
            } else {
                self.nodes[next].state = State::Unknown;
            }
        }
    }

    /// Enumerates the derivations of fact `id` over the current store:
    /// proves it if one rests on proved facts only, else registers each
    /// surviving instance on its unproved body facts and queues them.
    fn explore(
        &mut self,
        rules: &RuleParts,
        idb: &Idb,
        edb: &Edb,
        derived: &DerivedFacts,
        id: usize,
    ) -> Result<()> {
        self.explored += 1;
        let (pred, tuple) = (self.nodes[id].pred.clone(), self.nodes[id].tuple.clone());
        let view = FactView::total(edb, derived);
        let mut proved = false;
        // Per instance, its body facts in the component not yet proved.
        let mut waiting: Vec<Vec<(Sym, Tuple)>> = Vec::new();
        let mut row: Vec<Value> = Vec::new();
        for &r in idb.rule_indices(pred.as_str()) {
            let check = &rules.checks[r];
            let Some(mut frame) = bind_head(&check.plan, &tuple) else {
                continue;
            };
            let body = &rules.plan.plans()[r].compiled.body;
            exec(&check.plan, 0, &view, &mut frame, &mut |frame| {
                if proved {
                    return Ok(());
                }
                let mut missing: Vec<(Sym, Tuple)> = Vec::new();
                for &(j, looked_up) in &check.recursive {
                    let atom = &body[j].atom;
                    resolve_into(&mut row, atom, frame, &check.plan)?;
                    match self.state(&atom.pred, &row) {
                        State::Proved => {}
                        State::Refuted => return Ok(()),
                        _ if looked_up
                            && !derived
                                .relation(atom.pred.as_str())
                                .is_some_and(|rel| rel.contains_slice(&row)) =>
                        {
                            return Ok(())
                        }
                        _ => missing.push((atom.pred.clone(), row.iter().cloned().collect())),
                    }
                }
                if missing.is_empty() {
                    proved = true;
                } else {
                    waiting.push(missing);
                }
                Ok(())
            })?;
            if proved {
                self.prove(id);
                return Ok(());
            }
        }
        self.nodes[id].state = State::Open;
        self.open.push(id);
        for mut missing in waiting {
            missing.sort_unstable();
            missing.dedup();
            let inst = self.instances.len();
            self.instances.push(Instance {
                head: id,
                missing: missing.len(),
            });
            for (p, t) in missing {
                let g = self.node(&p, t);
                self.nodes[g].waiters.push(inst);
                if self.nodes[g].state == State::Unknown {
                    self.nodes[g].state = State::Queued;
                    self.frontier.push(g);
                }
            }
        }
        Ok(())
    }

    /// Marks fact `id` proved, and with it every fact an instance then
    /// completes.
    fn prove(&mut self, id: usize) {
        let mut work = vec![id];
        while let Some(f) = work.pop() {
            if self.nodes[f].state == State::Proved {
                continue;
            }
            self.nodes[f].state = State::Proved;
            for i in std::mem::take(&mut self.nodes[f].waiters) {
                let inst = &mut self.instances[i];
                inst.missing -= 1;
                if inst.missing == 0 {
                    work.push(inst.head);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_program};

    fn atom_tuple(src: &str) -> (String, Tuple) {
        let a = parse_atom(src).unwrap();
        let vals: Vec<Value> = a
            .args
            .iter()
            .map(|t| t.as_const().cloned().unwrap())
            .collect();
        (a.pred.to_string(), Tuple::new(vals))
    }

    fn chain(n: usize) -> (Edb, Idb) {
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        for i in 0..n {
            edb.insert_fact(&parse_atom(&format!("edge(n{i}, n{})", i + 1)).unwrap())
                .unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "reach(X, Y) :- edge(X, Y).\n\
                 reach(X, Y) :- edge(X, Z), reach(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        (edb, idb)
    }

    fn store(edb: &Edb, idb: &Idb) -> MaintainedStore {
        let plan = Arc::new(ProgramPlan::compile_with_stats(idb, edb.stats()));
        MaintainedStore::build(edb, idb, plan).unwrap()
    }

    fn same_facts(a: &DerivedFacts, b: &DerivedFacts) -> bool {
        a.len() == b.len()
            && a.iter().all(|(p, rel)| {
                rel.iter().all(|t| {
                    b.relation(p.as_str())
                        .is_some_and(|other| other.contains(t))
                })
            })
    }

    fn assert_matches_fresh(store: &MaintainedStore, edb: &Edb, idb: &Idb) {
        let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
        let fresh = materialize(edb, idb, &plan).unwrap();
        assert!(
            same_facts(store.derived(), &fresh),
            "maintained {} facts, fresh {}",
            store.derived().len(),
            fresh.len()
        );
    }

    #[test]
    fn insert_propagates_incrementally() {
        let (mut edb, idb) = chain(6);
        let mut s = store(&edb, &idb);
        // Extend the chain: n6 -> n7.
        edb.insert_fact(&parse_atom("edge(n6, n7)").unwrap())
            .unwrap();
        let stats = s.after_insert(&edb, &idb, "edge").unwrap();
        // reach(n0..n6, n7): seven new pairs, one per source node.
        assert_eq!(stats.derived_added, 7);
        assert!(stats.recompute_reasons.is_empty());
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn insert_bridging_two_chains_propagates_across() {
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        for f in ["edge(a, b)", "edge(c, d)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "reach(X, Y) :- edge(X, Y).\n\
                 reach(X, Y) :- edge(X, Z), reach(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        edb.insert_fact(&parse_atom("edge(b, c)").unwrap()).unwrap();
        let stats = s.after_insert(&edb, &idb, "edge").unwrap();
        // New: reach(b,c), reach(b,d), reach(a,c), reach(a,d).
        assert_eq!(stats.derived_added, 4);
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_tail_edge_deletes_and_rederives() {
        let (mut edb, idb) = chain(6);
        let mut s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("edge(n5, n6)");
        assert!(s.retract_fallback_reason(&edb, &idb, &pred).is_none());
        let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
        edb.remove_fact(&parse_atom("edge(n5, n6)").unwrap())
            .unwrap();
        match prep {
            Retraction::Prepared(doomed) => {
                let stats = s.finish_retract(&edb, &idb, doomed).unwrap();
                // Every reach(_, n6) dies, nothing rederives.
                assert_eq!(stats.derived_deleted, 6);
                assert_eq!(stats.rederived, 0);
            }
            other => panic!("expected Prepared, got {other:?}"),
        }
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_with_alternative_path_rederives() {
        // Diamond: a->b->d and a->c->d; retracting a->b keeps reach(a, d).
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        for f in ["edge(a, b)", "edge(b, d)", "edge(a, c)", "edge(c, d)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "reach(X, Y) :- edge(X, Y).\n\
                 reach(X, Y) :- edge(X, Z), reach(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("edge(a, b)");
        let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
        edb.remove_fact(&parse_atom("edge(a, b)").unwrap()).unwrap();
        let Retraction::Prepared(doomed) = prep else {
            panic!("expected Prepared");
        };
        let stats = s.finish_retract(&edb, &idb, doomed).unwrap();
        // reach(a, b) has no other derivation and goes; reach(a, d) is
        // proved through reach(c, d) and stays. Checked: those three.
        assert_eq!(stats.derived_deleted, 1);
        assert_eq!(stats.rederived, 1);
        assert_eq!(stats.checked, 3);
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_on_a_cycle_deletes_what_only_supports_itself() {
        // a -> b -> c -> b: once edge(a, b) goes, reach(a, b) and
        // reach(a, c) support each other only through the cycle.
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        for f in ["edge(a, b)", "edge(b, c)", "edge(c, b)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "reach(X, Y) :- edge(X, Y).\n\
                 reach(X, Y) :- reach(X, Z), edge(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("edge(a, b)");
        let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
        edb.remove_fact(&parse_atom("edge(a, b)").unwrap()).unwrap();
        let Retraction::Prepared(doomed) = prep else {
            panic!("expected Prepared");
        };
        let stats = s.finish_retract(&edb, &idb, doomed).unwrap();
        assert_eq!(stats.derived_deleted, 2);
        assert_eq!(stats.rederived, 0);
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_sees_a_derivation_that_reads_the_tuple_twice() {
        let mut edb = Edb::new();
        edb.declare("e", &["A", "B"]).unwrap();
        for f in ["e(a, a)", "e(b, c)", "e(c, b)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb =
            Idb::from_rules(parse_program("p(X) :- e(X, Y), e(Y, X).").unwrap().rules).unwrap();
        let mut s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("e(a, a)");
        let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
        edb.remove_fact(&parse_atom("e(a, a)").unwrap()).unwrap();
        let Retraction::Prepared(doomed) = prep else {
            panic!("expected Prepared");
        };
        let stats = s.finish_retract(&edb, &idb, doomed).unwrap();
        assert_eq!(stats.derived_deleted, 1);
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_sees_a_derivation_through_two_facts_of_one_batch() {
        // p(a) and p(b) go in one batch; every r fact joins two of them.
        let mut edb = Edb::new();
        edb.declare("src", &["K"]).unwrap();
        edb.insert_fact(&parse_atom("src(k)").unwrap()).unwrap();
        let idb = Idb::from_rules(
            parse_program(
                "p(a) :- src(X).\n\
                 p(b) :- src(X).\n\
                 r(X, Y) :- p(X), p(Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("src(k)");
        let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
        edb.remove_fact(&parse_atom("src(k)").unwrap()).unwrap();
        let Retraction::Prepared(doomed) = prep else {
            panic!("expected Prepared");
        };
        let stats = s.finish_retract(&edb, &idb, doomed).unwrap();
        assert_eq!(stats.derived_deleted, 6);
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn retract_unreferenced_predicate_is_clean() {
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        edb.declare("color", &["N", "C"]).unwrap();
        edb.insert_fact(&parse_atom("edge(a, b)").unwrap()).unwrap();
        edb.insert_fact(&parse_atom("color(a, red)").unwrap())
            .unwrap();
        let idb =
            Idb::from_rules(parse_program("reach(X, Y) :- edge(X, Y).").unwrap().rules).unwrap();
        let s = store(&edb, &idb);
        let (pred, tuple) = atom_tuple("color(a, red)");
        assert!(matches!(
            s.prepare_retract(&edb, &pred, &tuple).unwrap(),
            Retraction::Clean
        ));
    }

    #[test]
    fn negation_over_affected_predicate_forces_recompute() {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "G"]).unwrap();
        for f in ["student(ann, 3.9)", "student(bob, 3.5)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, G), G > 3.7.\n\
                 ordinary(X) :- student(X, G), not honor(X).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        edb.insert_fact(&parse_atom("student(cara, 3.8)").unwrap())
            .unwrap();
        let stats = s.after_insert(&edb, &idb, "student").unwrap();
        assert_eq!(stats.recomputes(), 1);
        assert_matches_fresh(&s, &edb, &idb);
        // Retraction reports the same fallback.
        assert!(s.retract_fallback_reason(&edb, &idb, "student").is_some());
    }

    #[test]
    fn negation_over_unaffected_predicate_stays_incremental() {
        // blocked is EDB-only and independent of edge; negating it is fine.
        let mut edb = Edb::new();
        edb.declare("edge", &["A", "B"]).unwrap();
        edb.declare("blocked", &["N"]).unwrap();
        for f in ["edge(a, b)", "edge(b, c)", "blocked(x)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "open(X, Y) :- edge(X, Y), not blocked(X).\n\
                 reach(X, Y) :- open(X, Y).\n\
                 reach(X, Y) :- open(X, Z), reach(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        edb.insert_fact(&parse_atom("edge(c, d)").unwrap()).unwrap();
        let stats = s.after_insert(&edb, &idb, "edge").unwrap();
        assert!(stats.recompute_reasons.is_empty());
        assert_matches_fresh(&s, &edb, &idb);
    }

    #[test]
    fn rules_changed_rebuilds_only_affected_predicates() {
        let (edb, idb) = chain(4);
        let mut s = store(&edb, &idb);
        // Add an independent predicate's rule; reach's stratum survives.
        let mut idb2 = idb.clone();
        idb2.add_rule(qdk_logic::parser::parse_rule("loop(X) :- edge(X, X).").unwrap())
            .unwrap();
        let plan2 = Arc::new(ProgramPlan::compile_with_stats(&idb2, edb.stats()));
        let before_reach = s.derived().relation("reach").unwrap().len();
        let stats = s
            .rules_changed(&edb, &idb2, plan2, "loop", &ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.derived_deleted, 0); // loop had no extension yet
        assert_eq!(s.derived().relation("reach").unwrap().len(), before_reach);
        assert_matches_fresh(&s, &edb, &idb2);
        // A rule on reach invalidates reach but leaves loop's work alone.
        let mut idb3 = idb2.clone();
        idb3.add_rule(qdk_logic::parser::parse_rule("reach(X, X) :- edge(X, Y).").unwrap())
            .unwrap();
        let plan3 = Arc::new(ProgramPlan::compile_with_stats(&idb3, edb.stats()));
        let stats = s
            .rules_changed(&edb, &idb3, plan3, "reach", &ObsSink::disabled())
            .unwrap();
        assert!(stats.derived_deleted >= before_reach);
        assert!(stats.strata_invalidated >= 1);
        assert_matches_fresh(&s, &edb, &idb3);
    }

    #[test]
    fn generations_bump_only_affected_strata() {
        let mut edb = Edb::new();
        edb.declare("e", &["A"]).unwrap();
        edb.insert_fact(&parse_atom("e(x)").unwrap()).unwrap();
        let idb = Idb::from_rules(
            parse_program(
                "a(X) :- e(X).\n\
                 b(X) :- e(X), not a(X).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let mut s = store(&edb, &idb);
        assert_eq!(s.stratum_generations(), &[0, 0]);
        let g_a = s.generation_of("a").unwrap();
        // A new rule on b touches only b's stratum.
        let mut idb2 = idb.clone();
        idb2.add_rule(qdk_logic::parser::parse_rule("b(X) :- e(X), e(X).").unwrap())
            .unwrap();
        let plan2 = Arc::new(ProgramPlan::compile_with_stats(&idb2, edb.stats()));
        s.rules_changed(&edb, &idb2, plan2, "b", &ObsSink::disabled())
            .unwrap();
        assert_eq!(s.generation_of("a").unwrap(), g_a);
        assert_eq!(s.generation_of("b").unwrap(), 1);
    }

    #[test]
    fn churn_sequence_matches_fresh_recompute() {
        let (mut edb, idb) = chain(10);
        let mut s = store(&edb, &idb);
        for i in 0..10 {
            let f = format!("edge(n{i}, n{})", i + 1);
            let (pred, tuple) = atom_tuple(&f);
            let prep = s.prepare_retract(&edb, &pred, &tuple).unwrap();
            edb.remove_fact(&parse_atom(&f).unwrap()).unwrap();
            if let Retraction::Prepared(doomed) = prep {
                s.finish_retract(&edb, &idb, doomed).unwrap();
            }
            assert_matches_fresh(&s, &edb, &idb);
            edb.insert_fact(&parse_atom(&f).unwrap()).unwrap();
            s.after_insert(&edb, &idb, "edge").unwrap();
            assert_matches_fresh(&s, &edb, &idb);
        }
    }
}
