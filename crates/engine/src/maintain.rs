//! Incremental maintenance of derived facts under fact churn.
//!
//! A [`MaintainedStore`] keeps the full IDB fixpoint materialized across
//! mutations of the stored database, so a living knowledge base answers
//! bottom-up retrieves by projection instead of re-deriving everything:
//!
//! * **Insertion** runs semi-naive delta propagation seeded with the new
//!   tuple: the freshly appended EDB tuple is a one-element id window, and
//!   only rule instantiations touching it (transitively) fire.
//! * **Retraction** runs DRed (delete-and-rederive): phase A overestimates
//!   the deleted derived tuples by firing delta-first rule variants whose
//!   delta occurrence reads the deleted-tuples overlay against the
//!   untouched pre-retraction state; phase B removes the overestimate in
//!   one batch per relation; phase C walks the strata in order, re-deriving
//!   every deleted tuple with at least one surviving derivation (a
//!   head-bound one-step check, then delta propagation from the
//!   re-inserted tuples).
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
use crate::graph::DependencyGraph;
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan};
use crate::seminaive::{self, Fixpoint, RoundRule, Start};
use crate::stratify::{stratify, Stratification};
use qdk_logic::fasthash::{FxHashMap, FxHashSet};
use qdk_logic::{Frame, IrTerm, Rule, Sym};
use qdk_storage::{Edb, Relation, Tuple, Value};
use std::sync::Arc;

/// Counters describing what one maintenance operation did. Merged across
/// the operations of a mutation batch by the language layer.
#[derive(Clone, Debug, Default)]
pub struct MaintainStats {
    /// Derived facts added by delta propagation (insertion or rederive
    /// spill-over).
    pub derived_added: usize,
    /// Derived facts removed by DRed's deletion phase or a scoped rule
    /// invalidation.
    pub derived_deleted: usize,
    /// Deleted facts put back because an alternative derivation survived.
    pub rederived: usize,
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
    /// No rule reads the retracted predicate: removing the EDB tuple is the
    /// whole operation.
    Clean,
    /// The DRed deletion overestimate: every derived tuple at least one of
    /// whose known derivations used the retracted fact. Hand it to
    /// [`MaintainedStore::finish_retract`] after removing the EDB tuple.
    Prepared(Doomed),
}

/// Opaque payload of [`Retraction::Prepared`]: the deletion-candidate
/// store computed by DRed's overestimation phase.
#[derive(Debug)]
pub struct Doomed {
    overlay: DerivedFacts,
    pred: Sym,
}

impl Doomed {
    /// Size of the deletion overestimate: how many derived tuples DRed
    /// will delete and attempt to rederive. Observability reports this as
    /// the `dred_overestimate` counter.
    pub fn len(&self) -> usize {
        self.overlay.len()
    }

    /// True when the overestimate is empty (the retraction reached no
    /// derived fact).
    pub fn is_empty(&self) -> bool {
        self.overlay.is_empty()
    }
}

/// Everything a maintained store derives from the rules alone: the
/// program plan, the stratification, delta-first rule variants for every
/// positive body occurrence, head-bound plans for rederivability checks,
/// and which predicates each mutation can reach. Shared behind an `Arc` by
/// every clone of the store (transaction undo copies, published epochs)
/// and rebuilt only when the rules change.
#[derive(Debug)]
struct RuleParts {
    plan: Arc<ProgramPlan>,
    strat: Stratification,
    /// Per stratum, the rules (positions in `plan.plans()`) it derives.
    stratum_rules: Vec<Vec<usize>>,
    /// Per rule (parallel to `plan.plans()`): every positive non-builtin
    /// body occurrence paired with the delta-first re-plan that scans it
    /// outermost. Insertion propagation and DRed's overestimation both
    /// fire these.
    variants: Vec<Vec<(usize, RulePlan)>>,
    /// The predicates the variants scan, each once: the relations whose
    /// high-water marks are a propagation's baseline.
    scanned: Vec<Sym>,
    /// Per rule: the body re-planned with every head slot pre-bound — the
    /// one-step rederivability check executes this with the deleted tuple's
    /// values already in the frame.
    bound_plans: Vec<RulePlan>,
    /// Rules per head predicate, in rule order.
    by_head: FxHashMap<Sym, Vec<usize>>,
    /// Every predicate some rule body reads (either polarity), with the
    /// reason a mutation of it cannot be maintained incrementally, if it
    /// cannot (see [`fallback_reasons`]). A predicate no rule reads is
    /// absent: mutating it changes no derived fact.
    reach: FxHashMap<Sym, Option<String>>,
}

impl RuleParts {
    /// Stratifies `idb` and compiles everything maintenance fires from
    /// `plan`, its compilation.
    fn new(idb: &Idb, plan: Arc<ProgramPlan>) -> Result<RuleParts> {
        let strat = stratify(idb)?;
        let mut by_head: FxHashMap<Sym, Vec<usize>> = FxHashMap::default();
        for (r, rp) in plan.plans().iter().enumerate() {
            by_head
                .entry(rp.compiled.head.pred.clone())
                .or_default()
                .push(r);
        }
        let stratum_rules = strat
            .strata()
            .iter()
            .map(|stratum| {
                let mut rules: Vec<usize> = stratum
                    .iter()
                    .flat_map(|p| by_head.get(p).into_iter().flatten().copied())
                    .collect();
                rules.sort_unstable();
                rules
            })
            .collect();
        let (variants, bound_plans) = compile_variants(&plan);
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
        Ok(RuleParts {
            reach: fallback_reasons(idb),
            plan,
            strat,
            stratum_rules,
            variants,
            scanned,
            bound_plans,
            by_head,
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

/// The delta-variant and head-bound plans for every rule of `plan`.
fn compile_variants(plan: &ProgramPlan) -> (Vec<Vec<(usize, RulePlan)>>, Vec<RulePlan>) {
    let variants = plan
        .plans()
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
        .collect();
    let bound_plans = plan
        .plans()
        .iter()
        .map(|rp| {
            let mut bound = vec![false; rp.compiled.num_slots()];
            for arg in &rp.compiled.head.args {
                if let IrTerm::Slot(s) = arg {
                    bound[*s as usize] = true;
                }
            }
            RulePlan::with_bound(
                rp.compiled.clone(),
                rp.rule_str.clone(),
                bound,
                plan.stats(),
            )
        })
        .collect();
    (variants, bound_plans)
}

impl MaintainedStore {
    /// Materializes the full fixpoint of `idb` over `edb` and prepares the
    /// maintenance plans. `plan` must be the compilation of `idb`.
    pub fn build(edb: &Edb, idb: &Idb, plan: Arc<ProgramPlan>) -> Result<MaintainedStore> {
        let rules = RuleParts::new(idb, plan)?;
        let derived = materialize(edb, idb, &rules.plan)?;
        Ok(MaintainedStore {
            gens: vec![0; rules.strat.len()],
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
            .strat
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
        for rule_ids in &rules.stratum_rules {
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

    /// DRed phase A, run against the *pre-retraction* state: computes the
    /// overestimate of derived tuples whose derivations may all depend on
    /// the retracted `tuple` of `pred`. Read-only; call before removing
    /// the tuple from the EDB, and check
    /// [`MaintainedStore::retract_fallback_reason`] first — this method
    /// assumes the retraction is maintainable.
    pub fn prepare_retract(&self, edb: &Edb, pred: &str, tuple: &Tuple) -> Result<Retraction> {
        if !self.is_read(pred) {
            return Ok(Retraction::Clean);
        }
        let opts = EvalOptions::default();
        let gov = opts.governor();
        let mut overlay = DerivedFacts::new();
        let pred_sym = Sym::new(pred);
        overlay.insert(&pred_sym, tuple.clone())?;
        let mut consumed: FxHashMap<Sym, usize> = FxHashMap::default();
        // Global monotone fixpoint over all rules: ordering across strata
        // does not matter for an overestimate, only coverage does.
        loop {
            let mut ranges = DeltaRanges::default();
            for variants in &self.rules.variants {
                for (i, dp) in variants {
                    let p = &dp.compiled.body[*i].atom.pred;
                    let mark = overlay.relation(p.as_str()).map_or(0, Relation::high_water);
                    let c = consumed.get(p).copied().unwrap_or(0);
                    if mark > c {
                        ranges.insert(p.clone(), (c, mark));
                    }
                }
            }
            if ranges.is_empty() {
                break;
            }
            let mut buffers: Vec<(Sym, Vec<Tuple>)> = Vec::new();
            for (r, variants) in self.rules.variants.iter().enumerate() {
                for (i, dp) in variants {
                    if !ranges.contains_key(&dp.compiled.body[*i].atom.pred) {
                        continue;
                    }
                    gov.tick()?;
                    let view = FactView::with_overlay(edb, &self.derived, &overlay, &ranges, *i);
                    let head = &dp.compiled.head;
                    let known = self.derived.relation(head.pred.as_str());
                    let doomed = overlay.relation(head.pred.as_str());
                    let mut frame = Frame::new(dp.compiled.num_slots());
                    let mut buf: Vec<Tuple> = Vec::new();
                    let mut err: Option<EngineError> = None;
                    let mut row: Vec<Value> = Vec::with_capacity(head.args.len());
                    exec(dp, 0, &view, &mut frame, &mut |frame| {
                        row.clear();
                        for t in &head.args {
                            match t.resolve(frame) {
                                Some(c) => row.push(c.clone()),
                                None => {
                                    if err.is_none() {
                                        err = Some(EngineError::UnsafeRule {
                                            rule: dp.rule_str.clone(),
                                            literal: head
                                                .reify(frame, &dp.compiled.slots)
                                                .to_string(),
                                        });
                                    }
                                    return Ok(());
                                }
                            }
                        }
                        // A deletion candidate must currently be derived and
                        // not already doomed.
                        if known.is_some_and(|rel| rel.contains_slice(&row))
                            && !doomed.is_some_and(|rel| rel.contains_slice(&row))
                        {
                            buf.push(Tuple::new(row.clone()));
                        }
                        Ok(())
                    })?;
                    if let Some(e) = err {
                        return Err(e);
                    }
                    if !buf.is_empty() {
                        buffers.push((self.rules.plan.plans()[r].compiled.head.pred.clone(), buf));
                    }
                }
            }
            for (p, &(_, hi)) in &ranges {
                consumed.insert(p.clone(), hi);
            }
            for (p, buf) in buffers {
                overlay.insert_all(&p, buf)?;
            }
        }
        if overlay.len() <= 1 {
            return Ok(Retraction::Clean);
        }
        Ok(Retraction::Prepared(Doomed {
            overlay,
            pred: pred_sym,
        }))
    }

    /// Why retracting from `pred` cannot be maintained incrementally, if
    /// it cannot. Callers check this before [`MaintainedStore::prepare_retract`]
    /// and fall back to [`MaintainedStore::recompute`] on `Some`.
    pub fn retract_fallback_reason(&self, edb: &Edb, idb: &Idb, pred: &str) -> Option<String> {
        self.fallback_reason(edb, idb, pred)
    }

    /// DRed phases B and C, run after the EDB tuple has been removed:
    /// batch-delete the overestimate, then walk the strata in order
    /// re-inserting every deleted tuple with a surviving one-step
    /// derivation and propagating the reinsertions (which can only ever
    /// re-add deleted tuples — anything derivable from the shrunken state
    /// was derivable before).
    pub fn finish_retract(
        &mut self,
        edb: &Edb,
        idb: &Idb,
        doomed: Doomed,
    ) -> Result<MaintainStats> {
        let Doomed { overlay, pred } = doomed;
        let mut stats = MaintainStats::default();
        // Phase B: one batched removal per affected relation.
        for (p, rel) in overlay.iter() {
            if p == &pred && !idb.defines(p.as_str()) {
                continue; // the retracted EDB tuple itself is not derived state
            }
            stats.derived_deleted += self.derived.remove_all(p, rel.iter());
        }
        // Phase C, stratum by stratum: lower-stratum support is settled
        // before a tuple's own rederivability is judged. Id windows are
        // taken only now, after every removal of phase B.
        let rules = Arc::clone(&self.rules);
        for stratum in rules.strat.strata() {
            let mut reinserted = DeltaRanges::default();
            let mut pending: Vec<(Sym, Tuple)> = Vec::new();
            for p in stratum {
                let Some(rel) = overlay.relation(p.as_str()) else {
                    continue;
                };
                for t in rel.iter() {
                    pending.push((p.clone(), t.clone()));
                }
            }
            for (p, tuple) in pending {
                if self
                    .derived
                    .relation(p.as_str())
                    .is_some_and(|r| r.contains(&tuple))
                {
                    continue; // already restored by an earlier propagation
                }
                let mut found = false;
                for &r in rules.by_head.get(&p).into_iter().flatten() {
                    let bp = &rules.bound_plans[r];
                    let Some(mut frame) = bind_head(bp, &tuple) else {
                        continue;
                    };
                    let view = FactView::total(edb, &self.derived);
                    exec(bp, 0, &view, &mut frame, &mut |_| {
                        found = true;
                        Ok(())
                    })?;
                    if found {
                        break;
                    }
                }
                if found {
                    let before = self
                        .derived
                        .relation(p.as_str())
                        .map_or(0, Relation::high_water);
                    if self.derived.insert(&p, tuple)? {
                        stats.rederived += 1;
                        let entry = reinserted.entry(p.clone()).or_insert((before, before));
                        entry.1 = before + 1;
                    }
                }
            }
            if !reinserted.is_empty() {
                // Propagation from reinserted tuples can only re-add
                // deleted facts (see module docs); count them as rederived.
                stats.rederived += self.propagate(edb, &reinserted)?;
            }
        }
        Ok(stats)
    }

    /// Applies a rule-set change whose new rule heads `head`: drop the
    /// extensions of `head` and everything depending on it, re-derive just
    /// those predicates with the surviving relations as seed, rebuild the
    /// rule-derived parts, and bump the generation of each invalidated
    /// stratum. `plan` must be the compilation of the new `idb`.
    pub fn rules_changed(
        &mut self,
        edb: &Edb,
        idb: &Idb,
        plan: Arc<ProgramPlan>,
        head: &str,
    ) -> Result<MaintainStats> {
        let mut stats = MaintainStats::default();
        let rules = RuleParts::new(idb, plan)?;
        let graph = DependencyGraph::build(idb);
        // Affected under the *new* dependency graph, so a rule that adds a
        // dependency invalidates through it.
        let mut affected: Vec<Sym> = Vec::new();
        for q in idb.predicates() {
            if q.as_str() == head || graph.depends_on(q.as_str(), head) {
                affected.push(q);
            }
        }
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
        let strata = rules.strat.len();
        self.gens.resize(strata, 0);
        let mut bumped = vec![false; strata];
        for p in &affected {
            if let Some(s) = rules.strat.stratum_of(p.as_str()) {
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
                b.relation(p.as_str())
                    .is_some_and(|other| rel.iter().all(|t| other.contains(t)))
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
        // reach(a, b) dies for good; reach(a, d) was doomed but rederives
        // through c.
        assert!(stats.derived_deleted >= 2);
        assert!(stats.rederived >= 1);
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
        let stats = s.rules_changed(&edb, &idb2, plan2, "loop").unwrap();
        assert_eq!(stats.derived_deleted, 0); // loop had no extension yet
        assert_eq!(s.derived().relation("reach").unwrap().len(), before_reach);
        assert_matches_fresh(&s, &edb, &idb2);
        // A rule on reach invalidates reach but leaves loop's work alone.
        let mut idb3 = idb2.clone();
        idb3.add_rule(qdk_logic::parser::parse_rule("reach(X, X) :- edge(X, Y).").unwrap())
            .unwrap();
        let plan3 = Arc::new(ProgramPlan::compile_with_stats(&idb3, edb.stats()));
        let stats = s.rules_changed(&edb, &idb3, plan3, "reach").unwrap();
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
        s.rules_changed(&edb, &idb2, plan2, "b").unwrap();
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
