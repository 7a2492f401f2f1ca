//! Semi-naive bottom-up evaluation, and the round loop every bottom-up
//! fixpoint in the engine runs.
//!
//! The standard deductive-database optimization: after the first round,
//! a rule need only be re-fired with at least one recursive body occurrence
//! restricted to the *delta* (facts new in the previous round), because any
//! wholly-old instantiation was already derived. This avoids naive
//! evaluation's rederivation of the entire fact set each round; the P1
//! benchmark measures the separation growing with EDB size.
//!
//! `Fixpoint::run` is the one semi-naive round loop: semi-naive strata
//! ([`eval`]), QSQ nets ([`crate::qsq`]) and maintenance propagation
//! ([`crate::maintain`]) all fire their rules through it, so governor
//! accounting and the `iteration` / `delta_*` observability are the same
//! for all three.

use crate::bindings::{fire_rule_batch, DeltaRanges, DerivedFacts, RuleTask};
use crate::error::Result;
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan};
use qdk_logic::governor::Governor;
use qdk_logic::obs::ObsSink;
use qdk_logic::Sym;
use qdk_storage::{Edb, Relation};

/// One rule a [`Fixpoint`] fires: its plan over the totals, and for each
/// body occurrence that can read a delta, the delta-first re-plan that
/// scans that occurrence outermost.
pub(crate) type RoundRule<'p> = (&'p RulePlan, &'p [(usize, RulePlan)]);

/// Where [`Fixpoint::run`] starts.
pub(crate) enum Start {
    /// Round 0 fires every rule against the totals; the facts it adds are
    /// the first delta (semi-naive strata and QSQ nets).
    Totals,
    /// These id windows are the first delta (maintenance propagation).
    Delta(DeltaRanges),
}

/// The state one bottom-up evaluation shares across every [`Fixpoint::run`]
/// it makes: the governor, the observability sink, and the probe counts
/// [`Fixpoint::finish`] reports against.
pub(crate) struct Fixpoint<'a> {
    edb: &'a Edb,
    gov: Governor,
    obs: &'a ObsSink,
    probes0: (u64, u64),
}

impl<'a> Fixpoint<'a> {
    /// Starts an evaluation over `edb` under `opts`.
    pub(crate) fn new(edb: &'a Edb, opts: &'a EvalOptions) -> Self {
        let obs = &opts.sink;
        let probes0 = if obs.enabled() {
            edb.access_stats()
        } else {
            (0, 0)
        };
        Fixpoint {
            edb,
            gov: opts.governor(),
            obs,
            probes0,
        }
    }

    /// Runs semi-naive rounds of `rules` over `derived` until no head
    /// relation grows; returns how many facts were added.
    ///
    /// A round fires, rule by rule and occurrence by occurrence, the delta
    /// variant of every occurrence whose predicate has new facts. The next
    /// delta is the id range by which each head relation grew: new facts
    /// always take ids above a relation's high-water mark, so the delta
    /// never needs a store of its own.
    pub(crate) fn run(
        &self,
        rules: &[RoundRule<'_>],
        derived: &mut DerivedFacts,
        start: Start,
    ) -> Result<usize> {
        // The relations a round can grow. A head that is also a declared
        // stored predicate is left out: scans of it read the EDB, which no
        // round changes.
        let mut heads: Vec<&Sym> = Vec::new();
        for (rp, _) in rules {
            let p = &rp.compiled.head.pred;
            if !heads.contains(&p) && !self.edb.is_edb_predicate(p.as_str()) {
                heads.push(p);
            }
        }
        let mut added = 0;
        let mut delta = match start {
            Start::Delta(delta) => delta,
            Start::Totals => {
                let before = head_marks(derived, &heads);
                let _round0 = self.obs.span("iteration", 0);
                let tasks: Vec<RuleTask<'_>> =
                    rules.iter().map(|(rp, _)| RuleTask::total(rp)).collect();
                added += self.fire(derived, &tasks)?;
                delta_ranges(derived, &heads, &before)
            }
        };
        let mut round = 1u64;
        while !delta.is_empty() {
            let _span = self.obs.span("iteration", round);
            let mut tasks: Vec<RuleTask<'_>> = Vec::new();
            for (rp, occurrences) in rules {
                for (i, dp) in occurrences.iter() {
                    // An occurrence with no new facts has nothing to fire.
                    if delta.contains_key(&rp.compiled.body[*i].atom.pred) {
                        tasks.push(RuleTask::delta(dp, *i, &delta));
                    }
                }
            }
            if self.obs.enabled() {
                self.obs.counter("delta_tasks", tasks.len() as u64);
                let delta_size: usize = delta.values().map(|(lo, hi)| hi - lo).sum();
                self.obs.counter("delta_size", delta_size as u64);
            }
            let before = head_marks(derived, &heads);
            added += self.fire(derived, &tasks)?;
            delta = delta_ranges(derived, &heads, &before);
            round += 1;
        }
        Ok(added)
    }

    /// Fires one round's tasks, charging the governor for the new facts
    /// and reporting the round's firings and facts.
    fn fire(&self, derived: &mut DerivedFacts, tasks: &[RuleTask<'_>]) -> Result<usize> {
        let firings0 = self.gov.work_spent();
        let added = fire_rule_batch(&self.gov, self.edb, derived, tasks)?;
        self.gov.add_facts(added)?;
        if self.obs.enabled() {
            let firings = self.gov.work_spent().saturating_sub(firings0);
            self.obs.counter("rule_firings", firings);
            self.obs.counter("delta_facts", added as u64);
        }
        Ok(added)
    }

    /// Reports the index probes and full scans the evaluation spent, in the EDB and in `derived`.
    pub(crate) fn finish(&self, derived: &DerivedFacts) {
        if !self.obs.enabled() {
            return;
        }
        let (p, s) = self.edb.access_stats();
        let (dp, ds) = derived.iter().fold((0, 0), |(p, s), (_, r)| {
            (p + r.index_probes(), s + r.full_scans())
        });
        self.obs
            .counter("index_probes", p.saturating_sub(self.probes0.0) + dp);
        self.obs
            .counter("full_scans", s.saturating_sub(self.probes0.1) + ds);
    }
}

/// The row-id high-water mark of each head relation (0 if absent): the
/// start of the ids the next round appends.
fn head_marks(derived: &DerivedFacts, heads: &[&Sym]) -> Vec<usize> {
    heads
        .iter()
        .map(|p| derived.relation(p.as_str()).map_or(0, Relation::high_water))
        .collect()
}

/// The id ranges by which each head relation grew past its `before`
/// mark — the next round's delta.
fn delta_ranges(derived: &DerivedFacts, heads: &[&Sym], before: &[usize]) -> DeltaRanges {
    let mut delta = DeltaRanges::default();
    for (p, &b) in heads.iter().zip(before) {
        let now = derived.relation(p.as_str()).map_or(0, Relation::high_water);
        if now > b {
            delta.insert((*p).clone(), (b, now));
        }
    }
    delta
}

/// Computes the least fixpoint of the compiled program over the EDB
/// semi-naively, stratum by stratum. `plan` must be the compilation of
/// `idb` (the knowledge-base layer caches it).
///
/// `relevant` restricts evaluation to the rules of the listed head
/// predicates (the goal-directed callers skip irrelevant rules this way).
/// `seed` is the derived store to start from: relations already in it are
/// treated as settled lower-stratum input, and only predicates passing the
/// `relevant` filter are (re)derived into it — the incremental-maintenance
/// layer rebuilds just the strata a rule change touched this way; everyone
/// else passes [`DerivedFacts::new`].
pub fn eval(
    edb: &Edb,
    idb: &Idb,
    plan: &ProgramPlan,
    relevant: Option<&[Sym]>,
    seed: DerivedFacts,
    opts: EvalOptions,
) -> Result<DerivedFacts> {
    let strata = plan.analysis(idb, &opts.sink).strata()?;
    let mut derived = seed;
    let fixpoint = Fixpoint::new(edb, &opts);
    for (si, stratum) in strata.rules().iter().enumerate() {
        // Per rule of the stratum, a delta-first variant for each body
        // occurrence that can read a delta: a positive literal over a
        // predicate of this stratum.
        let variants: Vec<(&RulePlan, Vec<(usize, RulePlan)>)> = stratum
            .iter()
            .map(|&r| &plan.plans()[r])
            .filter(|rp| relevant.is_none_or(|keep| keep.contains(&rp.compiled.head.pred)))
            .map(|rp| {
                let occurrences = rp.compiled.body.iter().enumerate().filter(|(i, lit)| {
                    lit.positive
                        && !rp.compiled.source.body[*i].is_builtin()
                        && strata.stratum_of(lit.atom.pred.as_str()) == Some(si)
                });
                let deltas = occurrences
                    .map(|(i, _)| (i, rp.delta_variant(i, plan.stats())))
                    .collect();
                (rp, deltas)
            })
            .collect();
        if variants.is_empty() {
            continue;
        }
        let rules: Vec<RoundRule<'_>> = variants.iter().map(|(rp, d)| (*rp, &d[..])).collect();
        let _stratum_span = opts.sink.span("stratum", si as u64);
        fixpoint.run(&rules, &mut derived, Start::Totals)?;
    }
    fixpoint.finish(&derived);
    Ok(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use qdk_logic::governor::{CancelToken, Resource, ResourceLimits};
    use qdk_logic::parser::{parse_atom, parse_program};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn chain_edb(n: usize) -> Edb {
        let mut edb = Edb::new();
        edb.declare("prereq", &["C", "P"]).unwrap();
        for i in 0..n {
            edb.insert_fact(&parse_atom(&format!("prereq(c{}, c{})", i + 1, i)).unwrap())
                .unwrap();
        }
        edb
    }

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

    /// Compiles `idb` and runs the semi-naive evaluator from an empty seed.
    fn run(
        edb: &Edb,
        idb: &Idb,
        relevant: Option<&[Sym]>,
        opts: EvalOptions,
    ) -> Result<DerivedFacts> {
        let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
        eval(edb, idb, &plan, relevant, DerivedFacts::new(), opts)
    }

    fn closure(edb: &Edb, idb: &Idb) -> DerivedFacts {
        run(edb, idb, None, EvalOptions::default()).unwrap()
    }

    /// The naive reference evaluator's fixpoint.
    fn reference(edb: &Edb, idb: &Idb) -> DerivedFacts {
        let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
        naive::eval(edb, idb, &plan).unwrap()
    }

    fn same_facts(a: &DerivedFacts, b: &DerivedFacts) -> bool {
        if a.len() != b.len() {
            return false;
        }
        a.iter().all(|(p, rel)| {
            b.relation(p.as_str())
                .is_some_and(|other| rel.iter().all(|t| other.contains(t)))
        })
    }

    #[test]
    fn agrees_with_naive_on_chain() {
        let edb = chain_edb(8);
        let idb = prior_idb();
        let n = reference(&edb, &idb);
        let s = closure(&edb, &idb);
        assert!(same_facts(&n, &s));
        assert_eq!(s.relation("prior").unwrap().len(), 36);
    }

    #[test]
    fn agrees_with_naive_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..10 {
            let mut edb = Edb::new();
            edb.declare("prereq", &["C", "P"]).unwrap();
            let nodes = 8;
            for _ in 0..15 {
                let a = rng.gen_range(0..nodes);
                let b = rng.gen_range(0..nodes);
                edb.insert_fact(&parse_atom(&format!("prereq(n{a}, n{b})")).unwrap())
                    .unwrap();
            }
            let idb = prior_idb();
            let n = reference(&edb, &idb);
            let s = closure(&edb, &idb);
            assert!(same_facts(&n, &s), "case {case}");
        }
    }

    #[test]
    fn agrees_on_mutual_recursion() {
        let mut edb = Edb::new();
        edb.declare("succ", &["A", "B"]).unwrap();
        edb.declare("zero", &["A"]).unwrap();
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
        let n = reference(&edb, &idb);
        let s = closure(&edb, &idb);
        assert!(same_facts(&n, &s));
        assert_eq!(s.relation("even").unwrap().len(), 4); // n0, n2, n4, n6
        assert_eq!(s.relation("odd").unwrap().len(), 3); // n1, n3, n5
    }

    #[test]
    fn agrees_with_negation() {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "M", "G"]).unwrap();
        edb.insert_fact(&parse_atom("student(ann, math, 3.9)").unwrap())
            .unwrap();
        edb.insert_fact(&parse_atom("student(bob, math, 3.5)").unwrap())
            .unwrap();
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 ordinary(X) :- student(X, Y, Z), not honor(X).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let n = reference(&edb, &idb);
        let s = closure(&edb, &idb);
        assert!(same_facts(&n, &s));
    }

    #[test]
    fn delta_rounds_terminate_on_cyclic_data() {
        let mut edb = Edb::new();
        edb.declare("prereq", &["C", "P"]).unwrap();
        for f in ["prereq(a, b)", "prereq(b, a)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let s = closure(&edb, &prior_idb());
        assert_eq!(s.relation("prior").unwrap().len(), 4);
    }

    #[test]
    fn restricted_matches_full_on_relevant_preds() {
        let edb = chain_edb(5);
        let idb = Idb::from_rules(
            parse_program(
                "prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
                 other(X) :- prereq(X, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let full = closure(&edb, &idb);
        let restricted = run(
            &edb,
            &idb,
            Some(&[Sym::new("prior")]),
            EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(
            full.relation("prior").unwrap().len(),
            restricted.relation("prior").unwrap().len()
        );
        assert!(restricted.relation("other").is_none());
    }

    /// Column indexes are built only where a probe asks: the unbound
    /// closure scans `prereq` in its exit rule and probes it on the join
    /// column in its delta rule, and reads `prior` only through delta
    /// windows and the dedup presence check — so `prior` ends with no
    /// column index and `prereq` with exactly its join column's.
    #[test]
    fn an_unbound_closure_indexes_only_the_probed_column() {
        let edb = chain_edb(130);
        let s = closure(&edb, &prior_idb());
        let prior = s.relation("prior").unwrap();
        assert_eq!(prior.len(), 130 * 131 / 2);
        assert_eq!(prior.indexed_columns(), Vec::<usize>::new());
        let prereq = edb.relation("prereq").unwrap();
        assert_eq!(prereq.indexed_columns(), vec![1]);
    }

    fn exhausted(opts: EvalOptions) -> qdk_logic::governor::Exhausted {
        match run(&chain_edb(30), &prior_idb(), None, opts).unwrap_err() {
            crate::EngineError::Exhausted(e) => e,
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_aborts_runaway() {
        let e = exhausted(EvalOptions::with_limits(
            ResourceLimits::default().with_work_budget(3),
        ));
        assert_eq!(e.resource, Resource::WorkBudget);
        assert_eq!(e.limit, 3);
        assert!(e.spent > e.limit);
    }

    #[test]
    fn fact_limit_aborts_runaway() {
        let e = exhausted(EvalOptions::with_limits(
            ResourceLimits::default().with_max_facts(10),
        ));
        assert_eq!(e.resource, Resource::Facts);
        assert_eq!(e.limit, 10);
    }

    #[test]
    fn cancel_token_aborts_evaluation() {
        let token = CancelToken::new();
        token.cancel();
        // The governor polls on its first tick, so a pre-cancelled token
        // stops evaluation before any work happens.
        let e = exhausted(EvalOptions::default().with_cancel(token));
        assert_eq!(e.resource, Resource::Cancelled);
    }
}
