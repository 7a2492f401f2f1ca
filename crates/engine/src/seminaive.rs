//! Semi-naive bottom-up evaluation.
//!
//! The standard deductive-database optimization: after the first round,
//! a rule need only be re-fired with at least one recursive body occurrence
//! restricted to the *delta* (facts new in the previous round), because any
//! wholly-old instantiation was already derived. This avoids naive
//! evaluation's rederivation of the entire fact set each round; the P1
//! benchmark measures the separation growing with EDB size.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::bindings::{fire_rule_batch, DeltaRanges, DerivedFacts, RuleTask};
use crate::error::Result;
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{ProgramPlan, RulePlan, Step};
use qdk_logic::Sym;
use qdk_storage::{Edb, Relation};

/// A delta scan is split across workers only when the delta relation has at
/// least this many tuples; smaller scans are not worth a second task.
/// Shared with the QSQ scheduler so both strategies chunk identically.
pub(crate) const DELTA_CHUNK_MIN: usize = 64;

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
    let obs = &opts.sink;
    let strat = plan.analysis(idb, obs).stratification()?;
    let mut derived = seed;
    let gov = opts.governor();
    let pool = opts.pool();
    let probes0 = if obs.enabled() {
        edb.access_stats()
    } else {
        (0, 0)
    };
    let composite0 = if obs.enabled() {
        edb.composite_probes()
    } else {
        0
    };
    for (si, stratum) in strat.strata().iter().enumerate() {
        let rules: Vec<&RulePlan> = plan
            .plans()
            .iter()
            .filter(|rp| {
                let head = &rp.compiled.head.pred;
                stratum.contains(head) && relevant.is_none_or(|r| r.contains(head))
            })
            .collect();
        if rules.is_empty() {
            continue;
        }

        // Per rule, the body occurrences that can read a delta: positive
        // literals over predicates of this stratum. Computed once per
        // stratum, not once per round.
        let recursive_occurrences: Vec<Vec<usize>> = rules
            .iter()
            .map(|rp| {
                rp.compiled
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(i, lit)| {
                        lit.positive
                            && !rp.compiled.source.body[*i].is_builtin()
                            && stratum.contains(&lit.atom.pred)
                    })
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        // Delta-first plan variants, one per (rule, recursive occurrence):
        // the delta is the smallest input by construction, so the variant
        // re-plans the body with that occurrence as the outermost scan —
        // every firing is then bounded by the delta size, and the scan is
        // always eligible for order-preserving chunked parallelism.
        let delta_plans: Vec<Vec<RulePlan>> = rules
            .iter()
            .zip(&recursive_occurrences)
            .map(|(rp, occs)| {
                occs.iter()
                    .map(|&i| rp.delta_variant(i, plan.stats()))
                    .collect()
            })
            .collect();

        // The head predicates of this stratum's rules, deduplicated: the
        // delta after each round is the set of id ranges by which their
        // relations grew. New facts always take ids above a relation's
        // high-water mark, so "the facts new last round" is always a tail
        // id window of each relation — no second store, subtract pass, or
        // per-round index build is ever needed.
        let mut head_preds: Vec<&Sym> = Vec::new();
        for rp in &rules {
            let p = &rp.compiled.head.pred;
            if !head_preds.contains(&p) {
                head_preds.push(p);
            }
        }

        let _stratum_span = obs.span("stratum", si as u64);

        // Round 0: fire every rule against the current totals (facts from
        // lower strata and the EDB). The new facts form the first delta;
        // firings exclude already-derived tuples at the emit site.
        let before = head_marks(&derived, &head_preds);
        let round0_span = obs.span("iteration", 0);
        let firings0 = gov.work_spent();
        let tasks: Vec<RuleTask<'_>> = rules.iter().map(|&rp| RuleTask::total(rp)).collect();
        let added = fire_rule_batch(&pool, &gov, edb, &mut derived, None, &tasks)?;
        gov.add_facts(added)?;
        if obs.enabled() {
            obs.counter("rule_firings", gov.work_spent().saturating_sub(firings0));
            obs.counter("delta_facts", added as u64);
        }
        drop(round0_span);
        let mut delta = delta_ranges(&derived, &head_preds, &before);
        let mut round = 1u64;

        // Subsequent rounds: only instantiations touching the delta.
        while !delta.is_empty() {
            let _iter_span = obs.span("iteration", round);
            let mut tasks: Vec<RuleTask<'_>> = Vec::new();
            for (r, (rp, occurrences)) in rules.iter().zip(&recursive_occurrences).enumerate() {
                // For each body occurrence of a predicate in this stratum
                // with new facts, fire the delta-first variant with that
                // occurrence reading the delta window — split across
                // workers when the scan is large (the variant's delta
                // occurrence is always the outermost scan, so chunk
                // concatenation preserves scan order).
                for (j, &i) in occurrences.iter().enumerate() {
                    let Some(&(start, end)) = delta.get(&rp.compiled.body[i].atom.pred) else {
                        continue; // no new facts for this occurrence
                    };
                    let dp = &delta_plans[r][j];
                    let len = end - start;
                    if len >= DELTA_CHUNK_MIN && !pool.is_sequential() && outermost_scan(dp, i) {
                        for (k, (lo, hi)) in pool.chunk_ranges(len).into_iter().enumerate() {
                            tasks.push(RuleTask::delta_chunk(
                                dp,
                                i,
                                (start + lo, start + hi),
                                k == 0,
                            ));
                        }
                    } else {
                        tasks.push(RuleTask::delta(dp, i));
                    }
                }
            }
            let before = head_marks(&derived, &head_preds);
            let firings0 = gov.work_spent();
            if obs.enabled() {
                let chunked = tasks.iter().filter(|t| t.is_chunk()).count();
                obs.counter("delta_tasks", tasks.len() as u64);
                obs.counter("delta_chunks", chunked as u64);
                let delta_size: usize = delta.values().map(|(lo, hi)| hi - lo).sum();
                obs.counter("delta_size", delta_size as u64);
            }
            let added = fire_rule_batch(&pool, &gov, edb, &mut derived, Some(&delta), &tasks)?;
            gov.add_facts(added)?;
            if obs.enabled() {
                obs.counter("rule_firings", gov.work_spent().saturating_sub(firings0));
                obs.counter("delta_facts", added as u64);
            }
            delta = delta_ranges(&derived, &head_preds, &before);
            round += 1;
        }
    }
    if obs.enabled() {
        let (p, s) = edb.access_stats();
        let (dp, ds) = derived.iter().fold((0, 0), |(p, s), (_, r)| {
            (p + r.index_probes(), s + r.full_scans())
        });
        obs.counter("index_probes", p.saturating_sub(probes0.0) + dp);
        obs.counter("full_scans", s.saturating_sub(probes0.1) + ds);
        let dc: u64 = derived.iter().map(|(_, r)| r.composite_probes()).sum();
        obs.counter(
            "composite_probes",
            edb.composite_probes().saturating_sub(composite0) + dc,
        );
    }
    Ok(derived)
}

/// Current row-id high-water mark of each head predicate's derived
/// relation (0 if absent): the start of the ids the next round appends.
pub(crate) fn head_marks(derived: &DerivedFacts, head_preds: &[&Sym]) -> Vec<usize> {
    head_preds
        .iter()
        .map(|p| derived.relation(p.as_str()).map_or(0, Relation::high_water))
        .collect()
}

/// The id ranges by which each head relation grew past its recorded
/// `before` high-water mark — the next round's delta.
pub(crate) fn delta_ranges(
    derived: &DerivedFacts,
    head_preds: &[&Sym],
    before: &[usize],
) -> DeltaRanges {
    let mut ranges = DeltaRanges::default();
    for (p, &b) in head_preds.iter().zip(before) {
        let now = derived.relation(p.as_str()).map_or(0, Relation::high_water);
        if now > b {
            ranges.insert((*p).clone(), (b, now));
        }
    }
    ranges
}

/// True when occurrence `i` is the plan's outermost scan, so chunking its
/// window across workers concatenates to the sequential visit order.
pub(crate) fn outermost_scan(rp: &RulePlan, i: usize) -> bool {
    matches!(rp.steps.first(), Some(Step::Scan { occurrence, .. }) if *occurrence == i)
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
