//! Naive bottom-up evaluation — the reference evaluator.
//!
//! The textbook baseline: fire every rule against the full current fact
//! set until a fixpoint is reached. Correct, simple — and it re-derives
//! every fact on every iteration, which is what semi-naive evaluation
//! avoids. Not a retrieve strategy: it is the reference the engine's
//! agreement tests compare the strategies against, and the baseline
//! column of the P1a performance experiment.

use crate::bindings::{fire_rule_batch, DerivedFacts, RuleTask};
use crate::error::Result;
use crate::idb::Idb;
use crate::plan::ProgramPlan;
use qdk_logic::governor::{Governor, ResourceLimits};
use qdk_logic::obs::ObsSink;
use qdk_storage::Edb;

/// Computes the least fixpoint of the IDB over the EDB naively, stratum by
/// stratum, sequentially and without resource limits. `plan` must be the
/// compilation of `idb`; its analysis supplies the strata (checked
/// against their least-fixpoint definition in `graph`'s tests). Returns
/// all derived facts.
///
/// Each iteration fires every rule of the stratum against the facts known
/// at the iteration's start (jacobi-style) and merges the batches in rule
/// order.
pub fn eval(edb: &Edb, idb: &Idb, plan: &ProgramPlan) -> Result<DerivedFacts> {
    let strata = plan.analysis(idb, &ObsSink::disabled()).strata()?;
    let mut derived = DerivedFacts::new();
    let gov = Governor::new(ResourceLimits::default());
    for stratum in strata.rules() {
        let tasks: Vec<RuleTask<'_>> = stratum
            .iter()
            .map(|&r| RuleTask::total(&plan.plans()[r]))
            .collect();
        while fire_rule_batch(&gov, edb, &mut derived, &tasks)? > 0 {}
    }
    Ok(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_program};
    use qdk_storage::Value;

    fn chain_edb(n: usize) -> Edb {
        let mut edb = Edb::new();
        edb.declare("prereq", &["Ctitle", "Ptitle"]).unwrap();
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

    fn eval(edb: &Edb, idb: &Idb) -> Result<DerivedFacts> {
        super::eval(edb, idb, &ProgramPlan::compile_with_stats(idb, edb.stats()))
    }

    #[test]
    fn transitive_closure_of_chain() {
        let edb = chain_edb(5);
        let derived = eval(&edb, &prior_idb()).unwrap();
        // A chain of 5 edges has 5+4+3+2+1 = 15 closure pairs.
        assert_eq!(derived.relation("prior").unwrap().len(), 15);
    }

    #[test]
    fn nonrecursive_rules_fire_once() {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "M", "G"]).unwrap();
        edb.insert_fact(&parse_atom("student(ann, math, 3.9)").unwrap())
            .unwrap();
        edb.insert_fact(&parse_atom("student(bob, math, 3.5)").unwrap())
            .unwrap();
        let idb = Idb::from_rules(
            parse_program("honor(X) :- student(X, Y, Z), Z > 3.7.")
                .unwrap()
                .rules,
        )
        .unwrap();
        let derived = eval(&edb, &idb).unwrap();
        let honor = derived.relation("honor").unwrap();
        assert_eq!(honor.len(), 1);
        assert!(honor.contains(&qdk_storage::Tuple::new(vec![Value::sym("ann")])));
    }

    #[test]
    fn stratified_negation_evaluates_lower_first() {
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
        let derived = eval(&edb, &idb).unwrap();
        let ordinary = derived.relation("ordinary").unwrap();
        assert_eq!(ordinary.len(), 1);
        assert!(ordinary.contains(&qdk_storage::Tuple::new(vec![Value::sym("bob")])));
    }

    #[test]
    fn empty_idb_derives_nothing() {
        let edb = chain_edb(3);
        let derived = eval(&edb, &Idb::new()).unwrap();
        assert!(derived.is_empty());
    }

    #[test]
    fn cycle_in_data_terminates() {
        // prereq cycle: closure is finite, evaluation must terminate.
        let mut edb = Edb::new();
        edb.declare("prereq", &["C", "P"]).unwrap();
        for f in ["prereq(a, b)", "prereq(b, c)", "prereq(c, a)"] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let derived = eval(&edb, &prior_idb()).unwrap();
        // All 9 ordered pairs are in the closure of a 3-cycle.
        assert_eq!(derived.relation("prior").unwrap().len(), 9);
    }
}
