//! Algorithm 1 (§4, Figure 1): knowledge answers in the non-recursive
//! case.
//!
//! This is a thin entry point over the shared derivation-tree enumeration
//! of [`crate::describe::run`]: no rule transformation and no typing
//! checks — exactly the flowchart of Figure 1. On subjects that are
//! recursive (or depend on a recursive predicate) this algorithm exhibits
//! the §5.1 failure modes; [`run_unchecked`] exists precisely to
//! demonstrate them under a budget or depth bound (Examples 6–8), while
//! [`run`] rejects such subjects the way §4 scopes the algorithm.

use crate::config::DescribeOptions;
use crate::describe::{self, Describe};
use crate::error::{DescribeError, Result};
use crate::transform::TransformedIdb;
use crate::DescribeAnswer;
use qdk_engine::graph::DependencyGraph;
use qdk_engine::Idb;

/// Runs Algorithm 1. Errors with [`DescribeError::UnsupportedIdb`] if the
/// subject is recursive or depends on a recursive predicate (§4's scope).
pub fn run(idb: &Idb, query: &Describe, opts: &DescribeOptions) -> Result<DescribeAnswer> {
    query.validate(idb)?;
    let graph = DependencyGraph::build(idb);
    if graph.involves_recursion(query.subject.pred.as_str()) {
        return Err(DescribeError::UnsupportedIdb(format!(
            "Algorithm 1 requires a non-recursive subject; {} is or depends on a recursive predicate (use Algorithm 2)",
            query.subject.pred
        )));
    }
    let tidb = TransformedIdb::untransformed(idb);
    describe::run(&tidb, query, false, opts)
}

/// Runs Algorithm 1 without the non-recursion scope check — the §5.1
/// demonstrations. Set a work budget or deadline (divergence soft-stops
/// with a [`crate::Completeness::Truncated`] answer carrying the
/// exhaustion diagnostic) or a depth bound (a finite prefix of the
/// infinite answer family is returned, also tagged truncated) in `opts`.
pub fn run_unchecked(
    idb: &Idb,
    query: &Describe,
    opts: &DescribeOptions,
) -> Result<DescribeAnswer> {
    query.validate(idb)?;
    let tidb = TransformedIdb::untransformed(idb);
    describe::run(&tidb, query, false, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    fn prior_idb() -> Idb {
        idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).")
    }

    #[test]
    fn rejects_recursive_subject() {
        let q = Describe::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
        let err = run(&prior_idb(), &q, &DescribeOptions::default()).unwrap_err();
        assert!(matches!(err, DescribeError::UnsupportedIdb(_)));
    }

    #[test]
    fn example6_divergence_demonstration_budget() {
        // §5.1: Algorithm 1 on Example 6 generates an infinite answer.
        // The work budget converts the divergence into a truncated answer
        // carrying the structured diagnostic — not an error, not silence.
        let q = Describe::new(
            parse_atom("prior(X, Y)").unwrap(),
            parse_body("prior(databases, Y)").unwrap(),
        );
        // The budget must be smaller than the (finite) guard-bounded walk,
        // so it trips mid-enumeration.
        let a = run_unchecked(
            &prior_idb(),
            &q,
            &DescribeOptions::default().with_work_budget(500),
        )
        .unwrap();
        let e = a.completeness.exhausted().expect("must be truncated");
        assert_eq!(e.resource, qdk_logic::governor::Resource::WorkBudget);
        assert_eq!(e.limit, 500);
    }

    #[test]
    fn example6_chain_family_prefix() {
        // With a depth bound instead, the chain family materializes:
        //   prior(X,Y) ← (X = databases)
        //   prior(X,Y) ← prereq(X, databases)
        //   prior(X,Y) ← prereq(X, Z1) ∧ prereq(Z1, databases)  …
        let q = Describe::new(
            parse_atom("prior(X, Y)").unwrap(),
            parse_body("prior(databases, Y)").unwrap(),
        );
        let a = run_unchecked(
            &prior_idb(),
            &q,
            &DescribeOptions::paper().with_max_depth(8),
        )
        .unwrap();
        assert!(a.contains_rendered("prior(X, Y) ← (X = databases)"));
        assert!(a.contains_rendered("prior(X, Y) ← prereq(X, databases)"));
        // The depth bound cut the infinite family: the answer says so.
        assert!(a.is_truncated());
        assert!(
            a.contains_rendered("prior(X, Y) ← prereq(X, Y1) ∧ prereq(Y1, databases)")
                || a.rendered()
                    .iter()
                    .any(|s| s.matches("prereq").count() == 2),
            "{:?}",
            a.rendered()
        );
        // Deeper bound ⇒ strictly more answers: the family is infinite.
        let deeper = run_unchecked(
            &prior_idb(),
            &q,
            &DescribeOptions::paper().with_max_depth(12),
        )
        .unwrap();
        assert!(deeper.len() > a.len());
    }

    #[test]
    fn example8_hangs_demonstration() {
        // §5.1 Example 8: p depends on recursive q; Algorithm 1 "hangs"
        // constructing an infinite derivation tree. The budget converts
        // the hang into an observable truncation.
        let i = idb("p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).");
        let q = Describe::new(
            parse_atom("p(X, Y)").unwrap(),
            parse_body("r(a, Y)").unwrap(),
        );
        let a = run_unchecked(&i, &q, &DescribeOptions::default().with_work_budget(500)).unwrap();
        let e = a.completeness.exhausted().expect("must be truncated");
        assert_eq!(e.resource, qdk_logic::governor::Resource::WorkBudget);
        assert!(e.spent > e.limit);
    }

    #[test]
    fn nonrecursive_subject_works() {
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let q = Describe::new(parse_atom("honor(X)").unwrap(), vec![]);
        let a = run(&i, &q, &DescribeOptions::default()).unwrap();
        assert_eq!(a.len(), 1);
    }
}
