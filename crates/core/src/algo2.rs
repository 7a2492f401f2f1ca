//! Algorithm 2 (§5.3, Figures 2–3): knowledge answers in the general
//! case.
//!
//! Entry point that always runs over the §5.2-transformed rules (per the
//! options' [`crate::TransformPolicy`]) with tag bounding and
//! typing-preserving identification enabled. This is what
//! [`crate::describe::describe`] dispatches to when the subject involves
//! recursion; calling it on a non-recursive subject is harmless (the
//! transformation leaves such predicates alone and the typing check never
//! triggers on conforming trees). Like every `&Idb` entry point it builds
//! a [`crate::PreparedIdb`] for the one call.

use crate::config::DescribeOptions;
use crate::describe::{self, Describe};
use crate::error::Result;
use crate::prepared::PreparedIdb;
use crate::DescribeAnswer;
use qdk_engine::Idb;

/// Runs Algorithm 2: transformation + tags + typing preservation.
pub fn run(idb: &Idb, query: &Describe, opts: &DescribeOptions) -> Result<DescribeAnswer> {
    query.validate(idb)?;
    describe::run(PreparedIdb::for_call(idb, opts).rules()?, query, true, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformPolicy;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    fn prior_idb() -> Idb {
        idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).")
    }

    #[test]
    fn example6_terminates_without_budget() {
        let q = Describe::new(
            parse_atom("prior(X, Y)").unwrap(),
            parse_body("prior(databases, Y)").unwrap(),
        );
        let a = run(&prior_idb(), &q, &DescribeOptions::paper()).unwrap();
        assert_eq!(
            a.rendered(),
            vec![
                "prior(X, Y) ← (X = databases)",
                "prior(X, Y) ← prior(X, databases)",
            ]
        );
    }

    #[test]
    fn example8_terminates() {
        // The query that made Algorithm 1 hang (Example 8) terminates.
        let i = idb("p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).");
        let q = Describe::new(
            parse_atom("p(X, Y)").unwrap(),
            parse_body("r(a, Y)").unwrap(),
        );
        let a = run(&i, &q, &DescribeOptions::paper()).unwrap();
        assert!(!a.is_empty());
        // The direct derivation through q's exit rule identifies r(a, Y):
        // p(X, Y) ← … with X bound to a appears in some form.
        assert!(
            a.rendered()
                .iter()
                .any(|s| s.contains("(X = a)") || s.contains("r(a")),
            "{:?}",
            a.rendered()
        );
    }

    #[test]
    fn symmetric_reachability_question() {
        // The introduction's sixth query: "When x is reachable from y, is
        // it guaranteed that y is also reachable from x?" With the
        // symmetric rule present, describe reach(X, Y) where reach(Y, X)
        // yields the unconditional theorem reach(X, Y) ← (empty body).
        let i = idb("reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- reach(Y, X).");
        let q = Describe::new(
            parse_atom("reach(X, Y)").unwrap(),
            parse_body("reach(Y, X)").unwrap(),
        );
        let a = run(&i, &q, &DescribeOptions::paper()).unwrap();
        assert!(
            a.contains_rendered("reach(X, Y)"),
            "expected the unconditional theorem, got {:?}",
            a.rendered()
        );
    }

    #[test]
    fn symmetric_reachability_absent_without_rule() {
        // Without the symmetric rule the guarantee does not hold and no
        // unconditional theorem appears.
        let i = idb("reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).");
        let q = Describe::new(
            parse_atom("reach(X, Y)").unwrap(),
            parse_body("reach(Y, X)").unwrap(),
        );
        let a = run(&i, &q, &DescribeOptions::paper()).unwrap();
        assert!(!a.contains_rendered("reach(X, Y)"), "{:?}", a.rendered());
    }

    #[test]
    fn works_on_nonrecursive_subjects_too() {
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let q = Describe::new(parse_atom("honor(X)").unwrap(), vec![]);
        let a = run(&i, &q, &DescribeOptions::paper()).unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn artificial_and_modified_agree_up_to_step_naming() {
        let q = Describe::new(
            parse_atom("prior(X, Y)").unwrap(),
            parse_body("prior(databases, Y)").unwrap(),
        );
        let modified = run(&prior_idb(), &q, &DescribeOptions::paper()).unwrap();
        let artificial = run(
            &prior_idb(),
            &q,
            &DescribeOptions::paper().with_transform(TransformPolicy::AlwaysArtificial),
        )
        .unwrap();
        assert_eq!(modified.len(), artificial.len());
        // The artificial phrasing mentions the step predicate; the
        // modified one mentions prior itself.
        assert!(artificial.rendered().iter().any(|s| s.contains("t_prior")));
        assert!(modified.rendered().iter().all(|s| !s.contains("t_prior")));
    }
}
