//! IDB structural analysis: the paper's rule-shape requirements.
//!
//! §2.1 assumes that **all recursive IDB predicates are defined by
//! recursive rules that are strongly linear and typed with respect to
//! their head predicate**. Algorithm 2's transformation relies on that
//! shape. This module classifies rules; the §5.2 transformation
//! (`qdk-core`) refuses a rule base whose recursive rules have another
//! shape, or specially handles it — e.g. the §6 "untyped rules of certain
//! structure" extension.

use crate::graph::DependencyGraph;
use qdk_logic::Rule;

/// Classification of one rule relative to the dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleShape {
    /// No body predicate is mutually dependent with the head.
    NonRecursive,
    /// Recursive with exactly one body occurrence of the head predicate
    /// and no other mutually-dependent body predicate (§2.1's *strongly
    /// linear*).
    StronglyLinear,
    /// Recursive, exactly one mutually-recursive body occurrence, but that
    /// occurrence is not the head predicate itself (linear but not
    /// strongly linear; §2.1 notes these can be rewritten).
    Linear,
    /// More than one mutually-recursive body occurrence.
    NonLinear,
}

/// Classifies a rule (§2.1 definitions).
pub fn classify_rule(rule: &Rule, graph: &DependencyGraph) -> RuleShape {
    let head = rule.head.pred.as_str();
    let mut mutual = 0usize;
    let mut head_occurrences = 0usize;
    for atom in rule.body_db_atoms() {
        if atom.pred == rule.head.pred {
            head_occurrences += 1;
            mutual += 1;
        } else if graph.mutually_dependent(head, atom.pred.as_str()) {
            mutual += 1;
        }
    }
    match (mutual, head_occurrences) {
        (0, _) => RuleShape::NonRecursive,
        (1, 1) => RuleShape::StronglyLinear,
        (1, 0) => RuleShape::Linear,
        _ => RuleShape::NonLinear,
    }
}

/// True if the rule is recursive (head mutually dependent with some body
/// predicate).
pub fn is_recursive_rule(rule: &Rule, graph: &DependencyGraph) -> bool {
    classify_rule(rule, graph) != RuleShape::NonRecursive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idb::Idb;
    use qdk_logic::parser::parse_program;

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    #[test]
    fn prior_rules_classify_as_paper_says() {
        let i = idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).");
        let g = DependencyGraph::build(&i);
        assert_eq!(classify_rule(&i.rules()[0], &g), RuleShape::NonRecursive);
        assert_eq!(classify_rule(&i.rules()[1], &g), RuleShape::StronglyLinear);
    }

    #[test]
    fn mutual_recursion_is_linear_not_strongly_linear() {
        let i = idb("even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).");
        let g = DependencyGraph::build(&i);
        assert_eq!(classify_rule(&i.rules()[1], &g), RuleShape::Linear);
        assert_eq!(classify_rule(&i.rules()[2], &g), RuleShape::Linear);
    }

    #[test]
    fn doubly_recursive_rule_is_nonlinear() {
        let i = idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prior(X, Z), prior(Z, Y).");
        let g = DependencyGraph::build(&i);
        assert_eq!(classify_rule(&i.rules()[1], &g), RuleShape::NonLinear);
    }

    #[test]
    fn example8_q_rules() {
        let i = idb("p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).");
        let g = DependencyGraph::build(&i);
        assert_eq!(classify_rule(&i.rules()[0], &g), RuleShape::NonRecursive);
        assert_eq!(classify_rule(&i.rules()[1], &g), RuleShape::StronglyLinear);
        assert_eq!(classify_rule(&i.rules()[2], &g), RuleShape::NonRecursive);
    }
}
