//! The rule base, prepared once for the whole `describe` family.
//!
//! Everything `describe` does before it looks at a subject or a
//! hypothesis depends on the rules alone: the dependency analysis that
//! chooses between Algorithm 1 and Algorithm 2 (§4/§5), the §5.2
//! transformation, the compiled program whose slot maps standardize rules
//! apart, and the by-head rule index the tree enumerator resolves against.
//! A [`PreparedIdb`] is that work done once. Every describe-family
//! algorithm runs over it, so a caller that keeps one per rules generation
//! (the knowledge base does) pays for a whole-IDB pass when the rules
//! change, not per statement; the stateless `&Idb` entry points build one
//! per call.
//!
//! One preparation serves recursive and non-recursive subjects alike. The
//! transformation leaves the rules of non-recursive predicates `Ordinary`
//! and untouched, and a subject that involves no recursion can reach no
//! other rule, so Algorithm 1 runs over the transformed rule list exactly
//! as it would over the source (rule numbers in derivation traces index
//! the prepared list).

use crate::config::{DescribeOptions, TransformPolicy};
use crate::error::{DescribeError, Result};
use crate::transform::{transform_with, TransformedIdb};
use qdk_engine::graph::DependencyGraph;
use qdk_engine::Idb;
use qdk_logic::Sym;

/// An IDB analysed, transformed (§5.2) and compiled for `describe`.
/// Deliberately not `Clone`: it is as large as the rule base, and sharing
/// one means an `Arc`.
#[derive(Debug)]
pub struct PreparedIdb {
    policy: TransformPolicy,
    /// Dependency graph of the *source* rules.
    graph: DependencyGraph,
    /// The rules the enumerator runs: transformed per `policy`, or the
    /// source rules when the transformation refused them.
    rules: TransformedIdb,
    /// Why the transformation refused this rule base, if it did. Only a
    /// subject that involves recursion needs the transformation, so the
    /// error is kept here and raised for those subjects alone.
    unsupported: Option<DescribeError>,
    /// The source rules that negate a body literal, in rule order, each
    /// with its head. §3.2 defines `describe` over positive formulas, so
    /// a subject that reaches one of these rules has no answer.
    negating: Vec<(Sym, String)>,
}

impl PreparedIdb {
    /// Prepares `idb` under `policy`. Never fails: a rule base the §5.2
    /// transformation cannot handle still answers describes on its
    /// non-recursive predicates, and reports the refusal when a subject
    /// needs the transformation (see [`Self::rules`]).
    pub fn prepare(idb: &Idb, policy: TransformPolicy) -> PreparedIdb {
        let graph = DependencyGraph::build(idb);
        let (rules, unsupported) = match transform_with(idb, policy, &graph) {
            Ok(rules) => (rules, None),
            Err(e) => (TransformedIdb::untransformed(idb), Some(e)),
        };
        let negating = idb
            .rules()
            .iter()
            .filter(|r| r.body.iter().any(|l| !l.positive))
            .map(|r| (r.head.pred.clone(), r.to_string()))
            .collect();
        PreparedIdb {
            policy,
            graph,
            rules,
            unsupported,
            negating,
        }
    }

    /// [`Self::prepare`] for one stateless call under `opts`, inside the
    /// `transform` span — the cold path of the `&Idb` entry points.
    pub(crate) fn for_call(idb: &Idb, opts: &DescribeOptions) -> PreparedIdb {
        let _span = opts.sink.span("transform", 0);
        PreparedIdb::prepare(idb, opts.transform)
    }

    /// The transformation policy this preparation was built under. It,
    /// not the per-call options' policy, governs every run over `self`.
    pub fn policy(&self) -> TransformPolicy {
        self.policy
    }

    /// The dependency graph of the source rules.
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// The transformed rules, or the reason the transformation refused
    /// the rule base ([`DescribeError::UnsupportedIdb`]).
    pub fn rules(&self) -> Result<&TransformedIdb> {
        match &self.unsupported {
            Some(e) => Err(e.clone()),
            None => Ok(&self.rules),
        }
    }

    /// The rules to enumerate for a subject on `pred`, and whether typing
    /// preservation applies (Algorithm 2) — the §4/§5 dispatch. A subject
    /// whose rules reach a negated body literal is refused
    /// ([`DescribeError::UnsupportedIdb`], naming the first such rule):
    /// the enumeration would state the literal unnegated.
    pub fn rules_for_subject(&self, pred: &str) -> Result<(&TransformedIdb, bool)> {
        if let Some(rule) = self.negation_in_reach(pred) {
            return Err(DescribeError::UnsupportedIdb(format!(
                "describe is defined over positive rules, but this rule negates a body literal: {rule}"
            )));
        }
        if !self.graph.involves_recursion(pred) {
            return Ok((&self.rules, false));
        }
        Ok((self.rules()?, self.policy != TransformPolicy::None))
    }

    /// The first source rule (rendered) that negates a body literal among
    /// the rules of `pred` and of every predicate their bodies reach.
    fn negation_in_reach(&self, pred: &str) -> Option<&str> {
        if self.negating.is_empty() {
            return None;
        }
        let reach = self.graph.reachable_from(pred);
        self.negating
            .iter()
            .find(|(head, _)| reach.contains(head))
            .map(|(_, rule)| rule.as_str())
    }

    /// True if `pred` heads a rule of the source IDB (step predicates the
    /// transformation introduced are not subjects).
    pub fn defines(&self, pred: &Sym) -> bool {
        !self.rules.rule_indexes_for(pred).is_empty()
            && !self.rules.step_preds.values().any(|t| t == pred)
    }

    /// The subjects `describe *` asks: the source IDB's predicates in
    /// first-definition order, each with the arity of its rule heads (a
    /// name the rule base defines at several arities appears once per
    /// arity).
    pub fn subjects(&self) -> Vec<(Sym, usize)> {
        let plans = self.rules.program.plans();
        let mut subjects = Vec::new();
        for pred in self.rules.idb.predicates() {
            if !self.defines(&pred) {
                continue;
            }
            let first = subjects.len();
            for &ri in self.rules.rule_indexes_for(&pred) {
                let subject = (pred.clone(), plans[ri].compiled.head.args.len());
                if !subjects[first..].contains(&subject) {
                    subjects.push(subject);
                }
            }
        }
        subjects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_program;

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    #[test]
    fn subjects_are_the_source_predicates_in_order() {
        let i = idb("q(X, Y) :- r(X, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             p(X, Y) :- q(X, Z), r(Z, Y).\n\
             p(X) :- r(X, X).");
        let prep = PreparedIdb::prepare(&i, TransformPolicy::AlwaysArtificial);
        // t_q exists in the prepared rules but is not a subject.
        assert!(prep.rules().unwrap().step_preds.contains_key("q"));
        assert!(!prep.defines(&Sym::new("t_q")));
        let subjects: Vec<String> = prep
            .subjects()
            .into_iter()
            .map(|(p, arity)| format!("{p}/{arity}"))
            .collect();
        assert_eq!(subjects, vec!["q/2", "p/2", "p/1"]);
    }

    #[test]
    fn refused_transformation_is_raised_for_recursive_subjects_only() {
        // `bad` is not strongly linear: the transformation refuses it.
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             bad(X, Y) :- e(X, Y).\n\
             bad(X, Y) :- bad(X, Z), bad(Z, Y).\n\
             uses_bad(X) :- bad(X, X).");
        let prep = PreparedIdb::prepare(&i, TransformPolicy::PreferModified);
        assert!(matches!(
            prep.rules(),
            Err(DescribeError::UnsupportedIdb(_))
        ));
        let (rules, typing) = prep.rules_for_subject("honor").unwrap();
        assert!(!typing);
        assert_eq!(rules.idb.len(), i.len());
        for pred in ["bad", "uses_bad"] {
            assert!(matches!(
                prep.rules_for_subject(pred),
                Err(DescribeError::UnsupportedIdb(_))
            ));
        }
        // Without a transformation there is nothing to refuse.
        let none = PreparedIdb::prepare(&i, TransformPolicy::None);
        assert!(!none.rules_for_subject("bad").unwrap().1);
    }
}
