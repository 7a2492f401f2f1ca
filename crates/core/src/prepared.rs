//! The rule base, prepared once for the whole `describe` family.
//!
//! Everything `describe` does before it looks at a subject or a
//! hypothesis depends on the rules alone: the dependency analysis that
//! chooses between Algorithm 1 and Algorithm 2 (§4/§5), the §5.2
//! transformation, the compiled rules whose slot maps standardize them
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
use crate::describe::Describe;
use crate::error::{DescribeError, Result};
use crate::transform::{transform_with, TransformedIdb};
use qdk_engine::graph::DependencyGraph;
use qdk_engine::Idb;
use qdk_logic::{FxHashSet, Sym};

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
    /// The predicates that are recursive or depend on one (§4/§5: the
    /// subjects Algorithm 2 answers), found in one pass over the graph
    /// instead of one walk per describe.
    involve_recursion: FxHashSet<Sym>,
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
        let involve_recursion = graph.slices_containing(|p| graph.is_recursive(p.as_str()));
        PreparedIdb {
            policy,
            graph,
            rules,
            unsupported,
            negating,
            involve_recursion,
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
        if !self.involve_recursion.contains(pred) {
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

    /// Every predicate an answer to `query` can depend on: the subject's
    /// and each hypothesis literal's predicate, and every predicate the
    /// rules of one of them reach (hypothesis literals surface in theorem
    /// bodies, so constraints over them prune answers too). The describe
    /// cache evicts an answer when a rule or constraint names one of these.
    /// Predicates a rule reaches only through a negated literal count too:
    /// an answer is evicted more often than it must be, never less.
    pub fn answer_closure(&self, query: &Describe) -> Vec<Sym> {
        self.rules.closure(
            std::iter::once(&query.subject.pred)
                .chain(query.hypothesis.iter().map(|l| &l.atom.pred)),
        )
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
        let mut subjects = Vec::new();
        for pred in self.rules.idb.predicates() {
            if !self.defines(&pred) {
                continue;
            }
            let first = subjects.len();
            for &ri in self.rules.rule_indexes_for(&pred) {
                let subject = (pred.clone(), self.rules.compiled[ri].head.args.len());
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
    use qdk_logic::{Atom, Literal, Term};
    use std::collections::BTreeSet;

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    /// The closure one dependency-graph walk per predicate gives — the
    /// subject's, and each hypothesis literal's — as a set.
    fn walked_closure(prep: &PreparedIdb, query: &Describe) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for pred in std::iter::once(&query.subject.pred)
            .chain(query.hypothesis.iter().map(|l| &l.atom.pred))
        {
            out.insert(pred.clone());
            out.extend(prep.graph().reachable_from(pred.as_str()));
        }
        out
    }

    #[test]
    fn answer_closure_and_recursion_sets_match_the_graph_walks() {
        let university = "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).\n\
             foreign(X) :- demographic(X, N, M), N != usa.\n\
             unmarried(X) :- demographic(X, N, single).\n\
             deans_list(X) :- student(X, Y, Z), Z > 3.9.\n\
             reachable(X, Y) :- flight(X, Y).\n\
             reachable(X, Y) :- flight(X, Z), reachable(Z, Y).\n\
             p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).";
        // A layered policy rule base, 3 levels of 20 concepts.
        let mut policy = String::new();
        for level in 0..3 {
            for i in 0..20 {
                for alt in 0..2 {
                    let pick = |k: usize| (7 * i + 13 * alt + 31 * k + level) % 20;
                    let below = |k: usize| match level {
                        2 => format!("attr{}(X, U{k})", pick(k)),
                        _ => format!("pol{}_{}(X)", level + 1, pick(k)),
                    };
                    policy.push_str(&format!(
                        "pol{level}_{i}(X) :- {}, {}, attr{}(X, V), V > 3.\n",
                        below(0),
                        below(1),
                        pick(2)
                    ));
                }
            }
        }
        for (src, transform) in [
            (university, TransformPolicy::PreferModified),
            (university, TransformPolicy::AlwaysArtificial),
            (university, TransformPolicy::None),
            (policy.as_str(), TransformPolicy::PreferModified),
        ] {
            let prep = PreparedIdb::prepare(&idb(src), transform);
            let atom = |pred: &Sym| Atom::new(pred.clone(), vec![Term::var("X")]);
            let subjects: Vec<Sym> = prep.subjects().into_iter().map(|(p, _)| p).collect();
            let mut hypotheses: Vec<Vec<Literal>> = vec![vec![]];
            for pred in subjects
                .iter()
                .chain(&[Sym::new("attr3"), Sym::new("student")])
            {
                hypotheses.push(vec![
                    Literal::pos(atom(pred)),
                    Literal::pos(Atom::new(">", vec![Term::var("X"), Term::int(3)])),
                ]);
            }
            for subject in &subjects {
                assert_eq!(
                    prep.involve_recursion.contains(subject),
                    prep.graph().involves_recursion(subject.as_str()),
                    "{subject}"
                );
                for hypothesis in &hypotheses {
                    let query = Describe::new(atom(subject), hypothesis.clone());
                    let closure = prep.answer_closure(&query);
                    let set: BTreeSet<Sym> = closure.iter().cloned().collect();
                    assert_eq!(set.len(), closure.len(), "{query}: {closure:?}");
                    assert_eq!(set, walked_closure(&prep, &query), "{query}");
                }
            }
        }
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
