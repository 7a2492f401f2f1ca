//! The §6 `compare` statement.
//!
//! ```text
//! compare (describe p₁ where ψ₁) with (describe p₂ where ψ₂)
//! ```
//!
//! "The answer should elucidate the maximal shared concept (if it is
//! empty then the two concepts are unrelated; if it is equal to one of
//! the given concepts, then one concept subsumes the other)."
//!
//! Concepts are compared on their extensional expansions: each subject is
//! unfolded to DNF (hypothesis atoms conjoined), the second concept's head
//! variables are aligned with the first's positionally, and the
//! relationship is classified by semantic subsumption in both directions;
//! otherwise the maximal shared literal set of the best-matching pair of
//! conjuncts is reported, together with each side's residue — the
//! "difference between an honor student and a Dean's-List student".

use crate::config::DescribeOptions;
use crate::describe::Describe;
use crate::error::{DescribeError, Result};
use crate::expand::{expand_conjunction, Conjunct};
use crate::redundancy::semantic_subsumes;
use qdk_logic::{Atom, Literal, Rule, Subst, Term};
use std::fmt;

/// The relationship between two compared concepts.
#[derive(Clone, Debug, PartialEq)]
pub enum Relationship {
    /// The concepts are equivalent.
    Equivalent,
    /// The first concept subsumes (is more general than) the second.
    FirstSubsumesSecond,
    /// The second concept subsumes the first.
    SecondSubsumesFirst,
    /// The concepts overlap: a nonempty maximal shared concept exists.
    Overlapping,
    /// No shared concept: the concepts are unrelated.
    Unrelated,
}

/// The answer to a `compare` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareAnswer {
    /// The classified relationship.
    pub relationship: Relationship,
    /// The maximal shared concept (literals common to the best pair of
    /// definitions), empty when unrelated.
    pub shared: Vec<Literal>,
    /// Literals only in the first concept's definition.
    pub only_first: Vec<Literal>,
    /// Literals only in the second concept's definition.
    pub only_second: Vec<Literal>,
}

impl fmt::Display for CompareAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.relationship {
            Relationship::Equivalent => writeln!(f, "the concepts are equivalent")?,
            Relationship::FirstSubsumesSecond => {
                writeln!(f, "the first concept subsumes the second")?
            }
            Relationship::SecondSubsumesFirst => {
                writeln!(f, "the second concept subsumes the first")?
            }
            Relationship::Overlapping => writeln!(f, "the concepts overlap")?,
            Relationship::Unrelated => return writeln!(f, "the concepts are unrelated"),
        }
        let render = |lits: &[Literal]| {
            lits.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ∧ ")
        };
        if !self.shared.is_empty() {
            writeln!(f, "shared concept: {}", render(&self.shared))?;
        }
        if !self.only_first.is_empty() {
            writeln!(f, "only the first requires: {}", render(&self.only_first))?;
        }
        if !self.only_second.is_empty() {
            writeln!(f, "only the second requires: {}", render(&self.only_second))?;
        }
        Ok(())
    }
}

/// Evaluates `compare (describe p₁ where ψ₁) with (describe p₂ where ψ₂)`.
pub fn compare(
    idb: &qdk_engine::Idb,
    first: &Describe,
    second: &Describe,
    opts: &DescribeOptions,
) -> Result<CompareAnswer> {
    first.validate(idb)?;
    second.validate(idb)?;
    if first.subject.arity() != second.subject.arity() {
        return Err(DescribeError::UnsupportedIdb(format!(
            "compared concepts must have equal arity: {} vs {}",
            first.subject, second.subject
        )));
    }

    // Align the second subject's variables with the first's positionally.
    let align: Subst = second
        .subject
        .args
        .iter()
        .zip(&first.subject.args)
        .filter_map(|(from, to)| match (from, to) {
            (Term::Var(v), t) => Some((v.clone(), t.clone())),
            _ => None,
        })
        .collect();

    let d1 = definitions(idb, first, opts)?;
    let d2: Vec<Conjunct> = definitions(idb, second, opts)?
        .into_iter()
        .map(|c| c.iter().map(|l| align.apply_literal(l)).collect())
        .collect();

    // Subsumption of DNFs: D ≤ D' when every conjunct of D is subsumed by
    // some conjunct of D' (then D implies D', i.e. D' is more general).
    let head = Atom::new("_cmp", first.subject.args.clone());
    let as_rule = |c: &Conjunct| Rule::with_literals(head.clone(), c.clone());
    let dnf_le = |specific: &[Conjunct], general: &[Conjunct]| {
        specific.iter().all(|cs| {
            general
                .iter()
                .any(|cg| semantic_subsumes(&as_rule(cg), &as_rule(cs), &[]))
        })
    };
    let first_ge_second = dnf_le(&d2, &d1); // first subsumes second
    let second_ge_first = dnf_le(&d1, &d2);

    let (shared, only_first, only_second) = best_pair(&d1, &d2);

    let relationship = match (first_ge_second, second_ge_first) {
        (true, true) => Relationship::Equivalent,
        (true, false) => Relationship::FirstSubsumesSecond,
        (false, true) => Relationship::SecondSubsumesFirst,
        (false, false) if shared.is_empty() => Relationship::Unrelated,
        _ => Relationship::Overlapping,
    };

    // Canonicalize the three literal lists jointly (one renaming scope) so
    // machine-generated variables don't leak into the report.
    let sizes = (shared.len(), only_first.len());
    let mut all = shared;
    all.extend(only_first);
    all.extend(only_second);
    let canonical = qdk_logic::pretty::canonicalize_rule(&Rule::with_literals(
        Atom::new("_cmp", first.subject.args.clone()),
        all,
    ));
    let mut body = canonical.body;
    let only_second = body.split_off(sizes.0 + sizes.1);
    let only_first = body.split_off(sizes.0);
    let shared = body;

    Ok(CompareAnswer {
        relationship,
        shared,
        only_first,
        only_second,
    })
}

/// The concept of a describe statement: the subject's expansions with the
/// hypothesis atoms conjoined.
fn definitions(
    idb: &qdk_engine::Idb,
    d: &Describe,
    opts: &DescribeOptions,
) -> Result<Vec<Conjunct>> {
    let mut atoms = vec![d.subject.clone()];
    atoms.extend(d.hypothesis.iter().map(|l| l.atom.clone()));
    // Expand the subject (and any IDB hypothesis atoms) together so shared
    // variables stay shared; drop the leading subject occurrence from each
    // result? The subject is IDB-defined, so expansion replaces it.
    expand_conjunction(idb, &atoms, opts)
}

/// What decides whether two literals can unify at all: sign, predicate
/// and arity.
type LiteralKey<'a> = (bool, &'a str, usize);

fn literal_key(l: &Literal) -> LiteralKey<'_> {
    (l.positive, l.atom.pred.as_str(), l.atom.arity())
}

/// A conjunct's literals counted by [`LiteralKey`], sorted by key.
fn signature(c: &Conjunct) -> Vec<(LiteralKey<'_>, usize)> {
    let mut keys: Vec<LiteralKey<'_>> = c.iter().map(literal_key).collect();
    keys.sort_unstable();
    let mut sig: Vec<(LiteralKey<'_>, usize)> = Vec::new();
    for k in keys {
        match sig.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => sig.push((k, 1)),
        }
    }
    sig
}

/// The size of the multiset intersection of two signatures: an upper
/// bound on how many literals [`shared_concept`] can pair up, since it
/// pairs each literal at most once and only with one of the same key.
fn overlap(a: &[(LiteralKey<'_>, usize)], b: &[(LiteralKey<'_>, usize)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += a[i].1.min(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The maximal shared concept over the best pair of conjuncts, with each
/// side's residue: the first pair (in `d1`-major order) whose shared
/// literal count is the maximum. A pair whose signature overlap cannot
/// exceed the best count found so far is skipped without being matched.
/// When no pair shares anything the last pair's conjuncts are the
/// residues.
fn best_pair(d1: &[Conjunct], d2: &[Conjunct]) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let sig2: Vec<_> = d2.iter().map(signature).collect();
    let mut best = None;
    let mut best_len = 0;
    for c1 in d1 {
        let sig1 = signature(c1);
        for (c2, sig2) in d2.iter().zip(&sig2) {
            if overlap(&sig1, sig2) <= best_len {
                continue;
            }
            let found = shared_concept(c1, c2);
            if found.0.len() > best_len {
                best_len = found.0.len();
                best = Some(found);
            }
        }
    }
    best.unwrap_or_else(|| match (d1.last(), d2.last()) {
        (Some(c1), Some(c2)) => (Vec::new(), c1.clone(), c2.clone()),
        _ => Default::default(),
    })
}

/// The unpruned search [`best_pair`] must agree with: every pair matched,
/// the first to reach the maximum kept, the last pair kept when none
/// shares anything.
#[cfg(test)]
fn best_pair_exhaustive(
    d1: &[Conjunct],
    d2: &[Conjunct],
) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let mut best: (usize, Vec<Literal>, Vec<Literal>, Vec<Literal>) =
        (0, Vec::new(), Vec::new(), Vec::new());
    for c1 in d1 {
        for c2 in d2 {
            let (shared, r1, r2) = shared_concept(c1, c2);
            if shared.len() > best.0 || (best.0 == 0 && best.1.is_empty()) {
                best = (shared.len(), shared, r1, r2);
            }
        }
    }
    (best.1, best.2, best.3)
}

/// Greedy maximal common literal set between two conjuncts: repeatedly
/// unifies a literal of `c1` with one of `c2` under a threaded
/// substitution, then reports residues. The shared concept is the
/// unified (most general common) form.
fn shared_concept(c1: &Conjunct, c2: &Conjunct) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let mut shared = Vec::new();
    let mut used2 = vec![false; c2.len()];
    let mut subst = Subst::new();
    let mut residue1 = Vec::new();
    for l1 in c1 {
        let mut matched = false;
        // `subst` only changes on a match, which ends the inner loop.
        let a1 = subst.apply_atom(&l1.atom);
        let k1 = literal_key(l1);
        for (j, l2) in c2.iter().enumerate() {
            // Literals that differ in sign, predicate or arity cannot unify.
            if used2[j] || k1 != literal_key(l2) {
                continue;
            }
            let a2 = subst.apply_atom(&l2.atom);
            if let Some(mgu) = qdk_logic::unify_atoms(&a1, &a2) {
                shared.push(Literal {
                    positive: l1.positive,
                    atom: mgu.apply_atom(&a1),
                });
                used2[j] = true;
                subst = subst.compose(&mgu);
                matched = true;
                break;
            }
        }
        if !matched {
            residue1.push(subst.apply_literal(l1));
        }
    }
    let residue2: Vec<Literal> = c2
        .iter()
        .zip(&used2)
        .filter(|(_, used)| !**used)
        .map(|(l, _)| subst.apply_literal(l))
        .collect();
    (shared, residue1, residue2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_engine::Idb;
    use qdk_logic::parser::{parse_atom, parse_program};

    fn idb() -> Idb {
        Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 deans_list(X) :- student(X, Y, Z), Z > 3.9.\n\
                 athlete(X) :- plays(X, S).\n\
                 top_math(X) :- student(X, math, Z), Z > 3.7.",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    fn d(subject: &str) -> Describe {
        Describe::new(parse_atom(subject).unwrap(), vec![])
    }

    #[test]
    fn honor_subsumes_deans_list() {
        // The introduction's fourth query: the difference between an honor
        // student and a Dean's-List student. Dean's List requires a higher
        // GPA, so honor subsumes it.
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("deans_list(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::FirstSubsumesSecond);
        // The shared concept is the student atom.
        assert!(a.shared.iter().any(|l| l.atom.pred == "student"));
        let shown = a.to_string();
        assert!(shown.contains("subsumes"), "{shown}");
    }

    #[test]
    fn subsumption_direction_flips() {
        let a = compare(
            &idb(),
            &d("deans_list(X)"),
            &d("honor(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::SecondSubsumesFirst);
    }

    #[test]
    fn concept_is_equivalent_to_itself() {
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("honor(A)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Equivalent);
    }

    #[test]
    fn unrelated_concepts() {
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("athlete(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Unrelated);
        assert!(a.shared.is_empty());
        assert!(a.to_string().contains("unrelated"));
    }

    #[test]
    fn overlapping_concepts_report_differences() {
        // honor vs top_math: same GPA bound, but top_math restricts the
        // major; honor subsumes it. Compare top_math against deans_list
        // instead: neither subsumes (major vs higher GPA) but they share
        // the student atom.
        let a = compare(
            &idb(),
            &d("top_math(X)"),
            &d("deans_list(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Overlapping);
        assert!(!a.shared.is_empty());
        assert!(!a.only_first.is_empty() || !a.only_second.is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let i = Idb::from_rules(
            parse_program("p(X) :- e(X).\nq(X, Y) :- e2(X, Y).")
                .unwrap()
                .rules,
        )
        .unwrap();
        assert!(compare(
            &i,
            &Describe::new(parse_atom("p(X)").unwrap(), vec![]),
            &Describe::new(parse_atom("q(X, Y)").unwrap(), vec![]),
            &DescribeOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn hypotheses_join_the_concepts() {
        // compare (honor where plays(X, S)) with (athlete where ...):
        // hypothesis atoms become part of the concept.
        let a = compare(
            &idb(),
            &Describe::new(
                parse_atom("athlete(X)").unwrap(),
                qdk_logic::parser::parse_body("student(X, M, G)").unwrap(),
            ),
            &Describe::new(parse_atom("honor(X)").unwrap(), vec![]),
            &DescribeOptions::default(),
        )
        .unwrap();
        // Now the concepts share the student atom.
        assert_ne!(a.relationship, Relationship::Unrelated);
    }

    use proptest::prelude::*;

    /// Literals over a small vocabulary, so conjuncts collide on sign,
    /// predicate and arity often enough for unification to matter.
    fn arb_literal() -> impl Strategy<Value = Literal> {
        let term = prop_oneof![
            prop_oneof![Just("X"), Just("Y"), Just("Z")].prop_map(Term::var),
            prop_oneof![Just("a"), Just("b")].prop_map(|c| Term::Const(qdk_logic::Const::sym(c))),
        ];
        (
            prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")],
            proptest::collection::vec(term, 1..3),
            0u8..4,
        )
            .prop_map(|(pred, args, sign)| Literal {
                positive: sign != 0,
                atom: Atom::new(pred, args),
            })
    }

    fn arb_dnf() -> impl Strategy<Value = Vec<Conjunct>> {
        proptest::collection::vec(proptest::collection::vec(arb_literal(), 0..5), 0..5)
    }

    proptest! {
        /// The pruned best-pair search is the exhaustive one: same shared
        /// concept, same residues, same tie-breaks.
        #[test]
        fn pruned_best_pair_matches_exhaustive(d1 in arb_dnf(), d2 in arb_dnf()) {
            prop_assert_eq!(best_pair(&d1, &d2), best_pair_exhaustive(&d1, &d2));
        }

        /// …including when the two sides share no predicate at all, where
        /// every pair is pruned and the last pair's conjuncts are reported.
        #[test]
        fn pruned_best_pair_matches_exhaustive_when_disjoint(d1 in arb_dnf(), d2 in arb_dnf()) {
            let d2: Vec<Conjunct> = d2
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|l| Literal {
                            positive: l.positive,
                            atom: Atom::new(format!("other_{}", l.atom.pred).as_str(), l.atom.args.clone()),
                        })
                        .collect()
                })
                .collect();
            let pruned = best_pair(&d1, &d2);
            prop_assert!(pruned.0.is_empty());
            prop_assert_eq!(pruned, best_pair_exhaustive(&d1, &d2));
        }
    }
}
