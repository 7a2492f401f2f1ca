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
//! unfolded to DNF (hypothesis atoms conjoined), each conjunct a rule
//! headed by its own subject. The relationship is classified by
//! θ-subsumption of the two DNFs in both directions, heads included.
//!
//! A concept that both definitions imply generalises both, so the shared
//! concept of a pair of conjuncts is their least general generalisation
//! (Plotkin, 1970): the heads and every pair of relational literals with
//! the same sign, predicate and arity anti-unified through one table, with
//! each comparison of either side that both sides entail, reduced to its
//! core. The pair is a witness of subsumption if there is one, otherwise
//! the pair whose literal keys overlap most. Each side's residue is what
//! its conjunct requires beyond the shared concept — the "difference
//! between an honor student and a Dean's-List student".

use crate::config::DescribeOptions;
use crate::constraints;
use crate::describe::Describe;
use crate::error::{DescribeError, Result};
use crate::expand::expand_conjunction;
use crate::redundancy::{comparisons_follow, prepare_general, prepare_specific, subsumes_prepared};
use qdk_logic::{Atom, Bindings, FxHashMap, Literal, Rule, Term, Var};
use std::collections::hash_map::Entry;
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
    /// The maximal shared concept: the least general generalisation of
    /// one conjunct of each definition, reduced to its core. Empty when
    /// unrelated.
    pub shared: Vec<Literal>,
    /// What only the first concept's conjunct requires beyond the shared
    /// concept.
    pub only_first: Vec<Literal>,
    /// What only the second concept's conjunct requires beyond the shared
    /// concept.
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
    let d1 = definitions(idb, first, opts)?;
    let d2 = definitions(idb, second, opts)?;
    Ok(compare_definitions(&d1, &d2))
}

/// The concept of a describe statement: the subject's expansions with the
/// hypothesis atoms conjoined, each a rule headed by the subject.
fn definitions(idb: &qdk_engine::Idb, d: &Describe, opts: &DescribeOptions) -> Result<Vec<Rule>> {
    let mut atoms = vec![d.subject.clone()];
    atoms.extend(d.hypothesis.iter().map(|l| l.atom.clone()));
    // Expanded together, the subject and the hypothesis share variables.
    let head = Atom::new("_cmp", d.subject.args.clone());
    Ok(expand_conjunction(idb, &atoms, opts)?
        .into_iter()
        .map(|c| Rule::with_literals(head.clone(), c))
        .collect())
}

/// Compares two definitions. A variable name on both sides names two
/// variables: the subsumption test renames its general side apart, and
/// anti-unification pairs terms by side.
fn compare_definitions(d1: &[Rule], d2: &[Rule]) -> CompareAnswer {
    let (first_ge_second, second_ge_first, pair) = classify(d1, d2);
    let (shared, only_first, only_second) = pair
        .map(|(i, j)| Generalisation::new(&d1[i], &d2[j]).rendered())
        .unwrap_or_default();
    let relationship = match (first_ge_second, second_ge_first) {
        (true, true) => Relationship::Equivalent,
        (true, false) => Relationship::FirstSubsumesSecond,
        (false, true) => Relationship::SecondSubsumesFirst,
        (false, false) if shared.is_empty() => Relationship::Unrelated,
        (false, false) => Relationship::Overlapping,
    };
    CompareAnswer {
        relationship,
        shared,
        only_first,
        only_second,
    }
}

/// Whether the first definition subsumes the second and the other way
/// round, and the pair of conjuncts the shared concept is built from.
/// When one direction holds the pair is its first witness (a mutually
/// subsuming pair when both hold); otherwise it is the first pair,
/// `d1`-major, whose literal keys overlap most.
fn classify(d1: &[Rule], d2: &[Rule]) -> (bool, bool, Option<(usize, usize)>) {
    let down = dnf_le(d2, d1); // first subsumes second
    let up = dnf_le(d1, d2);
    let pair = match (&down, &up) {
        (Some(down), Some(up)) => mutual(up, down),
        (Some(down), None) => down.first().map(|&i| (i, 0)),
        (None, Some(up)) => up.first().map(|&j| (0, j)),
        (None, None) => most_overlapping(d1, d2),
    };
    (down.is_some(), up.is_some(), pair)
}

/// Subsumption of DNFs: D ≤ D' when every conjunct of D is subsumed by
/// some conjunct of D' (then D implies D', i.e. D' is more general). The
/// witnesses, one per conjunct of `specific`: the first conjunct of
/// `general` found to subsume it. Each conjunct is prepared once per
/// role, not once per pair. The conjunct at the specific conjunct's own
/// position is tried first: a concept compared with a variant of itself
/// pairs its conjuncts position by position.
fn dnf_le(specific: &[Rule], general: &[Rule]) -> Option<Vec<usize>> {
    let general: Vec<_> = general.iter().map(prepare_general).collect();
    specific
        .iter()
        .enumerate()
        .map(|(j, cs)| {
            let cs = prepare_specific(cs, &[]);
            let from = j.min(general.len());
            (from..general.len())
                .chain(0..from)
                .find(|&i| subsumes_prepared(&general[i], &cs))
        })
        .collect()
}

/// A pair of equivalent conjuncts, given the witnesses of both directions
/// (`up[i]` subsumes `d1[i]`, `down[j]` subsumes `d2[j]`). Following them
/// from `d1[0]` reaches a conjunct twice; every conjunct on that cycle
/// subsumes the next, so they are all equivalent.
fn mutual(up: &[usize], down: &[usize]) -> Option<(usize, usize)> {
    let mut seen = vec![false; up.len()];
    let mut i = 0;
    while !*seen.get(i)? {
        seen[i] = true;
        i = down[up[i]];
    }
    Some((i, up[i]))
}

/// Each key of `r`'s relational literals, numbered in `ids`, with how
/// many literals have it.
fn key_runs<'a>(
    r: &'a Rule,
    ids: &mut FxHashMap<(bool, &'a str, usize), usize>,
) -> Vec<(usize, usize)> {
    let mut keys: Vec<usize> = r
        .body
        .iter()
        .filter(|l| !l.is_builtin())
        .map(|l| {
            let next = ids.len();
            *ids.entry(key(l)).or_insert(next)
        })
        .collect();
    keys.sort_unstable();
    keys.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .collect()
}

/// What anti-unification pairs literals by: sign, predicate and arity.
fn key(l: &Literal) -> (bool, &str, usize) {
    (l.positive, l.atom.pred.as_str(), l.atom.arity())
}

/// The first pair, `d1`-major, with the largest multiset overlap of the
/// keys of relational literals.
fn most_overlapping(d1: &[Rule], d2: &[Rule]) -> Option<(usize, usize)> {
    let mut ids = FxHashMap::default();
    let first: Vec<_> = d1.iter().map(|r| key_runs(r, &mut ids)).collect();
    let second: Vec<_> = d2.iter().map(|r| key_runs(r, &mut ids)).collect();
    let mut have = vec![0; ids.len()];
    let mut best: Option<((usize, usize), usize)> = None;
    for (i, runs) in first.iter().enumerate() {
        for &(k, n) in runs {
            have[k] = n;
        }
        for (j, theirs) in second.iter().enumerate() {
            let overlap = theirs.iter().map(|&(k, n)| have[k].min(n)).sum();
            if best.is_none_or(|(_, most)| overlap > most) {
                best = Some(((i, j), overlap));
            }
        }
        for &(k, _) in runs {
            have[k] = 0;
        }
    }
    best.map(|(pair, _)| pair)
}

/// Plotkin's anti-unification of two sides: one variable per pair of terms
/// other than one constant twice, the `n`-th pair met named `_gn`.
#[derive(Default)]
struct AntiUnifier {
    /// Each pair's number in `pairs`.
    index: FxHashMap<[Term; 2], usize>,
    pairs: Vec<[Term; 2]>,
}

fn generalised(n: usize) -> Var {
    Var::new(&format!("_g{n}"))
}

impl AntiUnifier {
    fn term(&mut self, a: &Term, b: &Term) -> Term {
        if matches!(a, Term::Const(_)) && a == b {
            return a.clone();
        }
        let n = self.pairs.len();
        match self.index.entry([a.clone(), b.clone()]) {
            Entry::Occupied(e) => Term::Var(generalised(*e.get())),
            Entry::Vacant(e) => {
                self.pairs.push(e.key().clone());
                e.insert(n);
                Term::Var(generalised(n))
            }
        }
    }

    fn atom(&mut self, a: &Atom, b: &Atom) -> Atom {
        let args = a.args.iter().zip(&b.args);
        Atom::new(a.pred.clone(), args.map(|(s, t)| self.term(s, t)).collect())
    }

    /// The substitution that maps the generalisation onto `side`.
    fn theta(&self, side: usize) -> Bindings {
        let pairs = self.pairs.iter().enumerate();
        pairs
            .map(|(n, p)| (generalised(n), p[side].clone()))
            .collect()
    }

    /// Every literal over the generalisation's variables whose image on
    /// `side` is `l`; `l`'s constants stay.
    fn lifts(&self, l: &Literal, side: usize) -> Vec<Literal> {
        let mut lifted = vec![l.clone()];
        for (p, t) in l.atom.args.iter().enumerate() {
            if let Term::Var(_) = t {
                let preimages = (0..self.pairs.len()).filter(|&n| self.pairs[n][side] == *t);
                lifted = preimages
                    .flat_map(|n| {
                        lifted.iter().map(move |m| {
                            let mut m = m.clone();
                            m.atom.args[p] = Term::Var(generalised(n));
                            m
                        })
                    })
                    .collect();
            }
        }
        lifted
    }
}

/// The shared concept of one pair of conjuncts, and each side's residue.
struct Generalisation {
    /// The heads' generalisation.
    head: Atom,
    /// The least general generalisation's core.
    shared: Vec<Literal>,
    /// Per side, the substitution that maps the shared concept onto it.
    theta: [Bindings; 2],
    /// Per side, the literals of its conjunct that the image of the shared
    /// concept does not give, in the side's own variables.
    residues: [Vec<Literal>; 2],
}

impl Generalisation {
    fn new(c1: &Rule, c2: &Rule) -> Self {
        let sides = [c1, c2];
        let mut au = AntiUnifier::default();
        let head = au.atom(&c1.head, &c2.head);
        let mut lgg: Vec<Literal> = Vec::new();
        for l1 in c1.body.iter().filter(|l| !l.is_builtin()) {
            for l2 in c2.body.iter().filter(|l| key(l) == key(l1)) {
                let l = Literal {
                    positive: l1.positive,
                    atom: au.atom(&l1.atom, &l2.atom),
                };
                if !lgg.contains(&l) {
                    lgg.push(l);
                }
            }
        }
        let theta = [au.theta(0), au.theta(1)];
        let comparisons = sides.map(|c| constraints::comparisons(&c.body));
        // A comparison of either side joins when both sides entail it.
        for (side, c) in sides.iter().enumerate() {
            for l in c.body.iter().filter(|l| l.positive && l.is_builtin()) {
                for lift in au.lifts(l, side) {
                    let entailed =
                        (0..2).all(|k| comparisons_follow([&lift], &theta[k], &comparisons[k]));
                    if entailed && !lgg.contains(&lift) {
                        lgg.push(lift);
                    }
                }
            }
        }
        let lgg = Rule::with_literals(head.clone(), lgg);
        let shared = core(&head, &[], lgg.body.clone(), &lgg);
        let residues = [0, 1].map(|k| {
            let image: Vec<Literal> = shared.iter().map(|l| theta[k].apply_literal(l)).collect();
            let rest = sides[k].body.iter().filter(|l| !image.contains(l));
            core(&sides[k].head, &image, rest.cloned().collect(), sides[k])
        });
        Generalisation {
            head,
            shared,
            theta,
            residues,
        }
    }

    /// The shared concept and what only the first and only the second
    /// side require, in one scope of canonical variable names. A side's
    /// variable is written as the first variable of the shared concept
    /// (head first) that the side maps to it; where the side binds such a
    /// variable to a constant, or two of them to one variable, its part
    /// says so with `(Y = a)` or `(A = B)`.
    fn rendered(self) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
        let vars: Vec<Term> = Rule::with_literals(self.head.clone(), self.shared.clone())
            .vars()
            .into_iter()
            .map(Term::Var)
            .collect();
        let mut all = self.shared.clone();
        let mut sizes = [0; 2];
        for (k, residue) in self.residues.iter().enumerate() {
            let before = all.len();
            let mut names = Bindings::new();
            for (n, g) in vars.iter().enumerate() {
                let image = self.theta[k].apply_term(g);
                let same = vars[..n]
                    .iter()
                    .find(|h| self.theta[k].apply_term(h) == image);
                let pin = match (&image, same) {
                    (Term::Const(_), _) => Atom::new("=", vec![g.clone(), image]),
                    (_, Some(h)) => Atom::new("=", vec![h.clone(), g.clone()]),
                    (Term::Var(v), None) => {
                        names.bind(v.clone(), g.clone());
                        continue;
                    }
                };
                let pin = Literal::pos(pin);
                if !self.shared.contains(&pin) {
                    all.push(pin);
                }
            }
            // Its other variables, apart from the other side's.
            for v in residue.iter().flat_map(|l| l.atom.vars()) {
                if names.lookup(&v).is_none() {
                    let fresh = Var::new(&format!("_r{k}_{}", names.len()));
                    names.bind(v, Term::Var(fresh));
                }
            }
            all.extend(residue.iter().map(|l| names.apply_literal(l)));
            sizes[k] = all.len() - before;
        }
        let mut body =
            qdk_logic::pretty::canonicalize_rule(&Rule::with_literals(self.head, all)).body;
        let only_second = body.split_off(body.len() - sizes[1]);
        let only_first = body.split_off(body.len() - sizes[0]);
        (body, only_first, only_second)
    }
}

/// Drops literals of `lits` while `target` still subsumes `head ← fixed ∧
/// lits`, relational literals first: with `target` equivalent to that rule
/// to begin with, what is left is equivalent to it too. A comparison
/// left over a variable that neither the head nor a relational literal
/// mentions any more goes with the literal that mentioned it.
fn core(head: &Atom, fixed: &[Literal], mut lits: Vec<Literal>, target: &Rule) -> Vec<Literal> {
    let target = prepare_general(target);
    let mut order = lits.clone();
    order.sort_by_key(Literal::is_builtin);
    for l in &order {
        let Some(at) = lits.iter().position(|k| k == l) else {
            continue;
        };
        let mut kept = lits.clone();
        kept.remove(at);
        // A relational literal goes only onto another of its key.
        if !l.is_builtin() && !fixed.iter().chain(&kept).any(|k| key(k) == key(l)) {
            continue;
        }
        let mut anchored = head.vars();
        for r in fixed.iter().chain(&kept).filter(|l| !l.is_builtin()) {
            r.atom.collect_vars(&mut anchored);
        }
        kept.retain(|k| !k.is_builtin() || k.atom.vars().iter().all(|v| anchored.contains(v)));
        let candidate =
            Rule::with_literals(head.clone(), fixed.iter().chain(&kept).cloned().collect());
        if subsumes_prepared(&target, &prepare_specific(&candidate, &[])) {
            lits = kept;
        }
    }
    lits
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

    fn paths() -> Idb {
        Idb::from_rules(
            parse_program(
                "p(X, Y) :- e(X, Y).\n\
                 q(X, Y, Z) :- e(X, Y), e(Y, Z).",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    /// The answer's text with its variables numbered in order of first
    /// occurrence, so a test does not depend on the names chosen.
    fn up_to_names(first: &str, second: &str) -> String {
        let a = compare(&paths(), &d(first), &d(second), &DescribeOptions::default()).unwrap();
        let text = a.to_string();
        let (mut out, mut names, mut chars) = (String::new(), Vec::new(), text.chars().peekable());
        while let Some(c) = chars.next() {
            if !c.is_ascii_uppercase() {
                out.push(c);
                continue;
            }
            let mut name = c.to_string();
            while let Some(&c) = chars.peek().filter(|c| c.is_ascii_alphanumeric()) {
                name.push(c);
                chars.next();
            }
            let n = names.iter().position(|k| *k == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            });
            out.push_str(&format!("V{n}"));
        }
        out
    }

    #[test]
    fn a_constant_in_the_second_subject_is_what_only_it_requires() {
        assert_eq!(
            up_to_names("p(X, Y)", "p(X, a)"),
            "the first concept subsumes the second\n\
             shared concept: e(V0, V1)\n\
             only the second requires: (V1 = a)\n"
        );
    }

    #[test]
    fn a_constant_in_the_first_subject_makes_it_the_specific_one() {
        assert_eq!(
            up_to_names("p(X, a)", "p(X, Y)"),
            "the second concept subsumes the first\n\
             shared concept: e(V0, V1)\n\
             only the first requires: (V1 = a)\n"
        );
    }

    /// `q(X, A, B)` against a second subject that repeats a variable.
    const REPEATED: &str = "the first concept subsumes the second\n\
                            shared concept: e(V0, V1) ∧ e(V1, V2)\n\
                            only the second requires: (V1 = V2)\n";

    #[test]
    fn a_repeated_variable_in_the_second_subject_is_an_equality() {
        assert_eq!(up_to_names("q(X, A, B)", "q(Z, W, W)"), REPEATED);
    }

    #[test]
    fn the_second_subject_aligns_by_position_not_by_name() {
        assert_eq!(up_to_names("q(X, A, B)", "q(Z, X, X)"), REPEATED);
    }

    #[test]
    fn different_constants_share_the_generalisation() {
        // Both concepts imply e(X, Y), so they are related.
        assert_eq!(
            up_to_names("p(X, a)", "p(X, b)"),
            "the concepts overlap\n\
             shared concept: e(V0, V1)\n\
             only the first requires: (V1 = a)\n\
             only the second requires: (V1 = b)\n"
        );
    }

    use crate::redundancy::semantic_subsumes;
    use proptest::prelude::*;
    use qdk_logic::Const;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            prop_oneof![Just("X"), Just("Y"), Just("Z"), Just("U"), Just("_0")]
                .prop_map(|v| Term::Var(qdk_logic::Var::new(v))),
            prop_oneof![
                Just(Const::sym("a")),
                Just(Const::sym("b")),
                Just(Const::Int(4)),
                Just(Const::Num(4.0))
            ]
            .prop_map(Term::Const),
        ]
    }

    /// Literals over a small vocabulary, so conjuncts collide on sign,
    /// predicate and arity often enough for anti-unification to matter,
    /// and comparisons of a variable with a number. `4` and `4.0` are one
    /// constant.
    fn arb_literal() -> impl Strategy<Value = Literal> {
        let relational = (
            prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")],
            proptest::collection::vec(arb_term(), 0..4),
            0u8..4,
        )
            .prop_map(|(pred, args, sign)| Literal {
                positive: sign != 0,
                atom: Atom::new(pred, args),
            });
        let comparison = (
            prop_oneof![Just("X"), Just("Y"), Just("Z"), Just("U")],
            prop_oneof![Just(">"), Just("<"), Just(">="), Just("=")],
            2i64..7,
        )
            .prop_map(|(v, op, n)| Literal::pos(Atom::new(op, vec![Term::var(v), Term::int(n)])));
        prop_oneof![3 => relational, 1 => comparison]
    }

    /// A definition: safe conjuncts headed by a subject of two arguments
    /// that may hold constants and a repeated variable.
    fn arb_definition() -> impl Strategy<Value = Vec<Rule>> {
        (
            proptest::collection::vec(arb_term(), 2..3),
            proptest::collection::vec(proptest::collection::vec(arb_literal(), 0..7), 0..5),
        )
            .prop_map(|(args, dnf)| {
                let head = Atom::new("_cmp", args);
                dnf.into_iter()
                    .map(|mut c| {
                        // Rules are safe: a comparison's variables occur in
                        // the head or in a relational literal.
                        let mut bound = head.vars();
                        for l in c.iter().filter(|l| !l.is_builtin()) {
                            l.atom.collect_vars(&mut bound);
                        }
                        c.retain(|l| {
                            !l.is_builtin() || l.atom.vars().iter().all(|v| bound.contains(v))
                        });
                        Rule::with_literals(head.clone(), c)
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The shared concept generalises both chosen conjuncts, heads
        /// included; each side is its image plus its residue; a side that
        /// subsumes the other requires nothing beyond the shared concept;
        /// and nothing is both shared and required by one side only.
        #[test]
        fn the_shared_concept_generalises_both_sides(d1 in arb_definition(), d2 in arb_definition()) {
            let answer = compare_definitions(&d1, &d2);
            let (_, _, pair) = classify(&d1, &d2);
            if let Some((i, j)) = pair {
                let sides = [&d1[i], &d2[j]];
                let g = Generalisation::new(sides[0], sides[1]);
                let shared = Rule::with_literals(g.head.clone(), g.shared.clone());
                for (k, side) in sides.into_iter().enumerate() {
                    prop_assert!(semantic_subsumes(&shared, side, &[]), "{} does not generalise {}", shared, side);
                    let mut body: Vec<Literal> =
                        g.shared.iter().map(|l| g.theta[k].apply_literal(l)).collect();
                    body.extend(g.residues[k].iter().cloned());
                    let rebuilt = Rule::with_literals(side.head.clone(), body);
                    prop_assert!(semantic_subsumes(&rebuilt, side, &[]), "{} does not subsume {}", rebuilt, side);
                    prop_assert!(semantic_subsumes(side, &rebuilt, &[]), "{} does not subsume {}", side, rebuilt);
                }
                // A shared comparison is over the head's variables or a
                // shared relational literal's.
                let mut anchored = g.head.vars();
                for l in g.shared.iter().filter(|l| !l.is_builtin()) {
                    l.atom.collect_vars(&mut anchored);
                }
                for l in &g.shared {
                    prop_assert!(l.atom.vars().iter().all(|v| anchored.contains(v)), "{}", l);
                }
            }
            match answer.relationship {
                Relationship::Equivalent => {
                    prop_assert!(answer.only_first.is_empty() && answer.only_second.is_empty(), "{}", answer)
                }
                Relationship::FirstSubsumesSecond => prop_assert!(answer.only_first.is_empty(), "{}", answer),
                Relationship::SecondSubsumesFirst => prop_assert!(answer.only_second.is_empty(), "{}", answer),
                _ => {}
            }
            for l in &answer.shared {
                prop_assert!(!answer.only_first.contains(l) && !answer.only_second.contains(l), "{}", answer);
            }
        }
    }
}
