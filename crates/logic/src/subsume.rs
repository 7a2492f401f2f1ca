//! θ-subsumption between clauses.
//!
//! A clause `C` θ-subsumes a clause `D` when there is a substitution σ with
//! `C·σ ⊆ D` (literal-wise). For the Horn rules of this system, `p ← φ`
//! subsumes `p' ← φ'` when a single σ maps the head of the first onto the
//! head of the second and every body literal of the first onto *some* body
//! literal of the second. Subsumption implies logical consequence, and the
//! paper (§3.2) defines an answer to a knowledge query to be *free of
//! redundancies* if none of its formulas is a logical consequence of
//! another — the describe engine uses this module to enforce that.

use crate::atom::Literal;
use crate::clause::Rule;
use crate::rename::standardize;
use crate::subst::Bindings;
use crate::unify::match_atom;

/// True if `general` θ-subsumes `specific`.
pub fn rule_subsumes(general: &Rule, specific: &Rule) -> bool {
    let general = standardize(general, "_sub");
    let mut s = Bindings::new();
    match_atom(&general.head, &specific.head, &mut s)
        && body_maps_into(&general.body, &specific.body, &mut s)
}

/// True if the conjunction `general` maps into the conjunction `specific`
/// under some substitution (each literal of `general` matched to some
/// literal of `specific`; repeats allowed).
pub fn body_subsumes(general: &[Literal], specific: &[Literal]) -> bool {
    // Reuse rule standardization by wrapping the literals in a dummy head.
    let dummy = crate::atom::Atom::new("_sub_head", vec![]);
    let wrapped = standardize(&Rule::with_literals(dummy, general.to_vec()), "_sub");
    body_maps_into(&wrapped.body, specific, &mut Bindings::new())
}

/// True if `general` maps into `specific` under some extension of `s`.
fn body_maps_into(general: &[Literal], specific: &[Literal], s: &mut Bindings) -> bool {
    let Some((first, rest)) = general.split_first() else {
        return true;
    };
    for lit in specific {
        if lit.positive != first.positive {
            continue;
        }
        let mark = s.mark();
        if match_atom(&first.atom, &lit.atom, s) && body_maps_into(rest, specific, s) {
            return true;
        }
        s.undo_to(mark);
    }
    false
}

/// True if the two rules subsume each other (are equivalent up to variable
/// renaming and redundant literals).
pub fn rules_equivalent(a: &Rule, b: &Rule) -> bool {
    rule_subsumes(a, b) && rule_subsumes(b, a)
}

/// Removes from `rules` every rule that is θ-subsumed by another (keeping
/// the first of any equivalent pair). The relative order of survivors is
/// preserved. This implements the paper's redundancy-freedom requirement
/// for knowledge answers.
pub fn remove_subsumed(rules: Vec<Rule>) -> Vec<Rule> {
    let mut kept: Vec<Rule> = Vec::with_capacity(rules.len());
    'outer: for r in rules {
        // Drop r if something already kept subsumes it.
        for k in &kept {
            if rule_subsumes(k, &r) {
                continue 'outer;
            }
        }
        // Drop anything kept that r strictly subsumes.
        kept.retain(|k| !rule_subsumes(&r, k));
        kept.push(r);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn r(src_head: Atom, body: Vec<Atom>) -> Rule {
        Rule::new(src_head, body)
    }

    fn a(p: &str, args: Vec<Term>) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn identical_rules_subsume() {
        let x = r(
            a("honor", vec![Term::var("X")]),
            vec![a("student", vec![Term::var("X"), Term::var("Y")])],
        );
        assert!(rule_subsumes(&x, &x));
        assert!(rules_equivalent(&x, &x));
    }

    #[test]
    fn variant_rules_are_equivalent() {
        let x = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let y = r(
            a("p", vec![Term::var("A")]),
            vec![a("q", vec![Term::var("A"), Term::var("B")])],
        );
        assert!(rules_equivalent(&x, &y));
    }

    #[test]
    fn more_general_subsumes_instance() {
        // p(X) :- q(X, Y)  subsumes  p(X) :- q(X, databases).
        let gen = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let spec = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::sym("databases")])],
        );
        assert!(rule_subsumes(&gen, &spec));
        assert!(!rule_subsumes(&spec, &gen));
    }

    #[test]
    fn shorter_body_subsumes_longer() {
        // p(X) :- q(X)  subsumes  p(X) :- q(X), r(X).
        let short = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X")])],
        );
        let long = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X")]), a("r", vec![Term::var("X")])],
        );
        assert!(rule_subsumes(&short, &long));
        assert!(!rule_subsumes(&long, &short));
    }

    #[test]
    fn shared_variable_blocks_subsumption() {
        // p(X) :- q(X, X)  does NOT subsume  p(X) :- q(X, Y).
        let diag = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("X")])],
        );
        let gen = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("Y")])],
        );
        assert!(!rule_subsumes(&diag, &gen));
        assert!(rule_subsumes(&gen, &diag));
    }

    #[test]
    fn negative_literals_only_match_negative() {
        let neg = Rule::with_literals(
            a("p", vec![Term::var("X")]),
            vec![Literal::neg(a("q", vec![Term::var("X")]))],
        );
        let pos = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X")])],
        );
        assert!(!rule_subsumes(&neg, &pos));
        assert!(!rule_subsumes(&pos, &neg));
        assert!(rule_subsumes(&neg, &neg));
    }

    #[test]
    fn remove_subsumed_keeps_most_general() {
        let gen = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let spec = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::sym("db")])],
        );
        let other = r(
            a("p", vec![Term::var("X")]),
            vec![a("r", vec![Term::var("X")])],
        );
        let out = remove_subsumed(vec![spec.clone(), gen.clone(), other.clone()]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&gen));
        assert!(out.contains(&other));
        assert!(!out.contains(&spec));
    }

    #[test]
    fn remove_subsumed_dedups_variants() {
        let x = r(
            a("p", vec![Term::var("X")]),
            vec![a("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let y = r(
            a("p", vec![Term::var("A")]),
            vec![a("q", vec![Term::var("A"), Term::var("B")])],
        );
        let out = remove_subsumed(vec![x.clone(), y]);
        assert_eq!(out, vec![x]);
    }

    #[test]
    fn body_subsumes_conjunctions() {
        let g = vec![Literal::pos(a("q", vec![Term::var("X")]))];
        let s = vec![
            Literal::pos(a("q", vec![Term::sym("a")])),
            Literal::pos(a("r", vec![Term::sym("b")])),
        ];
        assert!(body_subsumes(&g, &s));
        assert!(!body_subsumes(&s, &g));
        assert!(body_subsumes(&[], &s));
    }
}
