//! Property-based tests for the logic substrate.

use proptest::prelude::*;
use qdk_logic::{
    match_atom, parser, rename_rule_apart, subsume, unify, unify_atoms, Atom, Bindings, Const,
    Rule, Term, Var, VarGen,
};

/// Strategy for constants drawn from a small pool (small pools make
/// collisions — and therefore interesting unifications — likely).
fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        (0i64..5).prop_map(Const::Int),
        prop_oneof![Just(3.3f64), Just(3.7), Just(4.0)].prop_map(Const::Num),
        prop_oneof![Just("a"), Just("b"), Just("databases")].prop_map(Const::sym),
    ]
}

fn arb_var() -> impl Strategy<Value = Var> {
    prop_oneof![Just("X"), Just("Y"), Just("Z"), Just("U"), Just("V")].prop_map(Var::new)
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_var().prop_map(Term::Var),
        arb_const().prop_map(Term::Const),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        prop_oneof![Just("p"), Just("q"), Just("r")],
        proptest::collection::vec(arb_term(), 0..4),
    )
        .prop_map(|(p, args)| Atom::new(p, args))
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (arb_atom(), proptest::collection::vec(arb_atom(), 0..4))
        .prop_map(|(head, body)| Rule::new(head, body))
}

/// Two atoms of one predicate and arity, so unification gets past the
/// signature check and fails, if it does, part way through.
fn arb_atom_pair() -> impl Strategy<Value = (Atom, Atom)> {
    proptest::collection::vec((arb_term(), arb_term()), 1..5).prop_map(|pairs| {
        let (a, b): (Vec<Term>, Vec<Term>) = pairs.into_iter().unzip();
        (Atom::new("p", a), Atom::new("p", b))
    })
}

/// Bindings made by unifying each pair in turn (pairs that fail bind
/// nothing), frozen after the first `frozen` pairs.
fn arb_bindings() -> impl Strategy<Value = Bindings> {
    (
        proptest::collection::vec((arb_var(), arb_term()), 0..5),
        0usize..5,
    )
        .prop_map(|(pairs, frozen)| {
            let mut s = Bindings::new();
            for (i, (v, t)) in pairs.into_iter().enumerate() {
                if i == frozen {
                    s.freeze();
                }
                unify(&Term::Var(v), &t, &mut s);
            }
            s
        })
}

const POOL: [&str; 5] = ["X", "Y", "Z", "U", "V"];

/// What every variable of the pool looks up and resolves to.
fn lookups(s: &Bindings) -> Vec<(Option<Term>, Term)> {
    POOL.iter()
        .map(|v| {
            let v = Var::new(v);
            (s.lookup(&v).cloned(), s.apply_term(&Term::Var(v)))
        })
        .collect()
}

/// The unifier of two atoms, from empty bindings.
fn mgu(a: &Atom, b: &Atom) -> Option<Bindings> {
    let mut s = Bindings::new();
    unify_atoms(a, b, &mut s).then_some(s)
}

proptest! {
    /// A successful unifier makes the two atoms syntactically equal.
    #[test]
    fn mgu_equalizes(a in arb_atom(), b in arb_atom()) {
        if let Some(s) = mgu(&a, &b) {
            prop_assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
        }
    }

    /// Unification is symmetric in success, and both orders equalize.
    #[test]
    fn unify_symmetric(a in arb_atom(), b in arb_atom()) {
        let ab = mgu(&a, &b);
        let ba = mgu(&b, &a);
        prop_assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(s1), Some(s2)) = (ab, ba) {
            prop_assert_eq!(s1.apply_atom(&a), s1.apply_atom(&b));
            prop_assert_eq!(s2.apply_atom(&a), s2.apply_atom(&b));
        }
    }

    /// The mgu is most general: any other unifier σ factors through it
    /// (checking the defining property on the two atoms).
    #[test]
    fn mgu_is_most_general(a in arb_atom(), b in arb_atom(), ground in arb_const()) {
        if let Some(mut sigma) = mgu(&a, &b) {
            // Build a ground unifier by grounding everything after the mgu.
            let mut vars = Vec::new();
            a.collect_vars(&mut vars);
            b.collect_vars(&mut vars);
            for v in vars {
                let t = sigma.apply_term(&Term::Var(v.clone()));
                if let Term::Var(w) = t {
                    sigma.bind(w, Term::Const(ground.clone()));
                }
            }
            // sigma is a unifier of a and b that extends the mgu.
            prop_assert_eq!(sigma.apply_atom(&a), sigma.apply_atom(&b));
        }
    }

    /// Applying a substitution is idempotent: lookups dereference through
    /// every later binding.
    #[test]
    fn subst_application_idempotent(a in arb_atom(), bindings in proptest::collection::vec((arb_var(), arb_term()), 0..5)) {
        let mut s = Bindings::new();
        for (v, t) in bindings {
            s.bind(v, t);
        }
        let once = s.apply_atom(&a);
        let twice = s.apply_atom(&once);
        prop_assert_eq!(once, twice);
    }

    /// A failed unification or match leaves every lookup, and the trail's
    /// length, as they were at its start.
    #[test]
    fn a_failed_unify_or_match_binds_nothing(s in arb_bindings(), pair in arb_atom_pair()) {
        let (mut s, (a, b)) = (s, pair);
        let before = lookups(&s);
        let mark = s.mark();
        if !unify_atoms(&a, &b, &mut s) {
            prop_assert_eq!(s.mark(), mark);
            prop_assert_eq!(lookups(&s), before.clone());
        }
        s.undo_to(mark);
        if !match_atom(&a, &b, &mut s) {
            prop_assert_eq!(s.mark(), mark);
            prop_assert_eq!(lookups(&s), before);
        }
    }

    /// Undoing to the mark taken before a successful unification or match
    /// restores every lookup.
    #[test]
    fn undo_to_a_mark_restores_every_lookup(s in arb_bindings(), pair in arb_atom_pair()) {
        let (mut s, (a, b)) = (s, pair);
        let before = lookups(&s);
        let mark = s.mark();
        if unify_atoms(&a, &b, &mut s) {
            s.undo_to(mark);
            prop_assert_eq!(lookups(&s), before.clone());
        }
        if match_atom(&a, &b, &mut s) {
            s.undo_to(mark);
            prop_assert_eq!(lookups(&s), before);
        }
    }

    /// Unifying two unbound variables binds the left one to the right.
    #[test]
    fn var_var_unification_binds_left_to_right(s in arb_bindings(), x in arb_var(), y in arb_var()) {
        let mut s = s;
        let (x, y) = (Term::Var(x), Term::Var(y));
        let (Term::Var(u), Term::Var(w)) = (s.apply_term(&x), s.apply_term(&y)) else {
            return Ok(());
        };
        prop_assert!(unify(&x, &y, &mut s));
        if u == w {
            prop_assert_eq!(s.lookup(&u), None);
        } else {
            prop_assert_eq!(s.lookup(&u), Some(&Term::Var(w.clone())));
            prop_assert_eq!(s.lookup(&w), None);
        }
    }

    /// Renaming apart yields a variant: it subsumes and is subsumed by the
    /// original rule.
    #[test]
    fn rename_apart_is_variant(r in arb_rule()) {
        let mut g = VarGen::new();
        let r2 = rename_rule_apart(&r, &mut g);
        prop_assert!(subsume::rules_equivalent(&r, &r2));
    }

    /// θ-subsumption is reflexive and transitive on generated rules.
    #[test]
    fn subsumption_reflexive(r in arb_rule()) {
        prop_assert!(subsume::rule_subsumes(&r, &r));
    }

    #[test]
    fn subsumption_transitive(a in arb_rule(), b in arb_rule(), c in arb_rule()) {
        if subsume::rule_subsumes(&a, &b) && subsume::rule_subsumes(&b, &c) {
            prop_assert!(subsume::rule_subsumes(&a, &c));
        }
    }

    /// remove_subsumed output is an antichain: no survivor subsumes another.
    #[test]
    fn remove_subsumed_antichain(rules in proptest::collection::vec(arb_rule(), 0..8)) {
        let kept = subsume::remove_subsumed(rules);
        for (i, a) in kept.iter().enumerate() {
            for (j, b) in kept.iter().enumerate() {
                if i != j {
                    prop_assert!(!subsume::rule_subsumes(a, b),
                        "{a} subsumes {b}");
                }
            }
        }
    }

    /// An instance of an atom is matched by the original (matching is
    /// complete for instances).
    #[test]
    fn match_finds_instances(a in arb_atom(), bindings in proptest::collection::vec((arb_var(), arb_const()), 0..5)) {
        let mut s = Bindings::new();
        for (v, c) in bindings {
            s.bind(v, Term::Const(c));
        }
        let instance = s.apply_atom(&a);
        // Standardize the general side apart to avoid shared variables.
        let mut g = VarGen::new();
        let renamed = rename_rule_apart(&Rule::new(a, vec![]), &mut g);
        let mut m = Bindings::new();
        prop_assert!(match_atom(&renamed.head, &instance, &mut m));
        prop_assert_eq!(m.apply_atom(&renamed.head), instance);
    }

    /// Display → parse is the identity on rules (round-trip).
    #[test]
    fn display_parse_roundtrip(r in arb_rule()) {
        let printed = r.to_string();
        let reparsed = parser::parse_rule(&printed).unwrap();
        prop_assert_eq!(reparsed, r);
    }
}
