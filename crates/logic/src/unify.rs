//! Unification and one-way matching, in place on a [`Bindings`] trail.
//!
//! Each function extends the bindings it is given and reports success. A
//! failure binds nothing: every binding made on the way is undone, so a
//! caller that tries candidates in turn needs no copy of its bindings.

use crate::atom::Atom;
use crate::subst::Bindings;
use crate::term::Term;

/// Unifies two terms under `s`, extending it with their most general
/// unifier. Between two unbound variables, the one on the left is bound to
/// the one on the right.
pub fn unify(a: &Term, b: &Term, s: &mut Bindings) -> bool {
    let a = s.resolve(a).clone();
    let b = s.resolve(b).clone();
    match (a, b) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(v), t) | (t, Term::Var(v)) => {
            s.push(v, t);
            true
        }
    }
}

/// Unifies two atoms under `s`, extending it with their most general
/// unifier. The atoms must share predicate symbol and arity.
pub fn unify_atoms(a: &Atom, b: &Atom, s: &mut Bindings) -> bool {
    if !a.same_signature(b) {
        return false;
    }
    let mark = s.mark();
    let unified = a.args.iter().zip(&b.args).all(|(x, y)| unify(x, y, s));
    if !unified {
        s.undo_to(mark);
    }
    unified
}

/// One-way matching of terms: binds only variables of `general`, so that
/// `general·s == specific`.
fn match_term(general: &Term, specific: &Term, s: &mut Bindings) -> bool {
    match (general, specific) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(v), t) => match s.lookup(v) {
            Some(bound) => bound == t,
            None => {
                s.bind(v.clone(), t.clone());
                true
            }
        },
        (Term::Const(_), Term::Var(_)) => false,
    }
}

/// One-way matching of atoms: extends `s` so that `general·s == specific`,
/// binding only variables of `general`. Used for subsumption, where the
/// specific side must not be instantiated. The two sides must share no
/// variable (see [`standardize`](crate::standardize)), and `s` must bind
/// only variables of the general side: a bound variable is then bound to a
/// term of the specific side, which nothing binds.
pub fn match_atom(general: &Atom, specific: &Atom, s: &mut Bindings) -> bool {
    if !general.same_signature(specific) {
        return false;
    }
    let mark = s.mark();
    let matched = general
        .args
        .iter()
        .zip(&specific.args)
        .all(|(g, sp)| match_term(g, sp, s));
    if !matched {
        s.undo_to(mark);
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    fn a(p: &str, args: Vec<Term>) -> Atom {
        Atom::new(p, args)
    }

    /// The unifier of two atoms, from empty bindings.
    fn mgu(x: &Atom, y: &Atom) -> Option<Bindings> {
        let mut s = Bindings::new();
        unify_atoms(x, y, &mut s).then_some(s)
    }

    #[test]
    fn unify_var_with_const() {
        let mut s = Bindings::new();
        assert!(unify(&Term::var("X"), &Term::sym("databases"), &mut s));
        assert_eq!(s.apply_term(&Term::var("X")), Term::sym("databases"));
    }

    #[test]
    fn unify_two_vars_is_mgu() {
        let mut s = Bindings::new();
        assert!(unify(&Term::var("X"), &Term::var("Y"), &mut s));
        // One variable mapped to the other; applying makes them equal.
        assert_eq!(s.apply_term(&Term::var("X")), s.apply_term(&Term::var("Y")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unify_conflicting_consts_fails() {
        let mut s = Bindings::new();
        assert!(!unify(&Term::int(1), &Term::int(2), &mut s));
        assert!(!unify(&Term::sym("a"), &Term::sym("b"), &mut s));
    }

    #[test]
    fn unify_atoms_full() {
        let g = a(
            "complete",
            vec![Term::var("X"), Term::sym("db"), Term::var("Z")],
        );
        let h = a(
            "complete",
            vec![Term::sym("ann"), Term::var("W"), Term::int(3)],
        );
        let s = mgu(&g, &h).unwrap();
        assert_eq!(s.apply_atom(&g), s.apply_atom(&h));
    }

    #[test]
    fn unify_atoms_shared_var_conflict() {
        // p(X, X) with p(1, 2) must fail, and bind nothing.
        let g = a("p", vec![Term::var("X"), Term::var("X")]);
        let h = a("p", vec![Term::int(1), Term::int(2)]);
        let mut s = Bindings::new();
        assert!(!unify_atoms(&g, &h, &mut s));
        assert!(s.is_empty());
        // p(X, X) with p(1, 1) must succeed.
        let h2 = a("p", vec![Term::int(1), Term::int(1)]);
        assert!(mgu(&g, &h2).is_some());
    }

    #[test]
    fn unify_atoms_signature_mismatch() {
        let g = a("p", vec![Term::var("X")]);
        let h = a("q", vec![Term::var("X")]);
        assert!(mgu(&g, &h).is_none());
        let h2 = a("p", vec![Term::var("X"), Term::var("Y")]);
        assert!(mgu(&g, &h2).is_none());
    }

    #[test]
    fn unify_transitive_chain() {
        // p(X, Y, X) ≟ p(Y, 3, Z): X=Y, Y=3 ⇒ X=3, Z=X=3.
        let g = a("p", vec![Term::var("X"), Term::var("Y"), Term::var("X")]);
        let h = a("p", vec![Term::var("Y"), Term::int(3), Term::var("Z")]);
        let s = mgu(&g, &h).unwrap();
        for v in ["X", "Y", "Z"] {
            assert_eq!(s.apply_term(&Term::var(v)), Term::int(3), "var {v}");
        }
    }

    #[test]
    fn match_is_one_way() {
        let g = a("p", vec![Term::var("X")]);
        let sp = a("p", vec![Term::var("Y")]);
        let mut s = Bindings::new();
        // general var matches specific var (X ↦ Y)...
        assert!(match_atom(&g, &sp, &mut s));
        // ...but a general constant never matches a specific variable.
        let g2 = a("p", vec![Term::int(1)]);
        let mut s2 = Bindings::new();
        assert!(!match_atom(&g2, &sp, &mut s2));
    }

    #[test]
    fn match_respects_prior_bindings() {
        let g = a("p", vec![Term::var("X"), Term::var("X")]);
        let sp = a("p", vec![Term::int(1), Term::int(2)]);
        let mut s = Bindings::new();
        assert!(!match_atom(&g, &sp, &mut s));
        assert!(s.is_empty());
        let sp2 = a("p", vec![Term::int(1), Term::int(1)]);
        let mut s2 = Bindings::new();
        assert!(match_atom(&g, &sp2, &mut s2));
        assert_eq!(s2.apply_term(&Term::var("X")), Term::int(1));
    }

    #[test]
    fn mgu_is_most_general() {
        // For p(X) ≟ p(Y), any unifier factors through the mgu. We check a
        // representative case: the ground unifier {X↦1, Y↦1}, reached by
        // extending the mgu.
        let g = a("p", vec![Term::var("X")]);
        let h = a("p", vec![Term::var("Y")]);
        let mut extended = mgu(&g, &h).unwrap();
        extended.bind(Var::new("Y"), Term::int(1));
        let ground: Bindings = [(Var::new("X"), Term::int(1)), (Var::new("Y"), Term::int(1))]
            .into_iter()
            .collect();
        assert_eq!(extended.apply_atom(&g), ground.apply_atom(&g));
        assert_eq!(extended.apply_atom(&h), ground.apply_atom(&h));
    }
}
