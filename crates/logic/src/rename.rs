//! Fresh-variable generation and renaming rules apart.

use crate::atom::Atom;
use crate::clause::Rule;
use crate::subst::Bindings;
use crate::term::{Term, Var};

/// A generator of fresh variables.
///
/// Fresh variables are named `_0`, `_1`, … — names the parser never
/// produces for user variables, so freshness against any parsed program is
/// guaranteed by construction.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u64,
}

impl VarGen {
    /// Creates a generator starting at `_0`.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var::new(&format!("_{}", self.next));
        self.next += 1;
        v
    }

    /// Returns a fresh variable whose name hints at its origin, e.g.
    /// `_3Z` for a renamed `Z`. Keeping the source name makes printed
    /// derivations easier to follow while remaining collision-free.
    pub fn fresh_from(&mut self, origin: &Var) -> Var {
        let v = Var::new(&format!("_{}{}", self.next, origin.name()));
        self.next += 1;
        v
    }
}

/// Renames all variables of `rule` to fresh ones. The renaming is
/// injective, so the result is a variant of the input (standardizing
/// apart, §4 footnote 3).
pub fn rename_rule_apart(rule: &Rule, gen: &mut VarGen) -> Rule {
    let renaming: Bindings = rule
        .vars()
        .into_iter()
        .map(|v| {
            let fresh = gen.fresh_from(&v);
            (v, Term::Var(fresh))
        })
        .collect();
    renaming.apply_rule(rule)
}

/// Renames all variables occurring in a slice of atoms to fresh ones.
pub fn rename_atoms_apart(atoms: &[Atom], gen: &mut VarGen) -> Vec<Atom> {
    let mut vars = Vec::new();
    for a in atoms {
        a.collect_vars(&mut vars);
    }
    let mut seen = Vec::new();
    for v in vars {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    let renaming: Bindings = seen
        .into_iter()
        .map(|v| {
            let fresh = gen.fresh_from(&v);
            (v, Term::Var(fresh))
        })
        .collect();
    atoms.iter().map(|a| renaming.apply_atom(a)).collect()
}

/// Renames the `i`-th variable of `rule` (in order of first occurrence,
/// head first) to `{prefix}{i}`. With a prefix no other part of the system
/// generates, matching the result against another rule never sees a
/// shared variable: one-way matching records no binding for the identity
/// `v ↦ v`, which would otherwise let a shared variable match two
/// different terms.
pub fn standardize(rule: &Rule, prefix: &str) -> Rule {
    let renaming: Bindings = rule
        .vars()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, Term::Var(Var::new(&format!("{prefix}{i}")))))
        .collect();
    renaming.apply_rule(rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct_and_flagged() {
        let mut g = VarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a.is_fresh() && b.is_fresh());
    }

    #[test]
    fn renamed_rule_shares_no_variables_with_original() {
        let r = Rule::new(
            Atom::new("prior", vec![Term::var("X"), Term::var("Y")]),
            vec![
                Atom::new("prereq", vec![Term::var("X"), Term::var("Z")]),
                Atom::new("prior", vec![Term::var("Z"), Term::var("Y")]),
            ],
        );
        let mut g = VarGen::new();
        let r2 = rename_rule_apart(&r, &mut g);
        let orig: Vec<Var> = r.vars();
        for v in r2.vars() {
            assert!(!orig.contains(&v), "{v} leaked");
        }
        // Structure is preserved: same shared-variable pattern.
        assert_eq!(r2.head.args[0], r2.body[0].atom.args[0]);
        assert_eq!(r2.body[0].atom.args[1], r2.body[1].atom.args[0]);
        assert_eq!(r2.head.args[1], r2.body[1].atom.args[1]);
    }

    #[test]
    fn renaming_is_injective() {
        let r = Rule::new(Atom::new("p", vec![Term::var("X"), Term::var("Y")]), vec![]);
        let mut g = VarGen::new();
        let r2 = rename_rule_apart(&r, &mut g);
        assert_ne!(r2.head.args[0], r2.head.args[1]);
    }

    #[test]
    fn rename_atoms_keeps_shared_structure() {
        let atoms = vec![
            Atom::new("p", vec![Term::var("X"), Term::var("Y")]),
            Atom::new("q", vec![Term::var("Y")]),
        ];
        let mut g = VarGen::new();
        let renamed = rename_atoms_apart(&atoms, &mut g);
        assert_eq!(renamed[0].args[1], renamed[1].args[0]);
        assert_ne!(renamed[0].args[0], atoms[0].args[0]);
    }

    #[test]
    fn fresh_from_embeds_origin_name() {
        let mut g = VarGen::new();
        let v = g.fresh_from(&Var::new("Gpa"));
        assert!(v.name().ends_with("Gpa"));
        assert!(v.is_fresh());
    }
}
