//! Expansion of concepts to extensional vocabulary.
//!
//! The §6 extensions (hypothetical possibility, `compare`) need the
//! *meaning* of a concept spelled out in EDB terms: the disjunction of
//! conjunctive definitions obtained by unfolding IDB predicates through
//! their rules. This module computes that DNF, bounding recursion by a
//! per-predicate unfolding cap per branch (recursive concepts have
//! infinitely many unfoldings; the bounded prefix is what the §6
//! comparisons need, and the cap is configurable).

use crate::config::DescribeOptions;
use crate::error::Result;
use qdk_engine::Idb;
use qdk_logic::governor::Governor;
use qdk_logic::{unify_atoms, Atom, Bindings, Chain, Literal, Rule, Sym, Term, Var, VarGen};
use std::sync::Arc;

/// One conjunctive definition: a conjunction of EDB atoms and comparisons.
pub type Conjunct = Vec<Literal>;

/// A conjunction under construction: where its literals are, and the
/// substitution threaded through them, frozen. Extending it shares both
/// with every other conjunction extended from the same one.
#[derive(Clone, Default)]
struct Partial {
    literals: Chain<Place>,
    subst: Bindings,
}

/// A literal of [`Expander::bodies`]: body `.0`, literal `.1`.
type Place = (usize, usize);

/// Expands a conjunction of atoms into its DNF of extensional
/// definitions: the cross product of its atoms' expansions, threading one
/// global substitution (shared variables stay shared).
///
/// Non-IDB atoms expand to themselves. Each IDB rule contributes the
/// expansions of its body. A predicate is unfolded at most
/// `opts.untyped_rule_limit + 1` times along any one branch, which bounds
/// recursive concepts.
///
/// Unlike `describe` (which returns truncated answers), expansion has no
/// meaningful partial result — a prefix of a DNF misrepresents the
/// concept's meaning — so resource exhaustion here is an error
/// ([`crate::DescribeError::Exhausted`]).
pub fn expand_conjunction(
    idb: &Idb,
    atoms: &[Atom],
    opts: &DescribeOptions,
) -> Result<Vec<Conjunct>> {
    let mut user_vars = Vec::new();
    for a in atoms {
        for v in a.vars() {
            if !user_vars.contains(&v) {
                user_vars.push(v);
            }
        }
    }
    let top: Arc<[Literal]> = atoms.iter().cloned().map(Literal::pos).collect();
    let mut x = Expander {
        idb,
        max_unfold: opts.untyped_rule_limit + 1,
        unfolding: Vec::new(),
        bodies: vec![top.clone()],
        gen: VarGen::new(),
        gov: opts.governor(),
    };
    let mut frontier = vec![Partial::default()];
    for (i, lit) in top.iter().enumerate() {
        let mut next = Vec::new();
        for partial in &frontier {
            x.expand(lit, (0, i), partial, &mut next)?;
        }
        frontier = next;
    }
    Ok(frontier
        .iter()
        .map(|partial| x.finalize(partial, &user_vars))
        .collect())
}

/// The state of one expansion: the fresh-variable generator and governor
/// it threads through, every rule body it has renamed, and the
/// predicates being unfolded on the current branch, innermost last.
struct Expander<'i> {
    idb: &'i Idb,
    max_unfold: usize,
    unfolding: Vec<Sym>,
    /// The expanded atoms (as positive literals), then each renamed
    /// rule's body.
    bodies: Vec<Arc<[Literal]>>,
    gen: VarGen,
    gov: Governor,
}

impl Expander<'_> {
    /// Pushes onto `out` each extension of `partial` by one expansion of
    /// `lit`'s atom, found at `place`, in rule order. Every expansion of
    /// the atom is found (and its rules renamed apart) before the caller
    /// expands the next atom, so fresh names follow the breadth of the
    /// conjunction.
    fn expand(
        &mut self,
        lit: &Literal,
        place: Place,
        partial: &Partial,
        out: &mut Vec<Partial>,
    ) -> Result<()> {
        self.gov.tick()?;
        let atom = &lit.atom;
        let pred = &atom.pred;
        let unfolds = self.unfolding.iter().filter(|p| *p == pred).count();
        if atom.is_builtin() || !self.idb.defines(pred.as_str()) || unfolds >= self.max_unfold {
            // Extensional, or the cap is reached: the atom stays folded
            // (it names the concept).
            out.push(Partial {
                literals: partial.literals.push(place),
                subst: partial.subst.clone(),
            });
            return Ok(());
        }
        self.unfolding.push(pred.clone());
        let result = self.expand_rules(atom, partial, out);
        self.unfolding.pop();
        result
    }

    fn expand_rules(
        &mut self,
        atom: &Atom,
        partial: &Partial,
        out: &mut Vec<Partial>,
    ) -> Result<()> {
        let idb = self.idb;
        for rule in idb.rules_for(atom.pred.as_str()) {
            let (head, body) = rename_apart(rule, &mut self.gen);
            let mut subst = partial.subst.clone();
            if !unify_atoms(atom, &head, &mut subst) {
                continue;
            }
            subst.freeze();
            let b = self.bodies.len();
            self.bodies.push(body.clone());
            // Expand the body atoms sequentially under the threaded subst.
            let mut frontier = vec![Partial {
                literals: partial.literals.clone(),
                subst,
            }];
            for (i, lit) in body.iter().enumerate() {
                if !lit.positive {
                    // Negative literals pass through unexpanded.
                    for p in &mut frontier {
                        p.literals = p.literals.push((b, i));
                    }
                    continue;
                }
                let mut next = Vec::new();
                for p in &frontier {
                    self.expand(lit, (b, i), p, &mut next)?;
                }
                frontier = next;
            }
            out.append(&mut frontier);
        }
        Ok(())
    }

    /// Writes out a finished conjunction: its final substitution applied,
    /// then the user's vocabulary restored (a user variable that unified
    /// with a fresh rule variable is renamed back).
    fn finalize(&self, partial: &Partial, user_vars: &[Var]) -> Conjunct {
        let mut inversion = Bindings::new();
        for v in user_vars {
            if let Term::Var(f) = partial.subst.apply_term(&Term::Var(v.clone())) {
                if f.is_fresh() && inversion.lookup(&f).is_none() {
                    inversion.bind(f, Term::Var(v.clone()));
                }
            }
        }
        let mut conjunct = Vec::with_capacity(partial.literals.len());
        conjunct.extend(partial.literals.items_from(0).map(|&(b, i)| {
            let lit = &self.bodies[b][i];
            Literal {
                positive: lit.positive,
                atom: Atom {
                    pred: lit.atom.pred.clone(),
                    args: lit
                        .atom
                        .args
                        .iter()
                        .map(|t| inversion.apply_term(partial.subst.resolve(t)))
                        .collect(),
                },
            }
        }));
        conjunct
    }
}

/// The rule with every variable renamed to a fresh one, in order of first
/// occurrence (head first): the names `rename_rule_apart` gives.
fn rename_apart<'r>(rule: &'r Rule, gen: &mut VarGen) -> (Atom, Arc<[Literal]>) {
    let mut fresh: Vec<(&'r Var, Term)> = Vec::new();
    let mut rename = |a: &'r Atom| Atom {
        pred: a.pred.clone(),
        args: a
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => match fresh.iter().find(|(w, _)| *w == v) {
                    Some((_, f)) => f.clone(),
                    None => {
                        let f = Term::Var(gen.fresh_from(v));
                        fresh.push((v, f.clone()));
                        f
                    }
                },
                constant => constant.clone(),
            })
            .collect(),
    };
    let head = rename(&rule.head);
    let body = rule
        .body
        .iter()
        .map(|l| Literal {
            positive: l.positive,
            atom: rename(&l.atom),
        })
        .collect();
    (head, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_program};

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    /// The expansion of one atom: a conjunction of length one.
    fn expand(i: &Idb, atom: &str, opts: &DescribeOptions) -> Result<Vec<Conjunct>> {
        expand_conjunction(i, &[parse_atom(atom).unwrap()], opts)
    }

    fn rendered(conjs: &[Conjunct]) -> Vec<String> {
        let mut v: Vec<String> = conjs
            .iter()
            .map(|c| {
                c.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ∧ ")
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn edb_atom_expands_to_itself() {
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let e = expand(&i, "student(A, B, C)", &DescribeOptions::default()).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].len(), 1);
    }

    #[test]
    fn single_rule_unfolds() {
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let e = expand(&i, "honor(A)", &DescribeOptions::default()).unwrap();
        assert_eq!(e.len(), 1);
        let conj = &e[0];
        assert_eq!(conj.len(), 2);
        assert_eq!(conj[0].atom.pred, "student");
        // Head variable A propagates into the expansion.
        assert_eq!(conj[0].atom.args[0], qdk_logic::Term::var("A"));
    }

    #[test]
    fn multiple_rules_give_disjuncts() {
        let i = idb("can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3.\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).\n\
             honor(X) :- student(X, Y, Z), Z > 3.7.");
        let e = expand(&i, "can_ta(A, B)", &DescribeOptions::default()).unwrap();
        // Two rules × one honor expansion each.
        assert_eq!(e.len(), 2);
        for conj in &e {
            assert!(conj.iter().any(|l| l.atom.pred == "student"));
            assert!(conj.iter().all(|l| l.atom.pred != "honor"));
        }
    }

    #[test]
    fn recursive_unfolding_is_capped() {
        let i = idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).");
        let e = expand(&i, "prior(A, B)", &DescribeOptions::default()).unwrap();
        // Terminates; folded prior atoms mark the cap.
        assert!(!e.is_empty());
        assert!(e.iter().any(|c| c.iter().any(|l| l.atom.pred == "prior")));
    }

    #[test]
    fn conjunction_expansion_shares_variables() {
        let i = idb("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let atoms = vec![
            parse_atom("honor(A)").unwrap(),
            parse_atom("enroll(A, databases)").unwrap(),
        ];
        let e = expand_conjunction(&i, &atoms, &DescribeOptions::default()).unwrap();
        assert_eq!(e.len(), 1);
        let conj = &e[0];
        // The student atom and the enroll atom share A.
        let student = conj.iter().find(|l| l.atom.pred == "student").unwrap();
        let enroll = conj.iter().find(|l| l.atom.pred == "enroll").unwrap();
        assert_eq!(student.atom.args[0], enroll.atom.args[0]);
        let _ = rendered(&e);
    }

    #[test]
    fn budget_applies() {
        let i = idb("prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).");
        let err = expand(
            &i,
            "prior(A, B)",
            &DescribeOptions::default().with_work_budget(2),
        )
        .unwrap_err();
        let crate::DescribeError::Exhausted(e) = err else {
            panic!("expected Exhausted, got {err:?}");
        };
        assert_eq!(e.resource, qdk_logic::governor::Resource::WorkBudget);
        assert_eq!(e.limit, 2);
    }
}
