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
use qdk_logic::{rename_rule_apart, unify_atoms, Atom, Literal, Subst, VarGen};
use std::collections::HashMap;

/// One conjunctive definition: a conjunction of EDB atoms and comparisons.
pub type Conjunct = Vec<Literal>;

/// Applies the final substitution and restores the user's vocabulary: a
/// user variable that unified with a fresh rule variable is renamed back.
fn finalize(conj: &Conjunct, subst: &Subst, user_vars: &[qdk_logic::Var]) -> Conjunct {
    let mut inversion = Subst::new();
    for v in user_vars {
        if let qdk_logic::Term::Var(f) = subst.apply_term(&qdk_logic::Term::Var(v.clone())) {
            if f.is_fresh() && inversion.get(&f).is_none() {
                inversion.bind(f, qdk_logic::Term::Var(v.clone()));
            }
        }
    }
    let full = subst.compose(&inversion);
    conj.iter().map(|l| full.apply_literal(l)).collect()
}

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
    let mut gen = VarGen::new();
    let mut gov = opts.governor();
    let mut user_vars = Vec::new();
    for a in atoms {
        for v in a.vars() {
            if !user_vars.contains(&v) {
                user_vars.push(v);
            }
        }
    }
    let mut frontier: Vec<(Conjunct, Subst)> = vec![(Vec::new(), Subst::new())];
    for atom in atoms {
        let mut next = Vec::new();
        for (prefix, subst) in &frontier {
            expand_rec(
                idb,
                atom,
                subst,
                &HashMap::new(),
                opts.untyped_rule_limit + 1,
                &mut gen,
                &mut gov,
                &mut |conj, s| {
                    let mut combined = prefix.clone();
                    combined.extend(conj.iter().cloned());
                    next.push((combined, s.clone()));
                },
            )?;
        }
        frontier = next;
    }
    Ok(frontier
        .into_iter()
        .map(|(conj, subst)| finalize(&conj, &subst, &user_vars))
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn expand_rec(
    idb: &Idb,
    atom: &Atom,
    subst: &Subst,
    depth_of: &HashMap<String, usize>,
    max_unfold: usize,
    gen: &mut VarGen,
    gov: &mut Governor,
    emit: &mut dyn FnMut(&Conjunct, &Subst),
) -> Result<()> {
    gov.tick()?;
    let pred = atom.pred.as_str();
    if atom.is_builtin() || !idb.defines(pred) {
        emit(&vec![Literal::pos(atom.clone())], subst);
        return Ok(());
    }
    let unfolds = depth_of.get(pred).copied().unwrap_or(0);
    if unfolds >= max_unfold {
        // Cap reached: leave the atom folded (it names the concept).
        emit(&vec![Literal::pos(atom.clone())], subst);
        return Ok(());
    }
    let mut depth2 = depth_of.clone();
    *depth2.entry(pred.to_string()).or_insert(0) += 1;

    let rules: Vec<_> = idb.rules_for(pred).cloned().collect();
    for rule in rules {
        let (renamed, _) = rename_rule_apart(&rule, gen);
        let atom_now = subst.apply_atom(atom);
        let Some(mgu) = unify_atoms(&atom_now, &renamed.head) else {
            continue;
        };
        let s0 = subst.compose(&mgu);
        // Expand the body atoms sequentially under the threaded subst.
        let mut frontier: Vec<(Conjunct, Subst)> = vec![(Vec::new(), s0)];
        for lit in &renamed.body {
            if !lit.positive {
                // Negative literals pass through unexpanded.
                for (conj, _) in &mut frontier {
                    conj.push(lit.clone());
                }
                continue;
            }
            let mut next = Vec::new();
            for (prefix, s) in &frontier {
                expand_rec(
                    idb,
                    &lit.atom,
                    s,
                    &depth2,
                    max_unfold,
                    gen,
                    gov,
                    &mut |conj, s2| {
                        let mut combined = prefix.clone();
                        combined.extend(conj.iter().cloned());
                        next.push((combined, s2.clone()));
                    },
                )?;
            }
            frontier = next;
        }
        for (conj, s) in frontier {
            emit(&conj, &s);
        }
    }
    Ok(())
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
