//! Adornment derivation and sideways information passing (SIP) for the
//! QSQ net builder ([`crate::qsq`]).
//!
//! The demand-driven strategy specializes predicates per *binding
//! pattern*: an adornment marks each argument position bound (`b`) or
//! free (`f`), and a left-to-right walk over a rule body propagates
//! bindings sideways — a positive database literal binds every variable
//! it mentions, a built-in `=` binds both sides once either is bound,
//! and other comparisons only filter. This module is the single source
//! of truth for which adornment a body literal receives, and for the one
//! departure from left-to-right order: a *persistent* recursive
//! occurrence is visited first ([`persistent_occurrence`]).

use qdk_logic::{Atom, Literal, Rule, Term, Var};
use std::collections::HashSet;

/// A binding pattern: `true` = bound, per argument position.
pub type Adornment = Vec<bool>;

/// The `b`/`f` rendering of an adornment (`[true, false]` → `"bf"`).
pub fn suffix(a: &Adornment) -> String {
    a.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
}

/// Computes the adornment of `atom` given the set of bound variables:
/// an argument is bound if it is a constant or a bound variable.
pub fn adorn_atom(atom: &Atom, bound: &HashSet<Var>) -> Adornment {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .collect()
}

/// The bound arguments of an atom under an adornment.
pub fn bound_args(atom: &Atom, a: &Adornment) -> Vec<Term> {
    atom.args
        .iter()
        .zip(a)
        .filter(|(_, b)| **b)
        .map(|(t, _)| t.clone())
        .collect()
}

/// The sideways-information-passing walk over one rule body: tracks the
/// set of bound variables as literals are passed left to right.
///
/// Construction binds the head variables in bound positions; a positive
/// database literal then binds everything it mentions, and built-ins
/// bind nothing except through `=` (both sides become bound once either
/// side is bound or constant — mirroring the goal-directed evaluator's
/// conservative treatment).
#[derive(Clone, Debug)]
pub struct SipWalk {
    bound: HashSet<Var>,
}

impl SipWalk {
    /// Starts a walk for a rule whose head is adorned by `a`: the head
    /// variables in bound positions are the initially bound set.
    pub fn new(head: &Atom, a: &Adornment) -> Self {
        let mut bound = HashSet::new();
        for (t, b) in head.args.iter().zip(a) {
            if *b {
                if let Term::Var(v) = t {
                    bound.insert(v.clone());
                }
            }
        }
        SipWalk { bound }
    }

    /// The adornment `atom` receives at the current point of the walk.
    pub fn adorn(&self, atom: &Atom) -> Adornment {
        adorn_atom(atom, &self.bound)
    }

    /// True if `v` is bound at the current point of the walk.
    pub fn is_bound(&self, v: &Var) -> bool {
        self.bound.contains(v)
    }

    /// Passes one body literal: a positive database literal binds all
    /// its variables; a built-in binds only through `=` (both sides
    /// bound once either side is bound or constant); negative literals
    /// bind nothing.
    pub fn absorb(&mut self, lit: &Literal) {
        let atom = &lit.atom;
        if atom.is_builtin() {
            if atom.pred.as_str() == "=" && atom.args.len() == 2 {
                let side_bound = |t: &Term| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => self.bound.contains(v),
                };
                if side_bound(&atom.args[0]) || side_bound(&atom.args[1]) {
                    for t in &atom.args {
                        if let Term::Var(v) = t {
                            self.bound.insert(v.clone());
                        }
                    }
                }
            }
            return;
        }
        if lit.positive {
            let mut vs = Vec::new();
            atom.collect_vars(&mut vs);
            self.bound.extend(vs);
        }
    }
}

/// The body position of `rule`'s *persistent* recursive occurrence under
/// `a`, if it has one: the first positive occurrence of the head's own
/// predicate that, visited before every other literal, is adorned `a`
/// itself and bound to the head's own bound arguments.
///
/// The walk visits such an occurrence first. Its demand is then the
/// identity (`input_p^a(Y) :- input_p^a(Y)`), so the net gains no new
/// subquery: `prior(X, Y) :- prereq(X, Z), prior(Z, Y)` under `fb` no
/// longer demands `prior[bb]` once per `prereq` edge, and its answer
/// relation holds the answers and nothing else.
pub fn persistent_occurrence(rule: &Rule, a: &Adornment) -> Option<usize> {
    let walk = SipWalk::new(&rule.head, a);
    let head_bound = bound_args(&rule.head, a);
    rule.body.iter().position(|lit| {
        lit.positive
            && lit.atom.pred == rule.head.pred
            && walk.adorn(&lit.atom) == *a
            && bound_args(&lit.atom, a) == head_bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_body, parse_rule};

    fn walk_for(head: &str, pattern: &[bool]) -> SipWalk {
        SipWalk::new(&parse_atom(head).unwrap(), &pattern.to_vec())
    }

    #[test]
    fn suffix_renders_bound_free() {
        assert_eq!(suffix(&vec![true, false]), "bf");
        assert_eq!(suffix(&vec![]), "");
    }

    #[test]
    fn head_adornment_seeds_bound_vars() {
        let walk = walk_for("prior(X, Y)", &[true, false]);
        assert!(walk.is_bound(&Var::new("X")));
        assert!(!walk.is_bound(&Var::new("Y")));
    }

    #[test]
    fn positive_literal_binds_all_its_vars() {
        let mut walk = walk_for("prior(X, Y)", &[true, false]);
        let body = parse_body("prereq(X, Z)").unwrap();
        // Before the literal passes, Z is free — the recursive occurrence
        // prior(Z, Y) would be adorned ff.
        let rec = parse_atom("prior(Z, Y)").unwrap();
        assert_eq!(walk.adorn(&rec), vec![false, false]);
        walk.absorb(&body[0]);
        // After: Z is bound sideways, the recursive occurrence is bf.
        assert_eq!(walk.adorn(&rec), vec![true, false]);
    }

    #[test]
    fn equality_builtin_propagates_bindings_both_ways() {
        let mut walk = walk_for("p(X)", &[true]);
        for lit in parse_body("X = Y, q(Y, Z)").unwrap() {
            walk.absorb(&lit);
        }
        assert!(walk.is_bound(&Var::new("Y")));
        assert!(walk.is_bound(&Var::new("Z")));
    }

    #[test]
    fn comparison_builtins_bind_nothing() {
        let mut walk = walk_for("p(X)", &[true]);
        walk.absorb(&parse_body("Y > 3").unwrap()[0]);
        assert!(!walk.is_bound(&Var::new("Y")));
    }

    #[test]
    fn constants_adorn_bound() {
        let walk = walk_for("p(X)", &[false]);
        let atom = parse_atom("q(c1, X)").unwrap();
        assert_eq!(walk.adorn(&atom), vec![true, false]);
        assert_eq!(bound_args(&atom, &walk.adorn(&atom)).len(), 1);
    }

    #[test]
    fn persistent_occurrence_repeats_the_bound_head() {
        let rule = |src: &str| parse_rule(src).unwrap();
        let linear = rule("prior(X, Y) :- prereq(X, Z), prior(Z, Y).");
        assert_eq!(persistent_occurrence(&linear, &vec![false, true]), Some(1));
        assert_eq!(persistent_occurrence(&linear, &vec![true, false]), None);
        // A constant where the head is free changes the adornment.
        let constant = rule("p(X, Y) :- e(X, Z), p(c0, Y).");
        assert_eq!(persistent_occurrence(&constant, &vec![false, true]), None);
    }

    /// The SIP decisions, pinned end to end through the net they drive:
    /// which `pred[adornment]` subqueries a bound query demands.
    mod sip_pins {
        use crate::idb::Idb;
        use crate::plan::ProgramPlan;
        use crate::qsq::explain_net;
        use crate::query::Retrieve;
        use qdk_logic::parser::{parse_atom, parse_program};
        use qdk_storage::Edb;

        /// The demanded `pred[adornment]` subqueries of `subject`, in the
        /// net's BFS order, minus the per-query wrapper.
        fn demanded(rules: &str, subject: &str) -> Vec<String> {
            let idb = Idb::from_rules(parse_program(rules).unwrap().rules).unwrap();
            let edb = Edb::new();
            let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
            let query = Retrieve::new(parse_atom(subject).unwrap(), vec![]);
            explain_net(&edb, &idb, &plan, &query)
                .unwrap()
                .lines()
                .filter_map(|l| l.strip_prefix("subquery "))
                .filter_map(|l| l.split_whitespace().next())
                .filter(|s| !s.starts_with("__qsq_query"))
                .map(str::to_string)
                .collect()
        }

        const PRIOR: &str = "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).";

        #[test]
        fn transitive_closure_bound_first_adorns_bf_only() {
            assert_eq!(demanded(PRIOR, "prior(c3, Y)"), ["prior[bf]"]);
        }

        #[test]
        fn bound_second_adorns_fb() {
            // The second rule's recursive occurrence prior(Z, Y) repeats
            // the head's bound Y, so the walk visits it first, under fb
            // itself: its demand is the identity, and no bb variant (one
            // subquery per prereq edge) appears.
            assert_eq!(demanded(PRIOR, "prior(X, c2)"), ["prior[fb]"]);
        }

        #[test]
        fn non_persistent_occurrence_keeps_its_ordinary_demands() {
            // p(Z, W) does not repeat the head's bound Y, so the walk keeps
            // source order: e(X, Z) binds Z sideways and p is demanded bf.
            let rules = "p(X, Y) :- e(X, Y).\n\
                 p(X, Y) :- e(X, Z), p(Z, W), e(W, Y).";
            assert_eq!(demanded(rules, "p(X, c2)"), ["p[fb]", "p[bf]"]);
        }

        #[test]
        fn mutual_recursion_adorns_both_predicates_bound() {
            let rules = "even(X) :- zero(X).\n\
                 even(X) :- succ(Y, X), odd(Y).\n\
                 odd(X) :- succ(Y, X), even(Y).";
            assert_eq!(demanded(rules, "even(n4)"), ["even[b]", "odd[b]"]);
        }

        #[test]
        fn equality_propagates_bindings_into_the_demand() {
            // `=` with a bound left side binds W before r(W, Z) is
            // reached, so r is demanded with its first argument bound.
            let rules = "p(X, Z) :- q(X, Y), Y = W, r(W, Z).\n\
                 q(X, Y) :- e(X, Y).\n\
                 r(X, Y) :- e(X, Y).";
            assert_eq!(demanded(rules, "p(c1, Z)"), ["p[bf]", "q[bf]", "r[bf]"]);
        }
    }
}
