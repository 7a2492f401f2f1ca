//! Substitutions, held as binding trails.

use crate::atom::{Atom, Literal};
use crate::chain::Chain;
use crate::clause::Rule;
use crate::term::{Term, Var};
use std::sync::Arc;

/// A substitution: a finite mapping from variables to terms, held as the
/// trail of Warren's abstract machine.
///
/// Each binding `v ↦ t` is recorded once, in the order it was made, and
/// `t` may be a variable bound later: the substitution is *triangular*,
/// and a lookup dereferences through such chains ([`Bindings::resolve`]).
/// Extending it is a push, and [`Bindings::undo_to`] takes back every
/// binding made since a [`Bindings::mark`], so unification, matching and
/// unfolding extend one store in place and undo on failure instead of
/// copying or composing substitutions.
///
/// [`Bindings::freeze`] moves the bindings into a prefix shared by `Arc`:
/// a persistent branch of a search (a derivation tree, a conjunction under
/// unfolding) is then a clone that costs a pointer, and it grows a trail
/// of its own. Once 32 bindings are frozen beyond the last flattening,
/// the frozen bindings are rewritten as one table sorted by variable, from
/// each variable to the term it resolves to: no lookup scans more than
/// that many bindings before a binary search, and no dereference follows
/// a renamed variable through every level of a deep derivation.
#[derive(Clone, Default, Debug)]
pub struct Bindings {
    /// The bindings frozen up to the last flattening: each bound variable
    /// once, with the term it then resolved to, sorted by variable.
    flat: Arc<[(Var, Term)]>,
    /// The bindings frozen since, one segment per freeze.
    frozen: Chain<(Var, Term)>,
    trail: Vec<(Var, Term)>,
}

/// Frozen bindings beyond the last flattening that trigger the next.
const FLATTEN_AT: usize = 32;

/// A position in a [`Bindings`] trail, to undo back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(usize);

impl Bindings {
    /// The empty (identity) substitution.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// True if the substitution is the identity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bindings recorded.
    pub fn len(&self) -> usize {
        self.frozen_len() + self.trail.len()
    }

    fn frozen_len(&self) -> usize {
        self.flat.len() + self.frozen.len()
    }

    /// The current end of the trail.
    pub fn mark(&self) -> Mark {
        Mark(self.len())
    }

    /// Takes back every binding made since `mark`. A mark taken before the
    /// last [`Bindings::freeze`] reaches back no further than the frozen
    /// prefix.
    pub fn undo_to(&mut self, mark: Mark) {
        debug_assert!(mark.0 >= self.frozen_len(), "undo below a frozen prefix");
        self.trail
            .truncate(mark.0.saturating_sub(self.frozen_len()));
    }

    /// Moves the trail into the shared prefix, so a clone costs a pointer.
    pub fn freeze(&mut self) {
        if self.trail.is_empty() {
            return;
        }
        self.frozen = self.frozen.extend(std::mem::take(&mut self.trail));
        if self.frozen.len() >= FLATTEN_AT {
            self.flatten();
        }
    }

    /// Rewrites every frozen binding into `flat`: each variable's latest
    /// binding, dereferenced through the others.
    fn flatten(&mut self) {
        let newest_first = self.frozen.segments_rev().flat_map(|s| s.iter().rev());
        let mut flat: Vec<(Var, Term)> = newest_first.chain(self.flat.iter()).cloned().collect();
        // A stable sort keeps each variable's latest binding first.
        flat.sort_by(|a, b| a.0.cmp(&b.0));
        flat.dedup_by(|later, kept| later.0 == kept.0);
        let resolved: Vec<Term> = flat
            .iter()
            .map(|(_, t)| {
                let mut t = t;
                while let Some(next) = t.as_var().and_then(|v| search(&flat, v)) {
                    t = next;
                }
                t.clone()
            })
            .collect();
        for (binding, t) in flat.iter_mut().zip(resolved) {
            binding.1 = t;
        }
        self.flat = flat.into();
        self.frozen = Chain::default();
    }

    /// The term `v` is bound to, not dereferenced; the latest binding of
    /// `v` wins.
    pub fn lookup(&self, v: &Var) -> Option<&Term> {
        let unflattened = std::iter::once(&self.trail[..]).chain(self.frozen.segments_rev());
        for segment in unflattened {
            // A plain loop: this is the hottest loop of describe, and
            // unoptimized builds run iterator adaptors far slower.
            let mut i = segment.len();
            while i > 0 {
                i -= 1;
                if segment[i].0 == *v {
                    return Some(&segment[i].1);
                }
            }
        }
        search(&self.flat, v)
    }

    /// Dereferences `t`: the constant or unbound variable its chain of
    /// bindings ends at.
    pub fn resolve<'a>(&'a self, mut t: &'a Term) -> &'a Term {
        while let Some(next) = t.as_var().and_then(|v| self.lookup(v)) {
            t = next;
        }
        t
    }

    /// Binds `v` to `t`, dereferenced. Binding a variable to itself
    /// records nothing. `v` is expected to be unbound: a second binding of
    /// `v` shadows the first.
    pub fn bind(&mut self, v: Var, t: Term) {
        let t = self.apply_term(&t);
        self.push(v, t);
    }

    /// Records `v ↦ t` for a dereferenced `t`, unless that is `v ↦ v`.
    pub(crate) fn push(&mut self, v: Var, t: Term) {
        if !matches!(&t, Term::Var(w) if *w == v) {
            self.trail.push((v, t));
        }
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        self.resolve(t).clone()
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred.clone(),
            args: a.args.iter().map(|t| self.apply_term(t)).collect(),
        }
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        Literal {
            positive: l.positive,
            atom: self.apply_atom(&l.atom),
        }
    }

    /// Applies the substitution to a rule.
    pub fn apply_rule(&self, r: &Rule) -> Rule {
        Rule {
            head: self.apply_atom(&r.head),
            body: r.body.iter().map(|l| self.apply_literal(l)).collect(),
        }
    }
}

/// The binding of `v` in a table sorted by variable.
fn search<'a>(table: &'a [(Var, Term)], v: &Var) -> Option<&'a Term> {
    let i = table.binary_search_by(|(w, _)| w.cmp(v)).ok()?;
    Some(&table[i].1)
}

impl FromIterator<(Var, Term)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        let mut s = Bindings::new();
        for (v, t) in iter {
            s.bind(v, t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_apply() {
        let mut s = Bindings::new();
        s.bind(Var::new("X"), Term::sym("databases"));
        assert_eq!(s.apply_term(&Term::var("X")), Term::sym("databases"));
        assert_eq!(s.apply_term(&Term::var("Y")), Term::var("Y"));
    }

    #[test]
    fn lookups_dereference_later_bindings() {
        let mut s = Bindings::new();
        s.bind(Var::new("X"), Term::var("Y"));
        s.bind(Var::new("Y"), Term::int(3));
        // X must now resolve all the way to 3, not stop at Y.
        assert_eq!(s.apply_term(&Term::var("X")), Term::int(3));
        assert_eq!(s.lookup(&Var::new("X")), Some(&Term::var("Y")));
    }

    #[test]
    fn chained_binding_resolves_through_existing() {
        let mut s = Bindings::new();
        s.bind(Var::new("X"), Term::int(1));
        // Binding Y to X must bind Y to 1 (X is already bound).
        s.bind(Var::new("Y"), Term::var("X"));
        assert_eq!(s.lookup(&Var::new("Y")), Some(&Term::int(1)));
    }

    #[test]
    fn self_binding_is_identity() {
        let mut s = Bindings::new();
        s.bind(Var::new("X"), Term::var("X"));
        assert!(s.is_empty());
    }

    #[test]
    fn apply_rule_substitutes_everywhere() {
        let r = Rule::new(
            Atom::new("honor", vec![Term::var("X")]),
            vec![Atom::new("student", vec![Term::var("X"), Term::var("Z")])],
        );
        let s: Bindings = [(Var::new("X"), Term::sym("ann"))].into_iter().collect();
        let r2 = s.apply_rule(&r);
        assert_eq!(r2.to_string(), "honor(ann) :- student(ann, Z).");
    }

    #[test]
    fn a_flattened_prefix_resolves_as_the_trail_did() {
        // X ↦ _1 ↦ _2 ↦ … ↦ _40, one freeze per renaming.
        let mut s = Bindings::new();
        let mut prev = Var::new("X");
        for i in 1..=40 {
            let next = Var::new(&format!("_{i}"));
            s.bind(prev, Term::Var(next.clone()));
            s.freeze();
            prev = next;
        }
        assert_eq!(s.apply_term(&Term::var("X")), Term::var("_40"));
        assert_eq!(s.apply_term(&Term::var("_7")), Term::var("_40"));
        assert_eq!(s.len(), 40);
        s.bind(Var::new("_40"), Term::int(1));
        assert_eq!(s.apply_term(&Term::var("X")), Term::int(1));
    }

    #[test]
    fn a_frozen_prefix_is_shared_and_survives_undo() {
        let mut s = Bindings::new();
        s.bind(Var::new("X"), Term::int(1));
        s.freeze();
        let mut branch = s.clone();
        let mark = branch.mark();
        branch.bind(Var::new("Y"), Term::var("X"));
        assert_eq!(branch.apply_term(&Term::var("Y")), Term::int(1));
        assert_eq!(s.lookup(&Var::new("Y")), None);
        branch.undo_to(mark);
        assert_eq!(branch.lookup(&Var::new("Y")), None);
        assert_eq!(branch.apply_term(&Term::var("X")), Term::int(1));
        assert_eq!(branch.len(), 1);
    }
}
