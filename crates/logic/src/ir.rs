//! Compiled intermediate representation of rules.
//!
//! Term-level code (unification, subsumption, unfolding) binds variables
//! on a [`Bindings`](crate::Bindings) trail, where a lookup searches the
//! trail by variable name. The compiled representation instead assigns
//! every distinct variable of a rule a *positional slot* once, at compile
//! time, so execution state collapses to a flat [`Frame`]: a
//! `Vec<Option<Const>>` indexed by slot. Binding is a vector write,
//! unbinding on backtrack is a vector write of `None`, and no search or
//! hashing happens on the hot path.
//!
//! A [`CompiledRule`] keeps its [`Rule`] source alongside the slot-mapped
//! atoms so diagnostics (unsafe-rule reports, non-ground heads) can be
//! rendered exactly as the uncompiled evaluator rendered them.

use crate::clause::Rule;
use crate::intern::{Interner, SymId};
use crate::symbol::Sym;
use crate::term::{Const, Term, Var};
use crate::{Atom, Literal};
use std::fmt;

/// Flat positional binding state: one entry per rule slot.
///
/// `None` means the slot's variable is still unbound. Cloning a frame is a
/// single `Vec` clone — but the executor rarely needs to: bindings made
/// while matching a tuple are undone in place on backtrack.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame(Vec<Option<Const>>);

impl Frame {
    /// An all-unbound frame with `n` slots.
    pub fn new(n: usize) -> Self {
        Frame(vec![None; n])
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the frame has no slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value bound to `slot`, if any.
    pub fn get(&self, slot: u32) -> Option<&Const> {
        self.0[slot as usize].as_ref()
    }

    /// Binds `slot` to `value` (overwrites silently; the executor checks
    /// compatibility first).
    pub fn set(&mut self, slot: u32, value: Const) {
        self.0[slot as usize] = Some(value);
    }

    /// Unbinds `slot`.
    pub fn clear(&mut self, slot: u32) {
        self.0[slot as usize] = None;
    }
}

/// A term in slot form: a positional slot or an inline constant.
#[derive(Clone, Debug, PartialEq)]
pub enum IrTerm {
    /// The rule variable assigned this slot.
    Slot(u32),
    /// A constant occurrence.
    Const(Const),
}

impl IrTerm {
    /// Resolves the term under `frame`: the bound value, the constant, or
    /// `None` for an unbound slot.
    pub fn resolve<'a>(&'a self, frame: &'a Frame) -> Option<&'a Const> {
        match self {
            IrTerm::Slot(s) => frame.get(*s),
            IrTerm::Const(c) => Some(c),
        }
    }
}

/// An atom in slot form. The textual predicate [`Sym`] rides along with
/// its dense [`SymId`] so execution never hashes strings and diagnostics
/// never consult the interner.
#[derive(Clone, Debug, PartialEq)]
pub struct IrAtom {
    /// The predicate symbol (for rendering and storage lookups).
    pub pred: Sym,
    /// The predicate's dense id in the owning program's interner.
    pub pred_id: SymId,
    /// The argument terms in slot form.
    pub args: Vec<IrTerm>,
}

impl IrAtom {
    /// Reifies the atom under `frame` back into the term vocabulary:
    /// bound slots become constants, unbound slots their source variable.
    /// Used only off the hot path, for diagnostics.
    pub fn reify(&self, frame: &Frame, slots: &[Var]) -> Atom {
        let args = self
            .args
            .iter()
            .map(|t| match t {
                IrTerm::Const(c) => Term::Const(c.clone()),
                IrTerm::Slot(s) => match frame.get(*s) {
                    Some(c) => Term::Const(c.clone()),
                    None => Term::Var(slots[*s as usize].clone()),
                },
            })
            .collect();
        Atom::new(self.pred.clone(), args)
    }
}

impl fmt::Display for IrAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/", self.pred)?;
        write!(f, "{}", self.args.len())
    }
}

/// A literal in slot form.
#[derive(Clone, Debug, PartialEq)]
pub struct IrLiteral {
    /// Polarity.
    pub positive: bool,
    /// The underlying atom.
    pub atom: IrAtom,
}

/// A rule compiled to slot form.
///
/// Slots are assigned to the rule's distinct variables in order of first
/// occurrence, head first — the same order as [`Rule::vars`] — so slot 0
/// is the first head variable and head projection is a prefix-friendly
/// gather.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The head in slot form.
    pub head: IrAtom,
    /// The body in slot form, in source order.
    pub body: Vec<IrLiteral>,
    /// Slot index → source variable (for reification and diagnostics).
    pub slots: Vec<Var>,
    /// The uncompiled rule, kept for diagnostics that must render the
    /// original text (`EngineError::UnsafeRule` carries `rule.to_string()`).
    pub source: Rule,
}

impl CompiledRule {
    /// Compiles `rule`, interning every predicate symbol into `interner`.
    pub fn compile(rule: &Rule, interner: &mut Interner) -> Self {
        let slots = rule.vars();
        let slot_of = |v: &Var| -> u32 {
            // Rule::vars() is tiny (a handful of variables); linear scan
            // beats building a map at compile time too.
            slots
                .iter()
                .position(|s| s == v)
                .map(|i| i as u32)
                .unwrap_or(u32::MAX)
        };
        let compile_atom = |a: &Atom, interner: &mut Interner| -> IrAtom {
            IrAtom {
                pred: a.pred.clone(),
                pred_id: interner.intern(&a.pred),
                args: a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => IrTerm::Slot(slot_of(v)),
                        Term::Const(c) => IrTerm::Const(c.clone()),
                    })
                    .collect(),
            }
        };
        let head = compile_atom(&rule.head, interner);
        let body = rule
            .body
            .iter()
            .map(|l| IrLiteral {
                positive: l.positive,
                atom: compile_atom(&l.atom, interner),
            })
            .collect();
        CompiledRule {
            head,
            body,
            slots,
            source: rule.clone(),
        }
    }

    /// Number of slots (distinct variables) in the rule.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slot assigned to `v`, if `v` occurs in the rule.
    pub fn slot_of(&self, v: &Var) -> Option<u32> {
        self.slots.iter().position(|s| s == v).map(|i| i as u32)
    }

    /// Standardizes the rule apart using the slot map instead of
    /// re-collecting variables: one fresh variable per slot (slot order is
    /// exactly [`Rule::vars`] order, so the fresh names match
    /// [`rename_rule_apart`](crate::rename_rule_apart) byte for byte),
    /// then a direct gather through the head/body slot maps. This lets the
    /// derivation-tree enumerator (`describe`) rename rules from the same
    /// compiled program representation the `retrieve` executor runs.
    pub fn rename_apart(&self, gen: &mut crate::VarGen) -> Rule {
        let fresh: Vec<Var> = self.slots.iter().map(|v| gen.fresh_from(v)).collect();
        let atom = |a: &IrAtom| -> Atom {
            Atom::new(
                a.pred.clone(),
                a.args
                    .iter()
                    .map(|t| match t {
                        IrTerm::Const(c) => Term::Const(c.clone()),
                        IrTerm::Slot(s) => Term::Var(fresh[*s as usize].clone()),
                    })
                    .collect(),
            )
        };
        Rule::with_literals(
            atom(&self.head),
            self.body
                .iter()
                .map(|l| Literal {
                    positive: l.positive,
                    atom: atom(&l.atom),
                })
                .collect(),
        )
    }

    /// Reifies a body literal under `frame` for diagnostics.
    pub fn reify_literal(&self, lit: &IrLiteral, frame: &Frame) -> Literal {
        Literal {
            positive: lit.positive,
            atom: lit.atom.reify(frame, &self.slots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn rule(src: &str) -> Rule {
        parse_program(src).unwrap().rules.remove(0)
    }

    #[test]
    fn slots_follow_first_occurrence_head_first() {
        let r = rule("can_ta(X, Y) :- honor(X), complete(X, Y, Z).");
        let mut i = Interner::new();
        let c = CompiledRule::compile(&r, &mut i);
        let names: Vec<&str> = c.slots.iter().map(Var::name).collect();
        assert_eq!(names, ["X", "Y", "Z"]);
        assert_eq!(c.head.args, vec![IrTerm::Slot(0), IrTerm::Slot(1)]);
        assert_eq!(
            c.body[1].atom.args,
            vec![IrTerm::Slot(0), IrTerm::Slot(1), IrTerm::Slot(2)]
        );
    }

    #[test]
    fn constants_compile_inline_and_predicates_intern() {
        let r = rule("honor(X) :- student(X, math, G), G > 3.7.");
        let mut i = Interner::new();
        let c = CompiledRule::compile(&r, &mut i);
        assert_eq!(c.body[0].atom.args[1], IrTerm::Const(Const::sym("math")));
        assert_eq!(i.resolve(c.body[0].atom.pred_id).as_str(), "student");
        // Same predicate in another rule interns to the same id.
        let c2 = CompiledRule::compile(&rule("p(X) :- student(X, Y, Z)."), &mut i);
        assert_eq!(c.body[0].atom.pred_id, c2.body[0].atom.pred_id);
    }

    #[test]
    fn rename_apart_matches_subst_based_renaming() {
        // The slot-map rename must be indistinguishable from the
        // substitution-based one: same fresh names, same order, same
        // polarities — `describe`'s rendered theorems depend on it.
        let r =
            rule("can_ta(X, Y) :- honor(X), not failed(X, Y), complete(X, Y, Z, 4.0), Z > 3.3.");
        let mut i = Interner::new();
        let c = CompiledRule::compile(&r, &mut i);
        let mut g1 = crate::VarGen::new();
        let mut g2 = crate::VarGen::new();
        let reference = crate::rename_rule_apart(&r, &mut g1);
        let via_slots = c.rename_apart(&mut g2);
        assert_eq!(via_slots.to_string(), reference.to_string());
        assert_eq!(via_slots, reference);
    }

    #[test]
    fn frame_bind_and_reify() {
        let r = rule("p(X, Y) :- q(X), r(Y).");
        let mut i = Interner::new();
        let c = CompiledRule::compile(&r, &mut i);
        let mut f = Frame::new(c.num_slots());
        f.set(0, Const::sym("a"));
        let head = c.head.reify(&f, &c.slots);
        assert_eq!(head.to_string(), "p(a, Y)");
        f.clear(0);
        assert_eq!(f.get(0), None);
        assert_eq!(c.head.reify(&f, &c.slots).to_string(), "p(X, Y)");
    }
}
