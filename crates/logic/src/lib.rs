//! First-order-logic substrate for the *Querying Database Knowledge*
//! reproduction (Motro & Yuan, SIGMOD 1990).
//!
//! This crate provides the logical vocabulary every other layer builds on:
//!
//! * [`Sym`] — cheaply clonable interned-style symbols;
//! * [`Const`] and [`Term`] — constants and terms (a term is a variable or
//!   a constant; the paper's language is function-free, i.e. datalog);
//! * [`Atom`], [`Literal`], [`Rule`] — atomic formulas, literals and Horn
//!   clauses in the two forms of §2.1 of the paper (rules and integrity
//!   constraints);
//! * [`Bindings`] — substitutions held as a trail of bindings with
//!   [`Mark`]s to undo to, which most-general unification
//!   ([`unify_atoms`]) and one-way matching ([`match_atom`]) extend in
//!   place; a frozen prefix is shared by `Arc` through a persistent
//!   [`Chain`], so a branch of a search costs a pointer;
//! * variable renaming ([`VarGen`], [`rename_rule_apart`], [`standardize`])
//!   used to standardize rules apart during resolution and subsumption;
//! * θ-subsumption ([`subsume::rule_subsumes`]) used for redundancy
//!   elimination of knowledge answers;
//! * a text [`parser`] and paper-style [`pretty`] printing;
//! * the compiled-evaluation substrate: a per-program [`Interner`] mapping
//!   symbols to dense ids and an [`ir`] module ([`CompiledRule`],
//!   [`Frame`]) that maps rule variables to positional slots — the
//!   program representation `qdk-engine` plans over and executes;
//! * the shared resource [`governor`] ([`ResourceLimits`], [`Governor`],
//!   [`CancelToken`], [`Exhausted`]) that bounds both evaluation stacks —
//!   it lives here, in the dependency-free base crate, so `qdk-engine` and
//!   `qdk-core` govern with the *same* types;
//! * the structured [`obs`] event layer ([`ObsSink`], [`Sink`], [`Event`])
//!   both evaluation stacks report spans and counters through — disabled
//!   by default and zero-cost when disabled.
//!
//! The crate is dependency-free. Its terms, atoms and rules are immutable
//! values; a [`Bindings`] trail is extended in place, and an operation
//! that fails leaves it as it found it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod atom;
pub mod chain;
mod clause;
mod error;
pub mod fasthash;
pub mod governor;
pub mod intern;
pub mod ir;
pub mod metrics;
pub mod obs;
#[doc(hidden)]
pub mod parallel;
pub mod parser;
pub mod pretty;
mod rename;
mod subst;
pub mod subsume;
mod symbol;
mod term;
mod unify;

pub use atom::{Atom, Literal};
pub use chain::Chain;
pub use clause::{Constraint, Program, Rule};
pub use error::{ParseError, Result};
pub use fasthash::{FxHashMap, FxHashSet, FxHasher, FxMixHashMap};
pub use governor::{CancelToken, Exhausted, Governor, Resource, ResourceLimits};
pub use intern::{Interner, SymId};
pub use ir::{CompiledRule, Frame, IrAtom, IrLiteral, IrTerm};
pub use obs::{Event, ObsSink, Sink};
#[doc(hidden)]
pub use parallel::Parallelism;
pub use rename::{rename_atoms_apart, rename_rule_apart, standardize, VarGen};
pub use subst::{Bindings, Mark};
pub use symbol::Sym;
pub use term::{Const, Term, Var};
pub use unify::{match_atom, unify, unify_atoms};
