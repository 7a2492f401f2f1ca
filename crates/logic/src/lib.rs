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
//! * [`Subst`] — substitutions, most-general unifiers ([`unify`]) and
//!   one-way matching ([`match_atom`]);
//! * variable renaming ([`VarGen`], [`rename_rule_apart`]) used to
//!   standardize rules apart during resolution;
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
//! The crate is dependency-free and purely functional: all structures are
//! immutable values, which keeps the term-rewriting layers above it easy to
//! reason about.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod atom;
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
pub use clause::{Constraint, Program, Rule};
pub use error::{ParseError, Result};
pub use fasthash::{FxHashMap, FxHashSet, FxHasher, FxMixHashMap};
pub use governor::{CancelToken, Exhausted, Governor, Resource, ResourceLimits};
pub use intern::{Interner, SymId};
pub use ir::{CompiledRule, Frame, IrAtom, IrLiteral, IrTerm};
pub use obs::{Event, ObsSink, Sink};
#[doc(hidden)]
pub use parallel::Parallelism;
pub use rename::{rename_atoms_apart, rename_rule_apart, VarGen};
pub use subst::Subst;
pub use symbol::Sym;
pub use term::{Const, Term, Var};
pub use unify::{match_atom, match_term, unify, unify_atoms};
