//! The **describe engine** — the primary contribution of *Querying
//! Database Knowledge* (Motro & Yuan, SIGMOD 1990).
//!
//! A `describe` statement (§3.2) is the knowledge-query twin of
//! `retrieve`:
//!
//! ```text
//! describe p
//! where ψ
//! ```
//!
//! finds theorems `p ← φ` (φ a positive formula) logically derived from
//! the IDB under the hypothesis ψ — it asks *what a concept means under
//! specified circumstances*, and answers with knowledge rather than data.
//!
//! This crate implements:
//!
//! * [`describe::describe`] — the entry point, dispatching between the
//!   paper's two algorithms based on dependency analysis;
//! * [`prepared`] — the rule base analysed, transformed and compiled once
//!   ([`PreparedIdb`]), which every describe-family algorithm runs over;
//! * [`algo1`] — Algorithm 1 (§4, Figure 1): derivation-tree construction
//!   with hypothesis identification, for non-recursive subjects;
//! * [`transform`] — Imielinski's rule transformation (§5.2) and the
//!   paper's *modified* transformation that avoids artificial predicates;
//! * [`algo2`] — Algorithm 2 (§5.3, Figures 2–3): the recursive case, with
//!   tag-bounded application of transformed recursive rules and
//!   typing-preserving substitutions;
//! * [`constraints`] — the comparison-formula reasoning of §4 (implied
//!   comparisons are dropped from answers; contradictory answers are
//!   discarded; a wholly-contradicted query yields a special answer);
//! * [`redundancy`] — redundancy-free answers via θ-subsumption extended
//!   with semantic comparison implication;
//! * [`extensions`] — the §6 extensions: `where necessary`, negated
//!   hypotheses, subjectless (hypothetical-possibility) describes,
//!   wildcard subjects, and controlled application of untyped recursive
//!   rules;
//! * [`compare`] — the §6 `compare … with …` statement (maximal shared
//!   concept, subsumption, unrelatedness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod algo1;
pub mod algo2;
mod answer;
pub mod audit;
pub mod cache;
pub mod compare;
#[cfg(test)]
mod cone_tests;
mod config;
pub mod constraints;
pub mod describe;
mod error;
pub mod expand;
pub mod extensions;
pub mod prepared;
pub mod redundancy;
pub mod transform;
mod tree;

pub use answer::{Completeness, Derivation, DerivationStep, DescribeAnswer, Theorem};
pub use cache::{CacheStats, DescribeCache};
pub use config::{DescribeOptions, FallbackPolicy, TransformPolicy};
pub use describe::{describe, Describe};
pub use error::{DescribeError, Result};
pub use prepared::PreparedIdb;
pub use qdk_logic::governor::{CancelToken, Exhausted, Governor, Resource, ResourceLimits};
