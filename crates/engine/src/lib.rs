//! Deductive *retrieve* engine for the *Querying Database Knowledge*
//! reproduction.
//!
//! The paper's `retrieve` statement (§3.1) is the standard data-query
//! mechanism of knowledge-rich database systems: it applies the IDB rules
//! to the EDB facts and returns data. This crate implements that substrate:
//!
//! * [`Idb`] — the intensional database: rules grouped by head predicate;
//! * [`graph::DependencyGraph`] — predicate dependencies, Tarjan SCCs,
//!   recursion detection (§2.1's *dependent* / *mutually dependent*), and
//!   the strata of a program with (extension) negation, computed from the
//!   SCCs;
//! * [`analysis`] — the per-rule linearity / strong linearity
//!   classification of §2.1;
//! * [`plan`] — compile-once rule planning: every rule's body schedule
//!   (literal order, index probes, slot read/write sets) is computed one
//!   time per program instead of once per recursion step, and executed
//!   over flat positional frames;
//! * three evaluation strategies: [`seminaive`] bottom-up, [`topdown`]
//!   goal-directed evaluation (relevance-restricted, per-SCC fixpoints)
//!   and [`qsq`] demand-driven nets — all run the compiled plans, as does
//!   the [`naive`] reference evaluator they are tested against;
//! * [`query`] — the `retrieve p where ψ` statement itself, and
//!   [`Strategy::Auto`], which picks among the three per query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adorn;
pub mod analysis;
mod bindings;
mod error;
pub mod graph;
mod idb;
pub mod maintain;
pub mod naive;
mod options;
pub mod plan;
pub mod qsq;
pub mod query;
pub mod seminaive;
pub mod topdown;

pub use bindings::{DerivedFacts, FactView};
pub use error::{EngineError, Result};
pub use idb::Idb;
pub use maintain::{MaintainStats, MaintainedStore, Retraction};
pub use options::EvalOptions;
pub use plan::{ProgramPlan, RulePlan};
pub use qdk_logic::governor::{CancelToken, Exhausted, Governor, Resource, ResourceLimits};
pub use query::{
    retrieve, retrieve_compiled, retrieve_precomputed, retrieve_precomputed_with, retrieve_with,
    AutoChoice, DataAnswer, Downgrade, Mode, Retrieve, Strategy,
};
