//! # Querying Database Knowledge
//!
//! A full Rust reproduction of *Querying Database Knowledge* (Amihai
//! Motro and Qiuhui Yuan, SIGMOD 1990): a deductive database whose query
//! language has **twin statements** — `retrieve` for data queries and
//! `describe` for *knowledge* queries, which answer with theorems about
//! what a concept means under a hypothesis rather than with data.
//!
//! ```
//! use qdk::KnowledgeBase;
//!
//! let mut kb = KnowledgeBase::new();
//! kb.load(
//!     "predicate student(Sname, Major, Gpa) key 1.
//!      student(ann, math, 3.9).
//!      student(bob, math, 3.5).
//!      honor(X) :- student(X, Y, Z), Z > 3.7.",
//! ).unwrap();
//!
//! // Who are the honor students?  (data)
//! let data = kb.run("retrieve honor(X).").unwrap();
//! assert!(data.as_data().unwrap().contains_row(&["ann"]));
//!
//! // What does it take to be an honor student?  (knowledge)
//! let knowledge = kb.run("describe honor(X).").unwrap();
//! assert_eq!(
//!     knowledge.as_knowledge().unwrap().rendered(),
//!     vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"],
//! );
//! ```
//!
//! The workspace layers:
//!
//! * [`logic`] — terms, Horn clauses, unification, θ-subsumption, parsing,
//!   and the shared resource [`Governor`] that bounds every evaluation
//!   (deadline, work budget, depth, fact count, cancellation);
//! * [`storage`] — the extensional database (indexed relations, built-in
//!   comparisons, catalog);
//! * [`engine`] — the deductive `retrieve` engine (dependency analysis,
//!   naive / semi-naive / goal-directed evaluation, stratified negation);
//! * [`core`] — the **describe engine**, the paper's contribution:
//!   Algorithm 1 (derivation trees + hypothesis identification), the
//!   Imielinski rule transformation, Algorithm 2 (tags + typing), the §6
//!   extensions and `compare`;
//! * [`lang`] — the unified statement language and [`KnowledgeBase`]
//!   facade re-exported at the top level.
//!
//! For programmatic use, the [`Session`] facade wraps a [`KnowledgeBase`]
//! behind one [`Request`] shape (subject and hypothesis, or a whole read
//! statement; strategy, limits) and one [`Error`] type:
//!
//! ```
//! use qdk::{Request, Session};
//!
//! let mut session = Session::new();
//! session.load(
//!     "predicate student(Sname, Major, Gpa) key 1.
//!      student(ann, math, 3.9).
//!      honor(X) :- student(X, Y, Z), Z > 3.7.",
//! ).unwrap();
//! let data = session.retrieve(Request::subject("honor(X)")).unwrap();
//! assert!(data.as_data().unwrap().contains_row(&["ann"]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod mutation;
mod session;
mod trace;

pub use qdk_core as core;
pub use qdk_durability as durability;
pub use qdk_engine as engine;
pub use qdk_lang as lang;
pub use qdk_logic as logic;
pub use qdk_storage as storage;

pub use mutation::{Applied, Mutation};
pub use session::{Request, Response, Session, SnapshotSession};
pub use trace::{QueryTrace, TraceSpan};

pub use qdk_logic::metrics;
pub use qdk_logic::metrics::{
    HistogramSnapshot, MetricsHub, MetricsRegistry, MetricsSink, MetricsSnapshot,
};
pub use qdk_logic::obs;
pub use qdk_logic::obs::{CollectSink, Event, FanoutSink, ObsSink, Sink};

pub use qdk_core::CacheStats;
pub use qdk_core::{
    compare::CompareAnswer, CancelToken, Completeness, Describe, DescribeAnswer, DescribeOptions,
    Exhausted, FallbackPolicy, Governor, Resource, ResourceLimits, Theorem, TransformPolicy,
};
pub use qdk_durability::{
    DurabilityError, DurabilityMetrics, DurabilityOptions, FsyncPolicy, Lsn, RecoveryReport,
};
pub use qdk_engine::{
    AutoChoice, DataAnswer, Downgrade, EvalOptions, MaintainStats, Mode, Retrieve, Strategy,
};
/// The one error type, from `KnowledgeBase` to `Session`: [`LangError`]
/// under the facade's name.
pub use qdk_lang::LangError as Error;
pub use qdk_lang::{datasets, Answer, KnowledgeBase, LangError, Result};
#[doc(hidden)]
pub use qdk_logic::Parallelism;
pub use qdk_storage::EpochId;
