//! Extensional database (EDB) substrate for the *Querying Database
//! Knowledge* reproduction.
//!
//! The paper's EDB (§2.1) is a set of predicates with associated stored
//! facts, plus built-in comparison predicates whose extensions are "known".
//! This crate provides:
//!
//! * [`Value`] — stored values (an alias of the logic layer's constants, so
//!   facts and terms share one representation);
//! * [`Tuple`] — a stored row;
//! * [`Relation`] — an insert-ordered, deduplicated fact set with a hash
//!   index on each column a probe has asked for (built on first probe,
//!   maintained by every write after), supporting pattern selection;
//! * [`builtins`] — evaluation of the built-in comparisons `=`, `!=`, `<`,
//!   `<=`, `>`, `>=` over values;
//! * [`Catalog`]/[`Schema`] — predicate declarations (names and attribute
//!   names, used for validation and display);
//! * [`Edb`] — the extensional database: a catalog plus its relations;
//! * [`epoch`] — snapshot-isolated publication: [`EpochCell`] versioned
//!   slots, built on the copy-on-write structure of [`Relation`] (clones
//!   share tuples and indexes, so an epoch snapshot costs only what the
//!   next batch touches).
//!
//! A [`Relation`] has one index kind, a single-column hash index. A
//! selection with several bound columns walks the narrowest bound
//! column's posting list and checks the rest row by row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builtins;
mod catalog;
mod database;
pub mod epoch;
mod error;
mod pieces;
mod relation;
mod shards;
mod store;
mod tuple;

pub use catalog::{Catalog, CatalogStats, Schema};
pub use database::Edb;
pub use epoch::{EpochCell, EpochId};
pub use error::{Result, StorageError};
pub use relation::{DeltaView, Relation};
pub use store::TupleIter;
pub use tuple::Tuple;

/// A stored value. Facts store the same constants that appear in terms.
pub type Value = qdk_logic::Const;
