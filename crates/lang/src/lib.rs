//! The unified query language of *Querying Database Knowledge*.
//!
//! The paper's thesis is that access to data and knowledge should be one
//! coherent instrument: "pairs of questions such as *Retrieve the honor
//! students* and *Describe the honor students* are expressed identically,
//! except for the initial keyword" (§3.2). This crate delivers that
//! instrument:
//!
//! * [`ast::Statement`] — the statement forms: declarations, clauses, and
//!   the `retrieve` / `describe` (with the §6 extensions) / `compare`
//!   queries;
//! * [`parser`] — text syntax for all statements;
//! * [`KnowledgeBase`] — the facade holding an EDB + IDB and executing
//!   statements into unified [`Answer`]s;
//! * [`datasets`] — the paper's example databases, ready to load: the
//!   §2.2 university database and the introduction's routing database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod answer;
pub mod ast;
pub mod datasets;
mod error;
mod kb;
pub mod parser;
pub mod shared;

pub use answer::Answer;
pub use error::{LangError, Result};
pub use kb::KnowledgeBase;
pub use shared::{KbState, Publisher};
