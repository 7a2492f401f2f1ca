//! The one error type of the unified instrument.
//!
//! Every layer keeps its own precise error (`ParseError`, `StorageError`,
//! `EngineError`, `DescribeError`, `DurabilityError` — all still public
//! for layer-level callers), and [`LangError`] is their sum: what
//! `KnowledgeBase` returns and, re-exported as `qdk::Error`, what the
//! `Session` facade returns.

use std::fmt;

/// Any error the unified instrument can raise. `#[non_exhaustive]` so a
/// future layer can add a variant without a breaking release.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum LangError {
    /// A parse error in a statement.
    Parse(qdk_logic::ParseError),
    /// A storage error (declarations, facts).
    Storage(qdk_storage::StorageError),
    /// An engine error (retrieve evaluation).
    Engine(qdk_engine::EngineError),
    /// A describe-engine error (knowledge queries).
    Describe(qdk_core::DescribeError),
    /// A durability error (write-ahead log, checkpoint, recovery).
    Durability(qdk_durability::DurabilityError),
    /// A statement that changes the knowledge base (named here) was given
    /// to a read-only entry point; it was not executed.
    ReadOnly(String),
}

impl LangError {
    /// The structured exhaustion diagnostic, when the error is a resource
    /// trip from either evaluation stack.
    pub fn exhausted(&self) -> Option<qdk_logic::Exhausted> {
        match self {
            LangError::Engine(qdk_engine::EngineError::Exhausted(e)) => Some(*e),
            LangError::Describe(qdk_core::DescribeError::Exhausted(e)) => Some(*e),
            _ => None,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse(e) => write!(f, "{e}"),
            LangError::Storage(e) => write!(f, "{e}"),
            LangError::Engine(e) => write!(f, "{e}"),
            LangError::Describe(e) => write!(f, "{e}"),
            LangError::Durability(e) => write!(f, "{e}"),
            LangError::ReadOnly(stmt) => write!(f, "read-only: not executed: {stmt}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<qdk_logic::ParseError> for LangError {
    fn from(e: qdk_logic::ParseError) -> Self {
        LangError::Parse(e)
    }
}

impl From<qdk_storage::StorageError> for LangError {
    fn from(e: qdk_storage::StorageError) -> Self {
        LangError::Storage(e)
    }
}

impl From<qdk_engine::EngineError> for LangError {
    fn from(e: qdk_engine::EngineError) -> Self {
        LangError::Engine(e)
    }
}

impl From<qdk_core::DescribeError> for LangError {
    fn from(e: qdk_core::DescribeError) -> Self {
        LangError::Describe(e)
    }
}

impl From<qdk_durability::DurabilityError> for LangError {
    fn from(e: qdk_durability::DurabilityError) -> Self {
        LangError::Durability(e)
    }
}

/// Result alias for language operations.
pub type Result<T> = std::result::Result<T, LangError>;
