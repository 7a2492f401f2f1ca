//! Describe-engine errors.

use qdk_logic::governor::Exhausted;
use std::fmt;

/// Errors raised by the describe engine.
#[derive(Clone, Debug, PartialEq)]
pub enum DescribeError {
    /// The subject of a describe query must be an IDB predicate (§3.2).
    SubjectNotIdb(String),
    /// The hypothesis contained a negative literal outside the negated-
    /// hypothesis extension entry point.
    NegativeHypothesis(String),
    /// The hypothesis contained an `X = Y` atom, which §3.1 forbids in
    /// qualifiers.
    EqualityInHypothesis(String),
    /// The IDB violates the paper's assumptions (recursive rules must be
    /// strongly linear and typed) in a way no implemented handling covers.
    UnsupportedIdb(String),
    /// Evaluation exceeded a configured resource limit in a context where
    /// no partial answer can be returned (e.g. rule-body expansion). The
    /// main `describe` path instead returns a
    /// [`crate::Completeness::Truncated`] answer; this error carries the
    /// same structured diagnostic for the paths that must abort.
    Exhausted(Exhausted),
    /// An engine-layer error (dependency analysis, validation).
    Engine(String),
}

impl fmt::Display for DescribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescribeError::SubjectNotIdb(p) => {
                write!(f, "describe subject must be an IDB predicate: {p}")
            }
            DescribeError::NegativeHypothesis(l) => {
                write!(f, "hypothesis must be a positive formula, found: {l}")
            }
            DescribeError::EqualityInHypothesis(a) => {
                write!(f, "qualifier may not contain a variable equality: {a}")
            }
            DescribeError::UnsupportedIdb(msg) => write!(f, "unsupported IDB: {msg}"),
            DescribeError::Exhausted(e) => write!(f, "describe stopped: {e}"),
            DescribeError::Engine(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DescribeError {}

impl From<qdk_engine::EngineError> for DescribeError {
    fn from(e: qdk_engine::EngineError) -> Self {
        // Preserve the structured exhaustion diagnostic across the layer
        // boundary; everything else is carried as a message.
        match e {
            qdk_engine::EngineError::Exhausted(x) => DescribeError::Exhausted(x),
            other => DescribeError::Engine(other.to_string()),
        }
    }
}

impl From<Exhausted> for DescribeError {
    fn from(e: Exhausted) -> Self {
        DescribeError::Exhausted(e)
    }
}

/// Result alias for describe operations.
pub type Result<T> = std::result::Result<T, DescribeError>;
