//! Unified answers.

use qdk_core::compare::CompareAnswer;
use qdk_core::extensions::{NegationAnswer, PossibilityAnswer};
use qdk_core::DescribeAnswer;
use qdk_engine::DataAnswer;
use qdk_logic::Sym;
use std::fmt;

/// The answer to one statement of the unified language. The paper's three
/// query-answering mechanisms map onto the variants: data queries answer
/// with data, knowledge queries with knowledge; definitions acknowledge.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Rows of data (from `retrieve`).
    Data(DataAnswer),
    /// Theorems (from `describe` and `describe … where necessary`).
    Knowledge(DescribeAnswer),
    /// A necessity verdict (from `describe … where not h`).
    Necessity(NegationAnswer),
    /// A possibility verdict (from subjectless `describe where ψ`).
    Possibility(PossibilityAnswer),
    /// Per-concept theorems (from `describe * where ψ`).
    Wildcard(Vec<(Sym, DescribeAnswer)>),
    /// A concept comparison (from `compare`).
    Comparison(Box<CompareAnswer>),
    /// Text: the acknowledgement of a definition or declaration, the
    /// listing of a `show`, the derivations of an `explain`.
    Ack(String),
}

impl Answer {
    /// The data answer, if this is one.
    pub fn as_data(&self) -> Option<&DataAnswer> {
        match self {
            Answer::Data(d) => Some(d),
            _ => None,
        }
    }

    /// The knowledge answer, if this is one.
    pub fn as_knowledge(&self) -> Option<&DescribeAnswer> {
        match self {
            Answer::Knowledge(k) => Some(k),
            _ => None,
        }
    }

    /// Consumes the answer into its data answer.
    pub fn into_data(self) -> Option<DataAnswer> {
        match self {
            Answer::Data(d) => Some(d),
            _ => None,
        }
    }

    /// Consumes the answer into its knowledge answer.
    pub fn into_knowledge(self) -> Option<DescribeAnswer> {
        match self {
            Answer::Knowledge(k) => Some(k),
            _ => None,
        }
    }

    /// The comparison answer, if this is one.
    pub fn as_comparison(&self) -> Option<&CompareAnswer> {
        match self {
            Answer::Comparison(c) => Some(c),
            _ => None,
        }
    }

    /// The truth value for boolean-like answers (possibility/necessity),
    /// if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Answer::Possibility(p) => Some(p.possible),
            Answer::Necessity(n) => Some(n.derivable_without),
            _ => None,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Data(d) => write!(f, "{d}"),
            Answer::Knowledge(k) => write!(f, "{k}"),
            Answer::Necessity(n) => write!(f, "{n}"),
            Answer::Possibility(p) => write!(f, "{p}"),
            Answer::Wildcard(entries) => {
                for (pred, a) in entries {
                    writeln!(f, "{pred}:")?;
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            Answer::Comparison(c) => write!(f, "{c}"),
            Answer::Ack(msg) => writeln!(f, "{msg}"),
        }
    }
}
