//! The unified mutation API: the write-side twin of [`Request`](crate::Request).
//!
//! A [`Mutation`] collects inserts, retracts, rules, constraints and
//! declarations with one builder shape, mirroring how the request builder collects
//! a query's knobs. [`Session::apply`] parses the whole batch up front
//! (one malformed operation fails the mutation before anything is logged
//! or applied), runs it as a single atomic transaction, and returns an
//! [`Applied`] report of what the batch did — including what incremental
//! view maintenance did under it: derived facts added, deleted and
//! rederived, recompute fallbacks (also surfaced as [`Downgrade`]s on the
//! next retrieve), and how the describe cache fared.
//!
//! ```
//! use qdk::{Mutation, Request, Session};
//!
//! let mut session = Session::new();
//! session.load(
//!     "predicate edge(F, T).
//!      reach(X, Y) :- edge(X, Y).
//!      reach(X, Y) :- edge(X, Z), reach(Z, Y).",
//! ).unwrap();
//!
//! let applied = session.apply(
//!     Mutation::new()
//!         .insert("edge(a, b)")
//!         .insert("edge(b, c)")
//!         .retract("edge(a, b)")
//!         .insert("edge(a, c)"),
//! ).unwrap();
//! assert_eq!(applied.inserted, 3);
//! assert_eq!(applied.retracted, 1);
//!
//! let resp = session.retrieve(Request::subject("reach(a, X)")).unwrap();
//! assert_eq!(resp.as_data().unwrap().len(), 1);
//! ```

use crate::session::Session;
use crate::{Error, Result};
use qdk_core::CacheStats;
use qdk_engine::{Downgrade, MaintainStats};
use qdk_logic::parser::{parse_atom, parse_body, parse_rule};
use qdk_logic::{Atom, Constraint, Rule};

/// A batch of knowledge-base changes, built incrementally and applied
/// atomically with [`Session::apply`]. Operations execute in the order
/// they were added.
#[derive(Clone, Debug, Default)]
pub struct Mutation {
    ops: Vec<Op>,
}

#[derive(Clone, Debug)]
enum Op {
    Insert(String),
    Retract(String),
    Rule(String),
    Constraint(String),
    Declare {
        name: String,
        attrs: Vec<String>,
        key: Option<usize>,
    },
}

impl Mutation {
    /// An empty mutation; chain the builder methods onto it.
    pub fn new() -> Self {
        Mutation::default()
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Adds a fact insertion, e.g. `"edge(a, b)"`.
    #[must_use]
    pub fn insert(mut self, fact: impl Into<String>) -> Self {
        self.ops.push(Op::Insert(fact.into()));
        self
    }

    /// Adds a fact retraction, e.g. `"edge(a, b)"`.
    #[must_use]
    pub fn retract(mut self, fact: impl Into<String>) -> Self {
        self.ops.push(Op::Retract(fact.into()));
        self
    }

    /// Adds an IDB rule, e.g. `"reach(X, Y) :- edge(X, Y)"`.
    #[must_use]
    pub fn rule(mut self, rule: impl Into<String>) -> Self {
        self.ops.push(Op::Rule(rule.into()));
        self
    }

    /// Adds an integrity constraint as the conjunction that must never
    /// hold, e.g. `"honor(X), suspended(X)"`.
    #[must_use]
    pub fn constraint(mut self, body: impl Into<String>) -> Self {
        self.ops.push(Op::Constraint(body.into()));
        self
    }

    /// Declares an EDB predicate with its attribute names and optional
    /// key-prefix length.
    #[must_use]
    pub fn declare(mut self, name: impl Into<String>, attrs: &[&str], key: Option<usize>) -> Self {
        self.ops.push(Op::Declare {
            name: name.into(),
            attrs: attrs.iter().map(|a| (*a).to_string()).collect(),
            key,
        });
        self
    }

    /// Parses every operation, failing fast before anything is applied.
    fn parsed(&self) -> Result<Vec<ParsedOp>> {
        self.ops
            .iter()
            .map(|op| {
                Ok(match op {
                    Op::Insert(f) => ParsedOp::Insert(parse_atom(f)?),
                    Op::Retract(f) => ParsedOp::Retract(parse_atom(f)?),
                    Op::Rule(r) => {
                        // The grammar terminates clauses with '.', but the
                        // builder accepts bare rules like the atom methods do.
                        let src = r.trim();
                        let src = if src.ends_with('.') {
                            src.to_string()
                        } else {
                            format!("{src}.")
                        };
                        ParsedOp::Rule(parse_rule(&src)?)
                    }
                    Op::Constraint(b) => {
                        let lits = parse_body(b)?;
                        let mut atoms = Vec::with_capacity(lits.len());
                        for lit in lits {
                            if !lit.positive {
                                return Err(Error::Parse(qdk_logic::ParseError {
                                    message: format!(
                                        "constraint bodies are positive conjunctions: {b}"
                                    ),
                                    line: 1,
                                    column: 1,
                                }));
                            }
                            atoms.push(lit.atom);
                        }
                        ParsedOp::Constraint(Constraint::new(atoms))
                    }
                    Op::Declare { name, attrs, key } => ParsedOp::Declare {
                        name: name.clone(),
                        attrs: attrs.clone(),
                        key: *key,
                    },
                })
            })
            .collect()
    }
}

enum ParsedOp {
    Insert(Atom),
    Retract(Atom),
    Rule(Rule),
    Constraint(Constraint),
    Declare {
        name: String,
        attrs: Vec<String>,
        key: Option<usize>,
    },
}

/// What one applied [`Mutation`] did: the per-operation outcome counts,
/// plus the incremental-maintenance and describe-cache effects of the
/// batch.
#[derive(Clone, Debug, Default)]
pub struct Applied {
    /// Facts newly stored.
    pub inserted: usize,
    /// Inserts of facts that were already stored.
    pub duplicates: usize,
    /// Facts removed.
    pub retracted: usize,
    /// Retracts of facts that were not stored.
    pub missing: usize,
    /// Rules added to the IDB.
    pub rules_added: usize,
    /// Integrity constraints added.
    pub constraints_added: usize,
    /// EDB predicates declared.
    pub declared: usize,
    /// What incremental maintenance did: derived facts added; deleted
    /// (by a retraction, only those that lost their last derivation);
    /// `rederived`, the retraction candidates a backward check proved
    /// from another derivation and kept in place; `checked`, the facts
    /// whose derivations those checks enumerated; strata invalidated;
    /// recompute fallback reasons.
    pub maintenance: MaintainStats,
    /// Maintenance downgrades queued for the next retrieve's answer
    /// (copies — the answer still receives them).
    pub downgrades: Vec<Downgrade>,
    /// Describe-cache movement under this batch: `evicted` counts
    /// entries invalidated by rule/constraint changes and `survived`
    /// counts entries kept because a new rule was θ-subsumed by an
    /// existing one. The cache is shared with every published epoch of
    /// the same rules generation, so `hits`/`misses` count the lookups
    /// concurrent snapshot readers made while the batch ran (zero without
    /// concurrent readers: queries do not run inside a mutation).
    pub describe_cache: CacheStats,
}

impl Applied {
    /// How many operations fell back from incremental maintenance to
    /// full recomputation.
    pub fn recomputes(&self) -> usize {
        self.maintenance.recomputes()
    }
}

impl Session {
    /// Applies a [`Mutation`] as one atomic transaction.
    ///
    /// The whole batch is parsed first — a malformed operation fails the
    /// call before anything is logged or applied. On first use this
    /// materializes the incrementally maintained derived-fact store (one
    /// full evaluation); from then on every mutation propagates deltas
    /// instead of invalidating, and bottom-up retrieves serve straight
    /// from the maintained state. For durable sessions the batch reaches
    /// the WAL as a single all-or-nothing record; on any error the
    /// knowledge base rolls back to its pre-mutation state.
    ///
    /// Publishing is explicit: call [`Session::publish`] (or
    /// [`Session::snapshot`]) to expose the mutated state to concurrent
    /// readers.
    pub fn apply(&mut self, mutation: Mutation) -> Result<Applied> {
        let ops = mutation.parsed()?;
        let kb = &mut self.kb;
        kb.materialize_maintained()?;
        let cache_before = kb.describe_cache_stats();
        let mut report = Applied::default();
        kb.transaction(|kb| {
            for op in &ops {
                match op {
                    ParsedOp::Insert(a) => {
                        if kb.add_fact(a)? {
                            report.inserted += 1;
                        } else {
                            report.duplicates += 1;
                        }
                    }
                    ParsedOp::Retract(a) => {
                        if kb.retract_fact(a)? {
                            report.retracted += 1;
                        } else {
                            report.missing += 1;
                        }
                    }
                    ParsedOp::Rule(r) => {
                        kb.add_rule(r.clone())?;
                        report.rules_added += 1;
                    }
                    ParsedOp::Constraint(c) => {
                        kb.add_constraint(c.clone())?;
                        report.constraints_added += 1;
                    }
                    ParsedOp::Declare { name, attrs, key } => {
                        let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                        kb.declare(name, &refs, *key)?;
                        report.declared += 1;
                    }
                }
            }
            Ok(())
        })?;
        report.maintenance = kb.take_maintain_stats();
        report.downgrades = kb.pending_downgrades();
        report.describe_cache = cache_delta(cache_before, kb.describe_cache_stats());
        Ok(report)
    }
}

/// The cache movement between two cumulative snapshots.
fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        evicted: after.evicted.saturating_sub(before.evicted),
        survived: after.survived.saturating_sub(before.survived),
    }
}
