//! Statement forms of the unified language.

use qdk_core::Describe;
use qdk_engine::Retrieve;
use qdk_logic::{Atom, Constraint, Literal, Rule};
use std::fmt;

/// What a `show` statement lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShowKind {
    /// Declared EDB predicates with their schemas and fact counts.
    Predicates,
    /// IDB rules.
    Rules,
    /// Integrity constraints.
    Constraints,
}

/// One statement of the unified language.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `predicate student(Sname, Major, Gpa) key 1.` — declares an EDB
    /// predicate, optionally with a key-prefix length (the functional
    /// dependency used by hypothetical-possibility queries).
    Declare {
        /// Predicate name.
        name: String,
        /// Attribute names.
        attrs: Vec<String>,
        /// Number of leading key attributes, if declared.
        key: Option<usize>,
    },
    /// A fact or rule, e.g. `honor(X) :- student(X, Y, Z), Z > 3.7.`
    /// Ground bodyless clauses insert EDB facts; everything else extends
    /// the IDB.
    Clause(Rule),
    /// An integrity constraint `:- p, q.`
    Constraint(Constraint),
    /// `retract f.` — removes a stored fact.
    Retract(Atom),
    /// `show predicates.` / `show rules.` / `show constraints.` — catalog
    /// introspection.
    Show(ShowKind),
    /// `explain p where ψ.` — a describe whose answer is rendered with
    /// each theorem's derivation tree.
    Explain(Describe),
    /// `retrieve p where ψ.` — the data query (§3.1).
    Retrieve(Retrieve),
    /// `describe p where ψ.` — the knowledge query (§3.2).
    Describe(Describe),
    /// `describe p where necessary ψ.` — §6 extension 1.
    DescribeNecessary(Describe),
    /// `describe p where ψ₁ or ψ₂.` — §6's generalized (disjunctive)
    /// qualifier.
    DescribeDisjunctive {
        /// The subject concept.
        subject: Atom,
        /// The disjuncts, each a conjunction.
        disjuncts: Vec<Vec<Literal>>,
    },
    /// `describe p where not h.` — §6 extension 2.
    DescribeWithout {
        /// The subject concept.
        subject: Atom,
        /// The concept hypothetically removed.
        negated: Atom,
    },
    /// `describe where ψ.` — §6 extension 3 (hypothetical possibility).
    DescribePossible {
        /// The hypothetical conjunction.
        hypothesis: Vec<Atom>,
    },
    /// `describe * where ψ.` — §6 extension 4 (wildcard subject).
    DescribeWildcard {
        /// The hypothesis.
        hypothesis: Vec<Literal>,
    },
    /// `compare (describe p₁ where ψ₁) with (describe p₂ where ψ₂).`
    Compare {
        /// First concept.
        first: Describe,
        /// Second concept.
        second: Describe,
    },
}

impl Statement {
    /// True for the statements that only read the knowledge base —
    /// `retrieve`, the `describe` family, `compare`, `explain`, `show` —
    /// which `KnowledgeBase::serve` answers from `&self`. The rest
    /// (declarations, clauses, constraints, `retract`) change it.
    pub fn is_read(&self) -> bool {
        !matches!(
            self,
            Statement::Declare { .. }
                | Statement::Clause(_)
                | Statement::Constraint(_)
                | Statement::Retract(_)
        )
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Declare { name, attrs, key } => {
                write!(f, "predicate {name}({})", attrs.join(", "))?;
                if let Some(k) = key {
                    write!(f, " key {k}")?;
                }
                write!(f, ".")
            }
            Statement::Clause(r) => write!(f, "{r}"),
            Statement::Constraint(c) => write!(f, "{c}"),
            Statement::Retract(a) => write!(f, "retract {a}."),
            Statement::Show(ShowKind::Predicates) => write!(f, "show predicates."),
            Statement::Show(ShowKind::Rules) => write!(f, "show rules."),
            Statement::Show(ShowKind::Constraints) => write!(f, "show constraints."),
            Statement::Explain(d) => write!(
                f,
                "explain {}.",
                d.to_string().trim_start_matches("describe ")
            ),
            Statement::Retrieve(r) => write!(f, "{r}."),
            Statement::Describe(d) => write!(f, "{d}."),
            Statement::DescribeNecessary(d) => {
                write!(f, "describe {} where necessary", d.subject)?;
                let parts: Vec<String> = d.hypothesis.iter().map(ToString::to_string).collect();
                write!(f, " {}.", parts.join(" and "))
            }
            Statement::DescribeDisjunctive { subject, disjuncts } => {
                let parts: Vec<String> = disjuncts
                    .iter()
                    .map(|d| {
                        d.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" and ")
                    })
                    .collect();
                write!(f, "describe {subject} where {}.", parts.join(" or "))
            }
            Statement::DescribeWithout { subject, negated } => {
                write!(f, "describe {subject} where not {negated}.")
            }
            Statement::DescribePossible { hypothesis } => {
                let parts: Vec<String> = hypothesis.iter().map(ToString::to_string).collect();
                write!(f, "describe where {}.", parts.join(" and "))
            }
            Statement::DescribeWildcard { hypothesis } => {
                let parts: Vec<String> = hypothesis.iter().map(ToString::to_string).collect();
                write!(f, "describe * where {}.", parts.join(" and "))
            }
            Statement::Compare { first, second } => {
                write!(f, "compare ({first}) with ({second}).")
            }
        }
    }
}
