//! Knowledge answers.

use crate::tree::Chain;
use qdk_logic::governor::Exhausted;
use qdk_logic::{pretty, Atom, Rule};
use std::collections::BTreeSet;
use std::fmt::{self, Write};
use std::sync::Arc;

/// Whether a describe answer covers the full theorem set or was cut short
/// by a resource limit. Truncation is a *reported* outcome, never a silent
/// one: when depth, budget, deadline, fact limits or cancellation stop the
/// enumeration, the answers found so far are returned with the governor's
/// diagnostic attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completeness {
    /// Every derivable theorem (under the configured policies) is present.
    #[default]
    Complete,
    /// Enumeration stopped early; the attached diagnostic says which
    /// resource ran out and how much was spent.
    Truncated(Exhausted),
}

impl Completeness {
    /// True when the answer was cut short.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Completeness::Truncated(_))
    }

    /// The exhaustion diagnostic, if the answer was cut short.
    pub fn exhausted(&self) -> Option<Exhausted> {
        match self {
            Completeness::Complete => None,
            Completeness::Truncated(e) => Some(*e),
        }
    }
}

/// One theorem `p ← φ` of a knowledge answer, with provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Theorem {
    /// The theorem itself.
    pub rule: Rule,
    /// Indexes (into the hypothesis conjunction) of the hypothesis
    /// formulas that were identified somewhere in this theorem's
    /// derivation tree. Empty for one-level (plain IDB definition)
    /// answers — §6's observation that unnecessary hypothesis formulas
    /// are simply ignored, and the basis of the `where necessary`
    /// extension.
    pub used_hypothesis: BTreeSet<usize>,
    /// Index of the IDB rule applied at the root of the derivation tree,
    /// or `None` when the subject was identified directly with a
    /// hypothesis formula (the `p ← (X = c)` answers of Example 6).
    pub root_rule: Option<usize>,
    /// True if this is a one-level answer: the IDB rule itself, emitted
    /// because the rule produced no hypothesis-using theorem (Figure 1,
    /// box 19).
    pub one_level: bool,
    /// The derivation tree that produced this theorem, flattened
    /// depth-first: one step per rule application or hypothesis
    /// identification (Figure 1's tree, as provenance).
    pub derivation: Derivation,
}

/// One step of a derivation tree (Figure 1), recorded as data while the
/// tree is enumerated. Its text is made only when asked for, by
/// [`Theorem::explain`] or `Display`.
#[derive(Clone, Debug, PartialEq)]
pub enum DerivationStep {
    /// A tree formula expanded by a rule (boxes 8–9).
    Expanded {
        /// The formula's depth in the tree (the root is 0).
        depth: usize,
        /// The formula, as substituted when it was expanded.
        node: Atom,
        /// The rule's index in the prepared rule list.
        rule: usize,
        /// The rule's text.
        text: Arc<str>,
    },
    /// A tree formula identified with a hypothesis formula (boxes 2–5).
    Identified {
        /// The formula's depth in the tree (the root is 0).
        depth: usize,
        /// The formula, as substituted when it was identified.
        node: Atom,
        /// The hypothesis formula, substituted likewise.
        hypothesis: Atom,
    },
    /// A one-level answer's rule (Figure 1, box 19).
    Definition {
        /// The rule's text.
        text: Arc<str>,
    },
}

impl fmt::Display for DerivationStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerivationStep::Expanded {
                depth,
                node,
                rule,
                text,
            } => write!(
                f,
                "{:indent$}{node} expanded by rule {rule}: {text}",
                "",
                indent = depth * 2
            ),
            DerivationStep::Identified {
                depth,
                node,
                hypothesis,
            } => write!(
                f,
                "{:indent$}{node} identified with hypothesis {hypothesis}",
                "",
                indent = depth * 2
            ),
            DerivationStep::Definition { text } => write!(f, "definition: {text}"),
        }
    }
}

/// The steps of a theorem's derivation, in application order. It shares
/// its steps with the enumeration that found it, so keeping one copies
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct Derivation(pub(crate) Chain<DerivationStep>);

impl Derivation {
    /// The steps, in application order.
    pub fn steps(&self) -> impl Iterator<Item = &DerivationStep> {
        self.0.items_from(0)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }
}

impl PartialEq for Derivation {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.steps().eq(other.steps())
    }
}

impl Theorem {
    /// True if the theorem's derivation used at least one hypothesis
    /// formula.
    pub fn uses_hypothesis(&self) -> bool {
        !self.used_hypothesis.is_empty()
    }

    /// Renders the theorem with its derivation tree — "how do you know?".
    pub fn explain(&self) -> String {
        let mut out = format!("{self}\n");
        if self.derivation.is_empty() {
            out.push_str("  (definition)\n");
        }
        for step in self.derivation.steps() {
            // Writing into a String cannot fail.
            let _ = writeln!(out, "  {step}");
        }
        out
    }
}

impl fmt::Display for Theorem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&pretty::AnswerRule(&self.rule), f)
    }
}

/// The answer to a `describe` query: a set of theorems `p ← φ` logically
/// derived under the hypothesis, free of redundancies (§3.2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DescribeAnswer {
    /// The theorems, in generation order after redundancy elimination.
    pub theorems: Vec<Theorem>,
    /// True if every candidate answer was discarded because its
    /// comparisons contradicted the hypothesis — the paper's special
    /// answer indicating that *the hypothesis in the query contradicts
    /// the IDB* (§4).
    pub hypothesis_contradicts_idb: bool,
    /// Whether the theorem set is complete or was truncated by a resource
    /// limit.
    pub completeness: Completeness,
}

impl DescribeAnswer {
    /// Number of theorems.
    pub fn len(&self) -> usize {
        self.theorems.len()
    }

    /// True if the answer has no theorems (and no contradiction flag).
    pub fn is_empty(&self) -> bool {
        self.theorems.is_empty() && !self.hypothesis_contradicts_idb
    }

    /// True when enumeration stopped early on a resource limit.
    pub fn is_truncated(&self) -> bool {
        self.completeness.is_truncated()
    }

    /// The theorems as plain rules.
    pub fn rules(&self) -> Vec<Rule> {
        self.theorems.iter().map(|t| t.rule.clone()).collect()
    }

    /// Canonical renderings (paper notation, friendly variables), sorted —
    /// a stable form for tests and experiment records.
    pub fn rendered(&self) -> Vec<String> {
        let mut v: Vec<String> = self.theorems.iter().map(ToString::to_string).collect();
        v.sort();
        v
    }

    /// True if some theorem renders (canonically) exactly as `expected`.
    pub fn contains_rendered(&self, expected: &str) -> bool {
        self.theorems.iter().any(|t| t.to_string() == expected)
    }

    /// Drops the spare capacity its vectors and strings grew while the
    /// answer was built, in place — what a copy would drop, for an answer
    /// kept rather than copied (the describe cache holds answers behind
    /// an `Arc`).
    pub fn shrink_to_fit(&mut self) {
        self.theorems.shrink_to_fit();
        for t in &mut self.theorems {
            let rule = &mut t.rule;
            rule.head.args.shrink_to_fit();
            rule.body.shrink_to_fit();
            for lit in &mut rule.body {
                lit.atom.args.shrink_to_fit();
            }
        }
    }
}

impl fmt::Display for DescribeAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hypothesis_contradicts_idb {
            return writeln!(f, "the hypothesis contradicts the IDB");
        }
        if self.theorems.is_empty() {
            if let Completeness::Truncated(e) = self.completeness {
                return writeln!(f, "no theorems found before truncation ({e})");
            }
            return writeln!(f, "no theorems derivable");
        }
        for t in &self.theorems {
            writeln!(f, "{t}")?;
        }
        if let Completeness::Truncated(e) = self.completeness {
            writeln!(f, "-- truncated: {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_rule;

    fn theorem(src: &str, used: &[usize]) -> Theorem {
        Theorem {
            rule: parse_rule(src).unwrap(),
            used_hypothesis: used.iter().copied().collect(),
            root_rule: Some(0),
            one_level: used.is_empty(),
            derivation: Derivation::default(),
        }
    }

    #[test]
    fn display_uses_paper_notation() {
        let t = theorem("honor(X) :- student(X, Y, Z), Z > 3.7.", &[]);
        assert_eq!(t.to_string(), "honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)");
    }

    #[test]
    fn contradiction_answer_renders_specially() {
        let a = DescribeAnswer {
            theorems: vec![],
            hypothesis_contradicts_idb: true,
            completeness: Completeness::Complete,
        };
        assert!(a.to_string().contains("contradicts"));
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_answer() {
        let a = DescribeAnswer::default();
        assert!(a.is_empty());
        assert!(a.to_string().contains("no theorems"));
    }

    #[test]
    fn provenance_accessors() {
        let t = theorem("p(X) :- q(X).", &[1]);
        assert!(t.uses_hypothesis());
        let u = theorem("p(X) :- q(X).", &[]);
        assert!(!u.uses_hypothesis());
    }

    #[test]
    fn rendered_is_sorted_and_stable() {
        let a = DescribeAnswer {
            theorems: vec![theorem("p(X) :- r(X).", &[]), theorem("p(X) :- q(X).", &[])],
            hypothesis_contradicts_idb: false,
            completeness: Completeness::Complete,
        };
        assert_eq!(a.rendered(), vec!["p(X) ← q(X)", "p(X) ← r(X)"]);
        assert!(a.contains_rendered("p(X) ← q(X)"));
        assert!(!a.contains_rendered("p(X) ← s(X)"));
    }
}
