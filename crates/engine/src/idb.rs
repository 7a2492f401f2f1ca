//! The intensional database.

use crate::error::{EngineError, Result};
use qdk_logic::{Rule, Sym};
use std::collections::HashMap;

/// The intensional database: the set `S` of §2.1 — predicates with
/// associated rules, each predicate being the head of each of its rules.
///
/// `Idb` preserves rule source order (rule order is visible in the order
/// `describe` answers are generated, matching the paper's examples) and
/// indexes rules by head predicate.
#[derive(Clone, Debug, Default)]
pub struct Idb {
    rules: Vec<Rule>,
    by_head: HashMap<Sym, Vec<usize>>,
}

impl Idb {
    /// Creates an empty IDB.
    pub fn new() -> Self {
        Idb::default()
    }

    /// Builds an IDB from rules.
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Result<Self> {
        let mut idb = Idb::new();
        for r in rules {
            idb.add_rule(r)?;
        }
        Ok(idb)
    }

    /// Checks every condition [`Self::add_rule`] would, without touching
    /// the rule set (the pre-flight check the durability layer runs
    /// before logging the rule).
    pub fn validate_rule(&self, rule: &Rule) -> Result<()> {
        if rule.head.is_builtin() {
            return Err(EngineError::BuiltinHead(rule.head.to_string()));
        }
        Ok(())
    }

    /// Adds a rule. The head must not be a built-in comparison.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if rule.head.is_builtin() {
            return Err(EngineError::BuiltinHead(rule.head.to_string()));
        }
        let idx = self.rules.len();
        self.by_head
            .entry(rule.head.pred.clone())
            .or_default()
            .push(idx);
        self.rules.push(rule);
        Ok(())
    }

    /// All rules in source order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rules whose head predicate is `pred`, in source order.
    pub fn rules_for(&self, pred: &str) -> impl Iterator<Item = &Rule> {
        self.rule_indices(pred).iter().map(|&i| &self.rules[i])
    }

    /// Positions in [`Self::rules`] of the rules whose head predicate is
    /// `pred` — also their positions in the compiled `ProgramPlan`, which
    /// is parallel to the rule list.
    pub fn rule_indices(&self, pred: &str) -> &[usize] {
        self.by_head.get(pred).map_or(&[], Vec::as_slice)
    }

    /// True if `pred` is an IDB predicate (the head of at least one rule).
    pub fn defines(&self, pred: &str) -> bool {
        self.by_head.contains_key(pred)
    }

    /// The IDB predicate names, in first-definition order.
    pub fn predicates(&self) -> Vec<Sym> {
        let mut seen = Vec::new();
        for r in &self.rules {
            if !seen.contains(&r.head.pred) {
                seen.push(r.head.pred.clone());
            }
        }
        seen
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the IDB has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Returns a copy of this IDB with `extra` rules appended (used to add
    /// temporary query rules without mutating the original).
    pub fn extended(&self, extra: impl IntoIterator<Item = Rule>) -> Result<Idb> {
        let mut idb = self.clone();
        for r in extra {
            idb.add_rule(r)?;
        }
        Ok(idb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_program;

    fn sample() -> Idb {
        let p = parse_program(
            "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap();
        Idb::from_rules(p.rules).unwrap()
    }

    #[test]
    fn groups_rules_by_head() {
        let idb = sample();
        assert_eq!(idb.len(), 3);
        assert_eq!(idb.rules_for("prior").count(), 2);
        assert_eq!(idb.rules_for("honor").count(), 1);
        assert_eq!(idb.rules_for("ghost").count(), 0);
        assert!(idb.defines("prior"));
        assert!(!idb.defines("prereq"));
    }

    #[test]
    fn predicates_in_definition_order() {
        let idb = sample();
        let names: Vec<String> = idb.predicates().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["honor", "prior"]);
    }

    #[test]
    fn rejects_builtin_head() {
        let mut idb = Idb::new();
        let r = Rule::new(
            qdk_logic::Atom::new(
                "=",
                vec![qdk_logic::Term::var("X"), qdk_logic::Term::var("Y")],
            ),
            vec![],
        );
        assert!(matches!(idb.add_rule(r), Err(EngineError::BuiltinHead(_))));
    }

    #[test]
    fn extended_does_not_mutate_original() {
        let idb = sample();
        let extra = qdk_logic::parser::parse_rule("top(X) :- honor(X).").unwrap();
        let bigger = idb.extended([extra]).unwrap();
        assert_eq!(idb.len(), 3);
        assert_eq!(bigger.len(), 4);
        assert!(bigger.defines("top"));
    }
}
