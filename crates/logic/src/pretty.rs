//! Paper-style pretty printing and canonical variable renaming.
//!
//! The default `Display` impls print ASCII datalog (`head :- body.`). This
//! module adds the paper's mathematical notation (`head ← b₁ ∧ b₂`) and a
//! canonicalizer that renames the machine-generated fresh variables in
//! knowledge answers back to the paper's friendly names (`X`, `Y`, `Z`, `U`,
//! `V`, `W`, `X1`, …), which is what makes a `describe` answer readable.

use crate::atom::{Atom, Literal};
use crate::clause::Rule;
use crate::subst::Bindings;
use crate::term::{Term, Var};
use std::fmt;

/// The friendly variable names, in the order the paper tends to use them.
const FRIENDLY: &[&str] = &["X", "Y", "Z", "U", "V", "W"];

/// Renames the variables of a rule to canonical friendly names in order of
/// first occurrence (head first). Variables already bearing a friendly name
/// that does not clash keep it; fresh (`_`-prefixed) variables always get a
/// new name.
pub fn canonicalize_rule(rule: &Rule) -> Rule {
    let vars = rule.vars();
    let mut taken: Vec<String> = vars
        .iter()
        .filter(|v| !v.is_fresh())
        .map(|v| v.name().to_string())
        .collect();
    let mut renaming = Bindings::new();
    let mut next_idx = 0usize;
    for v in &vars {
        if !v.is_fresh() {
            continue;
        }
        let name = loop {
            let candidate = friendly_name(next_idx);
            next_idx += 1;
            if !taken.contains(&candidate) {
                break candidate;
            }
        };
        taken.push(name.clone());
        renaming.bind(v.clone(), Term::Var(Var::new(&name)));
    }
    renaming.apply_rule(rule)
}

fn friendly_name(i: usize) -> String {
    if i < FRIENDLY.len() {
        FRIENDLY[i].to_string()
    } else {
        format!("{}{}", FRIENDLY[i % FRIENDLY.len()], i / FRIENDLY.len())
    }
}

/// Formats an atom in the paper's notation (identical to `Display` for
/// atoms; provided for symmetry).
pub fn paper_atom(a: &Atom) -> String {
    a.to_string()
}

/// Formats a literal in the paper's notation (`¬p(X)` for negation).
pub fn paper_literal(l: &Literal) -> String {
    if l.positive {
        l.atom.to_string()
    } else {
        format!("¬{}", l.atom)
    }
}

/// Formats a rule in the paper's notation: `head ← b₁ ∧ b₂ ∧ …`, or just
/// `head` for a bodyless rule.
pub fn paper_rule(r: &Rule) -> String {
    if r.body.is_empty() {
        return r.head.to_string();
    }
    let body: Vec<String> = r.body.iter().map(paper_literal).collect();
    format!("{} ← {}", r.head, body.join(" ∧ "))
}

/// Formats a rule canonically: variables renamed to friendly names, paper
/// notation. This is the rendering used for knowledge answers.
pub fn answer_rule(r: &Rule) -> String {
    AnswerRule(r).to_string()
}

/// A rule written as a knowledge answer: the text of
/// `paper_rule(&canonicalize_rule(rule))`, written straight into the
/// formatter. Nothing is copied: the friendly names are looked up in a
/// table of the rule's fresh variables as each one is written.
pub struct AnswerRule<'r>(pub &'r Rule);

impl fmt::Display for AnswerRule<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = self.0;
        let names = FreshNames::of(rule);
        write_atom(f, &rule.head, &names)?;
        for (i, l) in rule.body.iter().enumerate() {
            f.write_str(if i == 0 { " ← " } else { " ∧ " })?;
            if !l.positive {
                f.write_str("¬")?;
            }
            write_atom(f, &l.atom, &names)?;
        }
        Ok(())
    }
}

/// Fresh variables held without allocating; a rule with more spills.
const INLINE_FRESH: usize = 24;

/// The friendly name [`canonicalize_rule`] gives each fresh variable of a
/// rule, as an index into the sequence of [`friendly_name`]s.
struct FreshNames<'r> {
    inline: [Option<(&'r Var, usize)>; INLINE_FRESH],
    /// The variables beyond the inline ones, sorted, so a guard-length
    /// derivation's hundreds of variables are searched, not scanned.
    spill: Vec<(&'r Var, usize)>,
    len: usize,
}

impl<'r> FreshNames<'r> {
    /// Numbers the fresh variables in order of first occurrence, head
    /// first, skipping every name a user variable of the rule already has.
    fn of(rule: &'r Rule) -> Self {
        let mut names = FreshNames {
            inline: [None; INLINE_FRESH],
            spill: Vec::new(),
            len: 0,
        };
        let taken = |i: usize| {
            rule_vars(rule).any(|u| !u.is_fresh() && friendly_index(u.name()) == Some(i))
        };
        // Past the largest friendly name a user variable has, none is taken.
        let last_taken = rule_vars(rule)
            .filter(|u| !u.is_fresh())
            .filter_map(|u| friendly_index(u.name()))
            .max();
        let mut next_idx = 0;
        for v in rule_vars(rule).filter(|v| v.is_fresh()) {
            if names.get(v).is_some() {
                continue;
            }
            while last_taken.is_some_and(|last| next_idx <= last) && taken(next_idx) {
                next_idx += 1;
            }
            if names.len < INLINE_FRESH {
                names.inline[names.len] = Some((v, next_idx));
            } else {
                let at = names.spill.partition_point(|(w, _)| *w < v);
                names.spill.insert(at, (v, next_idx));
            }
            names.len += 1;
            next_idx += 1;
        }
        names
    }

    fn get(&self, v: &Var) -> Option<usize> {
        let mut inline = self.inline.iter().map_while(|e| *e);
        if let Some((_, i)) = inline.find(|(w, _)| *w == v) {
            return Some(i);
        }
        let at = self.spill.binary_search_by(|(w, _)| (*w).cmp(v)).ok()?;
        Some(self.spill[at].1)
    }
}

/// Every variable occurrence of a rule, head first.
fn rule_vars(rule: &Rule) -> impl Iterator<Item = &Var> {
    std::iter::once(&rule.head)
        .chain(rule.body.iter().map(|l| &l.atom))
        .flat_map(|a| a.args.iter().filter_map(Term::as_var))
}

/// The `i` whose `friendly_name(i)` is `name`, if there is one.
fn friendly_index(name: &str) -> Option<usize> {
    let k = FRIENDLY.iter().position(|f| name.starts_with(f))?;
    let digits = &name[FRIENDLY[k].len()..];
    if digits.is_empty() {
        return Some(k);
    }
    if digits.starts_with('0') || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: usize = digits.parse().ok()?;
    Some(n * FRIENDLY.len() + k)
}

/// Writes an atom as its `Display` does, fresh variables under their
/// friendly names.
fn write_atom(f: &mut fmt::Formatter<'_>, a: &Atom, names: &FreshNames) -> fmt::Result {
    let term = |f: &mut fmt::Formatter<'_>, t: &Term| match t {
        Term::Var(v) => match names.get(v) {
            Some(i) if i < FRIENDLY.len() => f.write_str(FRIENDLY[i]),
            Some(i) => write!(f, "{}{}", FRIENDLY[i % FRIENDLY.len()], i / FRIENDLY.len()),
            None => f.write_str(v.name()),
        },
        Term::Const(_) => write!(f, "{t}"),
    };
    if a.is_builtin() && a.args.len() == 2 {
        f.write_str("(")?;
        term(f, &a.args[0])?;
        write!(f, " {} ", a.pred)?;
        term(f, &a.args[1])?;
        return f.write_str(")");
    }
    f.write_str(a.pred.as_str())?;
    if a.args.is_empty() {
        return Ok(());
    }
    for (i, t) in a.args.iter().enumerate() {
        f.write_str(if i == 0 { "(" } else { ", " })?;
        term(f, t)?;
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    #[test]
    fn paper_rule_uses_arrow_and_wedge() {
        let r = parse_rule("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
        assert_eq!(paper_rule(&r), "honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)");
    }

    #[test]
    fn bodyless_rule_prints_head_only() {
        let r = parse_rule("reachable(a, b).").unwrap();
        assert_eq!(paper_rule(&r), "reachable(a, b)");
    }

    #[test]
    fn negation_prints_with_neg_sign() {
        let r = parse_rule("p(X) :- not q(X).").unwrap();
        assert_eq!(paper_rule(&r), "p(X) ← ¬q(X)");
    }

    #[test]
    fn canonicalize_renames_fresh_vars_in_order() {
        // `_`-prefixed variables cannot be parsed; build the rule directly.
        let rule = Rule::new(
            Atom::new(
                "can_ta",
                vec![Term::Var(Var::new("_3")), Term::sym("databases")],
            ),
            vec![Atom::new(
                "complete",
                vec![
                    Term::Var(Var::new("_3")),
                    Term::sym("databases"),
                    Term::Var(Var::new("_7")),
                    Term::Var(Var::new("_9")),
                ],
            )],
        );
        let c = canonicalize_rule(&rule);
        assert_eq!(
            c.to_string(),
            "can_ta(X, databases) :- complete(X, databases, Y, Z)."
        );
    }

    #[test]
    fn canonicalize_avoids_user_variable_clashes() {
        // User already uses X; fresh var must not become X.
        let rule = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Atom::new(
                "q",
                vec![Term::var("X"), Term::Var(Var::new("_0"))],
            )],
        );
        let c = canonicalize_rule(&rule);
        assert_eq!(c.to_string(), "p(X) :- q(X, Y).");
    }

    #[test]
    fn friendly_names_extend_with_indices() {
        assert_eq!(friendly_name(0), "X");
        assert_eq!(friendly_name(5), "W");
        assert_eq!(friendly_name(6), "X1");
        assert_eq!(friendly_name(11), "W1");
    }

    use crate::term::Const;
    use proptest::prelude::*;

    /// User variables, some of them friendly names a fresh variable must
    /// not take, and fresh variables from a pool larger than the inline
    /// table.
    fn arb_var() -> impl Strategy<Value = Var> {
        prop_oneof![
            prop_oneof![
                Just("X"),
                Just("Y"),
                Just("X1"),
                Just("W"),
                Just("Y2"),
                Just("X01"),
                Just("Gpa")
            ]
            .prop_map(Var::new),
            (0usize..40).prop_map(|i| Var::new(&format!("_{i}"))),
            (0usize..40).prop_map(|i| Var::new(&format!("_{i}Z"))),
        ]
    }

    fn arb_const() -> impl Strategy<Value = Const> {
        prop_oneof![
            (-3i64..5).prop_map(Const::Int),
            prop_oneof![Just(4.0f64), Just(1e20), Just(3.7), Just(-0.5), Just(1e15)]
                .prop_map(Const::Num),
            prop_oneof![Just("a"), Just("databases")].prop_map(Const::sym),
            prop_oneof![Just("Fall 1989"), Just("say \"hi\"")].prop_map(Const::str),
            prop_oneof![Just(true), Just(false)].prop_map(Const::Bool),
        ]
    }

    fn arb_atom() -> impl Strategy<Value = Atom> {
        let term = prop_oneof![
            3 => arb_var().prop_map(Term::Var),
            1 => arb_const().prop_map(Term::Const),
        ];
        (
            prop_oneof![
                Just("p"),
                Just("q"),
                Just("="),
                Just("!="),
                Just("<"),
                Just("<="),
                Just(">"),
                Just(">=")
            ],
            proptest::collection::vec(term, 0..6),
        )
            .prop_map(|(pred, args)| Atom::new(pred, args))
    }

    fn arb_rule() -> impl Strategy<Value = Rule> {
        let literal = (arb_atom(), 0u8..3).prop_map(|(atom, sign)| Literal {
            positive: sign != 0,
            atom,
        });
        (arb_atom(), proptest::collection::vec(literal, 0..10))
            .prop_map(|(head, body)| Rule::with_literals(head, body))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Writing an answer in one pass gives the bytes of writing the
        /// canonicalized copy.
        #[test]
        fn answer_rule_writes_the_canonical_copy(r in arb_rule()) {
            prop_assert_eq!(answer_rule(&r), paper_rule(&canonicalize_rule(&r)));
        }
    }

    #[test]
    fn more_fresh_variables_than_the_inline_table_holds() {
        let args = (0..INLINE_FRESH + 8)
            .map(|i| Term::Var(Var::new(&format!("_{i}"))))
            .collect();
        let rule = Rule::new(
            Atom::new("p", vec![Term::var("X"), Term::var("Y3")]),
            vec![Atom::new("q", args)],
        );
        assert_eq!(answer_rule(&rule), paper_rule(&canonicalize_rule(&rule)));
        // `Y3` is the user's, so the 20th fresh variable skips it.
        assert!(answer_rule(&rule)
            .ends_with("X3, Z3, U3, V3, W3, X4, Y4, Z4, U4, V4, W4, X5, Y5, Z5, U5)"));
    }

    #[test]
    fn answer_rule_combines_canonicalization_and_notation() {
        let rule = Rule::new(
            Atom::new("honor", vec![Term::Var(Var::new("_5"))]),
            vec![
                Atom::new(
                    "student",
                    vec![
                        Term::Var(Var::new("_5")),
                        Term::Var(Var::new("_6")),
                        Term::Var(Var::new("_8")),
                    ],
                ),
                Atom::new(">", vec![Term::Var(Var::new("_8")), Term::num(3.7)]),
            ],
        );
        assert_eq!(
            answer_rule(&rule),
            "honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"
        );
    }
}
