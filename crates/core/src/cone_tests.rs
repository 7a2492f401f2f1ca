//! Cone pruning changes no answer. On random rule bases of the paper's
//! class — layered concepts over strongly linear recursion, typed or
//! application-counted — and random hypotheses that mix atoms,
//! comparisons and negated atoms, `describe`, `describe *` and
//! `describe … where not` agree with references that apply every rule and
//! unfold every derivation.

use crate::config::{DescribeOptions, FallbackPolicy, TransformPolicy};
use crate::describe::Describe;
use crate::error::DescribeError;
use crate::expand::Conjunct;
use crate::extensions::{describe_without, describe_without_dnf};
use crate::prepared::PreparedIdb;
use crate::DescribeAnswer;
use proptest::prelude::*;
use qdk_engine::Idb;
use qdk_logic::{Atom, Literal, Rule, Term};

/// Stored predicates with their arities.
const EDB: [(&str, usize); 3] = [("e0", 2), ("e1", 1), ("e2", 2)];
/// Concepts by level. A rule for `p<i>` uses stored predicates and deeper
/// concepts only, so the only recursion is what [`recursive_rules`] adds.
const IDB: [(&str, usize); 4] = [("p0", 2), ("p1", 1), ("p2", 2), ("p3", 2)];

fn rule_term(spec: u8) -> Term {
    if spec < 7 {
        Term::var(["V0", "V1", "V2", "V3"][spec as usize % 4])
    } else {
        Term::sym(&format!("c{}", spec % 3))
    }
}

/// A safe rule for concept `head`: head variables, the comparison and the
/// negated literal `extra` may add all use variables the body binds.
fn layered_rule(head: u8, body: &[(u8, Vec<u8>)], head_args: &[u8], extra: u8) -> Rule {
    let head = head as usize % IDB.len();
    let below: Vec<(&str, usize)> = EDB.iter().chain(&IDB[head + 1..]).copied().collect();
    let mut bound: Vec<Term> = Vec::new();
    let mut lits = Vec::new();
    for (p, args) in body {
        let (name, arity) = below[*p as usize % below.len()];
        let args: Vec<Term> = (0..arity)
            .map(|k| rule_term(args.get(k).copied().unwrap_or(0)))
            .collect();
        for t in &args {
            if matches!(t, Term::Var(_)) && !bound.contains(t) {
                bound.push(t.clone());
            }
        }
        lits.push(Literal::pos(Atom::new(name, args)));
    }
    let (name, arity) = IDB[head];
    let head_args = (0..arity)
        .map(|k| match head_args.get(k).copied().unwrap_or(0) {
            a if a < 8 && !bound.is_empty() => bound[a as usize % bound.len()].clone(),
            a => Term::sym(&format!("c{}", a % 3)),
        })
        .collect();
    if let Some(v) = bound.first() {
        let w = bound.last().unwrap_or(v);
        let (pred, arity) = below[(extra / 4) as usize % below.len()];
        let args = [v, w][..arity].iter().map(|t| (*t).clone()).collect();
        match extra % 4 {
            1 => lits.push(Literal::pos(Atom::new(
                ">",
                vec![v.clone(), Term::int(i64::from(extra % 5))],
            ))),
            2 => lits.push(Literal::neg(Atom::new(pred, args))),
            _ => {}
        }
    }
    Rule::with_literals(Atom::new(name, head_args), lits)
}

/// The recursive rules `shape` gives the binary concept at `level`, over a
/// step predicate picked by `step`: right- or left-linear closure (with an
/// exit rule over the same step when `step` is odd, which is what the
/// modified transformation needs), a closure with a side condition (the
/// Imielinski transformation's case), or the untyped symmetric rule whose
/// applications are counted.
fn recursive_rules(level: usize, shape: u8, step: u8) -> Vec<Rule> {
    let (p, _) = IDB[level];
    let steps: Vec<&str> = EDB
        .iter()
        .chain(&IDB[level + 1..])
        .filter(|(_, arity)| *arity == 2)
        .map(|(name, _)| *name)
        .collect();
    let q = steps[step as usize % steps.len()];
    let atom = |pred: &str, a: &str, b: &str| Atom::new(pred, vec![Term::var(a), Term::var(b)]);
    let rule = |body: Vec<Atom>| Rule::new(atom(p, "X", "Y"), body);
    let mut rules = match shape % 5 {
        1 => vec![rule(vec![atom(q, "X", "Z"), atom(p, "Z", "Y")])],
        2 => vec![rule(vec![atom(p, "X", "Z"), atom(q, "Z", "Y")])],
        3 => vec![rule(vec![
            atom(q, "X", "Z"),
            Atom::new("e1", vec![Term::var("Z")]),
            atom(p, "Z", "Y"),
        ])],
        4 => vec![rule(vec![atom(p, "Y", "X")])],
        _ => Vec::new(),
    };
    if matches!(shape % 5, 1 | 2) && step % 2 == 1 {
        rules.push(rule(vec![atom(q, "X", "Y")]));
    }
    rules
}

fn hypothesis_term(spec: u8) -> Term {
    match spec % 6 {
        k @ 0..=3 => Term::var(["X", "Y", "W", "U"][k as usize]),
        k => Term::sym(&format!("c{}", k - 4)),
    }
}

/// One hypothesis literal: an atom of any predicate, a comparison on a
/// variable, or a negated atom.
fn hypothesis_literal(kind: u8, pred: u8, args: &[u8]) -> Literal {
    let preds: Vec<(&str, usize)> = EDB.iter().chain(&IDB).copied().collect();
    let (name, arity) = preds[pred as usize % preds.len()];
    let atom = Atom::new(
        name,
        (0..arity)
            .map(|k| hypothesis_term(args.get(k).copied().unwrap_or(0)))
            .collect(),
    );
    match kind % 4 {
        2 => Literal::pos(Atom::new(
            ">",
            vec![
                // `S0` is the first variable of `describe *`'s subjects.
                Term::var(["X", "Y", "W", "S0"][pred as usize % 4]),
                Term::int(i64::from(pred % 5)),
            ],
        )),
        3 => Literal::neg(atom),
        _ => Literal::pos(atom),
    }
}

/// Everything an answer says apart from derivation traces, whose fresh
/// variables the pruned walk may number differently.
type Summary = (Vec<(String, Vec<usize>, Option<usize>, bool)>, bool, String);

fn summary(answer: &DescribeAnswer) -> Summary {
    (
        answer
            .theorems
            .iter()
            .map(|t| {
                (
                    t.to_string(),
                    t.used_hypothesis.iter().copied().collect(),
                    t.root_rule,
                    t.one_level,
                )
            })
            .collect(),
        answer.hypothesis_contradicts_idb,
        format!("{:?}", answer.completeness),
    )
}

/// The work budget both sides run under. A reference does every tick of
/// the walk it is compared with, in the same order, so when the reference
/// completes within the budget so does the pruned walk. A case whose
/// reference runs out is not compared: random rule bases can make both
/// walks exponential.
const BUDGET: u64 = 20_000;

fn preds_of(conjunct: &Conjunct) -> Vec<String> {
    conjunct
        .iter()
        .map(|l| format!("{}{}", if l.positive { "" } else { "not " }, l.atom.pred))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cone_pruning_changes_no_answer(
        layered in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec((0u8..8, proptest::collection::vec(0u8..10, 2..3)), 1..4),
                proptest::collection::vec(0u8..10, 2..3),
                0u8..20,
            ),
            1..8,
        ),
        recursion in proptest::collection::vec((0u8..5, 0u8..8), 2..3),
        hypothesis in proptest::collection::vec(
            (0u8..4, 0u8..7, proptest::collection::vec(0u8..8, 2..3)),
            1..4,
        ),
        flags in (0u8..2, 0u8..2, 0u8..2),
    ) {
        let mut rules: Vec<Rule> = layered
            .iter()
            .map(|(head, body, head_args, extra)| layered_rule(*head, body, head_args, *extra))
            .collect();
        for (level, (shape, step)) in [2, 3].into_iter().zip(&recursion) {
            rules.extend(recursive_rules(level, *shape, *step));
        }
        let idb = Idb::from_rules(rules).unwrap();
        let hypothesis: Vec<Literal> = hypothesis
            .iter()
            .map(|(kind, pred, args)| hypothesis_literal(*kind, *pred, args))
            .collect();
        let (fallback, policy, constant) = flags;
        let opts = DescribeOptions::default()
            .with_work_budget(BUDGET)
            .with_fallback(if fallback == 0 { FallbackPolicy::PerRule } else { FallbackPolicy::Global })
            .with_transform(if policy == 0 {
                TransformPolicy::PreferModified
            } else {
                TransformPolicy::AlwaysArtificial
            });
        let prep = PreparedIdb::prepare(&idb, opts.transform);
        let context = format!("{:?} where {:?}", idb.rules(), hypothesis);
        let truncated = |r: &crate::Result<DescribeAnswer>| r.as_ref().is_ok_and(DescribeAnswer::is_truncated);
        let summarized = |r: crate::Result<DescribeAnswer>| r.map(|a| summary(&a)).map_err(|e| e.to_string());

        // Plain describe, on every concept.
        for &(pred, arity) in IDB.iter().filter(|(p, _)| idb.defines(p)) {
            let mut args: Vec<Term> = ["X", "Y"][..arity].iter().map(|v| Term::var(v)).collect();
            if constant == 1 {
                args[0] = Term::sym("c0");
            }
            let query = Describe::new(Atom::new(pred, args), hypothesis.clone());
            let reference = prep.describe_unpruned(&query, &opts);
            if truncated(&reference) {
                continue;
            }
            prop_assert_eq!(
                summarized(prep.describe(&query, &opts)),
                summarized(reference),
                "describe {}: {}", query, context
            );
        }

        // `describe *`: a skipped subject is one the unpruned loop drops,
        // or one `describe` is not defined on: its describe fails with
        // `UnsupportedIdb` (its rules negate, §3.2, or reach a recursion
        // the transformation refused).
        let mut reference = Vec::new();
        let mut complete = true;
        for (pred, arity) in prep.subjects() {
            let subject = Atom::new(
                pred.clone(),
                (0..arity).map(|i| Term::var(&format!("S{i}"))).collect(),
            );
            let answer = prep.describe_unpruned(&Describe::new(subject, hypothesis.clone()), &opts);
            complete &= !truncated(&answer);
            match answer {
                Ok(mut answer) => {
                    answer.theorems.retain(|t| t.uses_hypothesis());
                    if !answer.theorems.is_empty() {
                        reference.push((pred.to_string(), summary(&answer)));
                    }
                }
                Err(DescribeError::UnsupportedIdb(_)) => {}
                Err(e) => {
                    reference = vec![(e.to_string(), Summary::default())];
                    break;
                }
            }
        }
        if complete {
            let wildcard = match prep.describe_wildcard(&[], &hypothesis, &opts) {
                Ok(out) => out.iter().map(|(p, a)| (p.to_string(), summary(a))).collect(),
                Err(e) => vec![(e.to_string(), Summary::default())],
            };
            prop_assert_eq!(wildcard, reference, "describe * where {:?}: {}", hypothesis, context);
        }

        // `where not`, with each hypothesis atom as the taboo: the search
        // finds a derivation exactly when the DNF has one, and it is the
        // DNF's first.
        for &(pred, arity) in IDB.iter().filter(|(p, _)| idb.defines(p)) {
            let subject = Atom::new(pred, ["X", "Y"][..arity].iter().map(|v| Term::var(v)).collect());
            for taboo in hypothesis.iter().filter(|l| !l.is_builtin()).map(|l| &l.atom) {
                let Ok(dnf) = describe_without_dnf(&idb, &subject, taboo, &opts) else {
                    continue;
                };
                let answer = describe_without(&idb, &subject, taboo, &opts).unwrap();
                prop_assert_eq!(answer.derivable_without, !dnf.is_empty(), "{} not {}: {}", subject, taboo, context);
                prop_assert_eq!(
                    answer.witness.as_ref().map(preds_of),
                    dnf.first().map(preds_of),
                    "{} not {}: {}", subject, taboo, context
                );
            }
        }
    }
}
