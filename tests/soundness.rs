//! Property-based verification of the paper's (omitted) formal claims:
//!
//! * **Soundness** (§3.2/§4): every `describe` theorem `p ← φ` is
//!   logically derived under the hypothesis ψ — on any EDB, every ground
//!   instance satisfying `φ ∧ ψ` in the least model has `p` in the least
//!   model.
//! * **Transformation equivalence** (§5.2): the Imielinski transformation
//!   (and the modified one) preserves the extension of the transformed
//!   predicate.
//! * **Termination** (§5.3): Algorithm 2 terminates on conforming IDBs
//!   without budgets.

use proptest::prelude::*;
use qdk::core::transform::{transform_idb, TransformedIdb};
use qdk::core::{describe, Describe, DescribeOptions, TransformPolicy};
use qdk::engine::{seminaive, DerivedFacts, EvalOptions, Idb, ProgramPlan};
use qdk::logic::parser::{parse_atom, parse_body, parse_program};
use qdk::logic::{Bindings, Literal, Term};
use qdk::storage::Edb;

/// The full semi-naive model of `idb` over `edb`.
fn model_of(edb: &Edb, idb: &Idb) -> DerivedFacts {
    let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
    seminaive::eval(
        edb,
        idb,
        &plan,
        None,
        DerivedFacts::new(),
        EvalOptions::default(),
    )
    .unwrap()
}

/// Builds a random prereq graph EDB.
fn graph_edb(edges: &[(u8, u8)]) -> Edb {
    let mut edb = Edb::new();
    edb.declare("prereq", &["C", "P"]).unwrap();
    for (a, b) in edges {
        edb.insert_fact(&parse_atom(&format!("prereq(n{a}, n{b})")).unwrap())
            .unwrap();
    }
    edb
}

fn prior_idb() -> Idb {
    Idb::from_rules(
        parse_program(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap()
}

/// Checks the soundness of every theorem of `describe subject where hyp`
/// against a materialized model.
fn check_soundness(edb: &Edb, idb: &Idb, subject: &str, hypothesis: &str, opts: &DescribeOptions) {
    let query = Describe::new(
        parse_atom(subject).unwrap(),
        if hypothesis.is_empty() {
            vec![]
        } else {
            parse_body(hypothesis).unwrap()
        },
    );
    let answer = match describe::describe(idb, &query, opts) {
        Ok(a) => a,
        Err(e) => panic!("describe failed: {e}"),
    };

    // Materialize the model over the *transformed* IDB so step predicates
    // appearing in answers have extensions too.
    let tidb: TransformedIdb = transform_idb(idb, opts.transform).unwrap();
    let model = model_of(edb, &tidb.idb);

    for theorem in &answer.theorems {
        // Solve body ∧ hypothesis against the model.
        let mut goals: Vec<Literal> = theorem.rule.body.clone();
        goals.extend(query.hypothesis.iter().cloned());
        let solutions = solve_against_model(edb, &model, &goals);
        for s in solutions {
            let head = s.apply_atom(&theorem.rule.head);
            if !head.is_ground() {
                continue; // claim ranges over unconstrained values
            }
            let holds = atom_in_model(edb, &model, &head);
            assert!(
                holds,
                "unsound theorem {} (instance {head}) for describe {subject} where {hypothesis}",
                theorem.rule
            );
        }
    }
}

fn solve_against_model(
    edb: &Edb,
    model: &qdk::engine::DerivedFacts,
    goals: &[Literal],
) -> Vec<Bindings> {
    // Order goals: database atoms first, then builtins (the naive
    // scheduler in the engine handles this; here a simple reorder works
    // because all database atoms are materialized).
    let mut substs = vec![Bindings::new()];
    let (db, builtins): (Vec<&Literal>, Vec<&Literal>) =
        goals.iter().partition(|l| !l.is_builtin());
    for lit in db.iter().chain(&builtins) {
        let mut next = Vec::new();
        for s in &substs {
            if lit.is_builtin() {
                match qdk::storage::builtins::eval_atom(&lit.atom, s) {
                    Ok(Some(true)) => next.push(s.clone()),
                    Ok(Some(false)) | Ok(None) => {
                        if lit.atom.pred.as_str() == "=" {
                            // Equality may bind.
                            let mut s = s.clone();
                            if qdk::logic::unify(&lit.atom.args[0], &lit.atom.args[1], &mut s) {
                                next.push(s);
                            }
                        }
                    }
                    Err(_) => {}
                }
                continue;
            }
            if !lit.positive {
                continue; // no negative literals in these tests
            }
            if let Some(rel) = edb.relation(lit.atom.pred.as_str()) {
                let mut out = Vec::new();
                edb.match_atom(&lit.atom, s, &mut out).unwrap();
                next.extend(out);
                let _ = rel;
            } else if let Some(rel) = model.relation(lit.atom.pred.as_str()) {
                let mut out = Vec::new();
                qdk_match_relation(rel, &lit.atom, s, &mut out);
                next.extend(out);
            }
        }
        substs = next;
    }
    substs
}

fn qdk_match_relation(
    rel: &qdk::storage::Relation,
    atom: &qdk::logic::Atom,
    subst: &Bindings,
    out: &mut Vec<Bindings>,
) {
    // Match by scanning (test-only; relations are small).
    let mut s = subst.clone();
    let mark = s.mark();
    'tuples: for tuple in rel.iter() {
        if atom.arity() != tuple.arity() {
            return;
        }
        s.undo_to(mark);
        for (term, value) in atom.args.iter().zip(tuple.values()) {
            match s.apply_term(term) {
                Term::Const(c) => {
                    if &c != value {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => {
                    s.bind(v, Term::Const(value.clone()));
                }
            }
        }
        out.push(s.clone());
    }
}

fn atom_in_model(edb: &Edb, model: &qdk::engine::DerivedFacts, atom: &qdk::logic::Atom) -> bool {
    let tuple: qdk::storage::Tuple = atom
        .args
        .iter()
        .map(|t| t.as_const().unwrap().clone())
        .collect();
    if let Some(rel) = edb.relation(atom.pred.as_str()) {
        return rel.contains(&tuple);
    }
    model
        .relation(atom.pred.as_str())
        .is_some_and(|r| r.contains(&tuple))
}

fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..6, 0u8..6), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Describe answers for the recursive prior predicate are sound on
    /// arbitrary graphs, under both transformations.
    #[test]
    fn recursive_describe_sound(edges in arb_edges(), c in 0u8..6) {
        let edb = graph_edb(&edges);
        let idb = prior_idb();
        for policy in [TransformPolicy::PreferModified, TransformPolicy::AlwaysArtificial] {
            let opts = DescribeOptions::paper().with_transform(policy);
            check_soundness(&edb, &idb, "prior(X, Y)", &format!("prior(n{c}, Y)"), &opts);
            check_soundness(&edb, &idb, "prior(X, Y)", &format!("prior(X, n{c})"), &opts);
            check_soundness(&edb, &idb, "prior(X, Y)", "prereq(X, Z)", &opts);
        }
    }

    /// The transformation preserves the extension of the recursive
    /// predicate (the §5.2 equivalence claim).
    #[test]
    fn transformation_preserves_extension(edges in arb_edges()) {
        let edb = graph_edb(&edges);
        let idb = prior_idb();
        let original = model_of(&edb, &idb);
        for policy in [TransformPolicy::PreferModified, TransformPolicy::AlwaysArtificial] {
            let tidb = transform_idb(&idb, policy).unwrap();
            let transformed = model_of(&edb, &tidb.idb);
            let a = original.relation("prior").map(|r| {
                let mut v: Vec<String> = r.iter().map(ToString::to_string).collect();
                v.sort();
                v
            });
            let b = transformed.relation("prior").map(|r| {
                let mut v: Vec<String> = r.iter().map(ToString::to_string).collect();
                v.sort();
                v
            });
            prop_assert_eq!(a, b, "policy {:?}", policy);
        }
    }

    /// Algorithm 2 terminates (no budget) on conforming IDBs with random
    /// hypotheses — the finiteness claim of §5.
    #[test]
    fn algorithm2_terminates(edges in arb_edges(), a in 0u8..6, b in 0u8..6) {
        let _ = graph_edb(&edges); // EDB irrelevant to describe
        let idb = prior_idb();
        let opts = DescribeOptions::paper();
        let hyps = [
            format!("prior(n{a}, Y)"),
            format!("prior(X, n{b})"),
            format!("prereq(n{a}, n{b})"),
            String::new(),
        ];
        for h in &hyps {
            let q = Describe::new(
                parse_atom("prior(X, Y)").unwrap(),
                if h.is_empty() { vec![] } else { parse_body(h).unwrap() },
            );
            let out = describe::describe(&idb, &q, &opts);
            prop_assert!(out.is_ok(), "diverged on hypothesis {h}: {:?}", out.err());
        }
    }

    /// Nonrecursive describe (Algorithm 1) is sound on the university IDB
    /// with randomized fact populations.
    #[test]
    fn nonrecursive_describe_sound(gpas in proptest::collection::vec(30u8..42, 1..6)) {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "M", "G"]).unwrap();
        edb.declare("complete", &["S", "C", "Sem", "G"]).unwrap();
        edb.declare("taught", &["P", "C", "Sem", "E"]).unwrap();
        edb.declare("teach", &["P", "C"]).unwrap();
        for (i, g) in gpas.iter().enumerate() {
            let gpa = *g as f64 / 10.0;
            edb.insert_fact(&parse_atom(&format!("student(s{i}, math, {gpa:.1})")).unwrap())
                .unwrap();
            edb.insert_fact(&parse_atom(&format!("complete(s{i}, databases, f88, {gpa:.1})")).unwrap())
                .unwrap();
        }
        edb.insert_fact(&parse_atom("taught(susan, databases, f88, 3.5)").unwrap()).unwrap();
        edb.insert_fact(&parse_atom("teach(susan, databases)").unwrap()).unwrap();
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let opts = DescribeOptions::paper();
        check_soundness(&edb, &idb, "can_ta(X, databases)", "student(X, math, V), V > 3.7", &opts);
        check_soundness(&edb, &idb, "can_ta(X, Y)", "honor(X), teach(susan, Y)", &opts);
        check_soundness(&edb, &idb, "honor(X)", "", &opts);
    }
}
