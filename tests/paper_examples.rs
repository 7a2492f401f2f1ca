//! End-to-end reproduction of every worked example and motivating query
//! in the paper, through the unified language. Each test is one row of
//! EXPERIMENTS.md.

use qdk::{datasets, KnowledgeBase};

fn kb() -> KnowledgeBase {
    datasets::university_extended()
}

#[test]
fn e1_retrieve_honor_enrolled_in_databases() {
    // "Retrieve the honor students enrolled in the databases course."
    let mut kb = kb();
    let a = kb
        .run("retrieve honor(X) where enroll(X, databases).")
        .unwrap();
    let d = a.as_data().unwrap();
    assert_eq!(d.len(), 2);
    assert!(d.contains_row(&["ann"]));
    assert!(d.contains_row(&["eve"]));
}

#[test]
fn e2_retrieve_with_fresh_answer_predicate() {
    // "Retrieve the math students whose GPA are above 3.7 and who are
    // eligible for teaching assistantship in the databases course."
    let mut kb = kb();
    let a = kb
        .run("retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.")
        .unwrap();
    let d = a.as_data().unwrap();
    assert_eq!(d.len(), 2);
    assert!(d.contains_row(&["ann"]) && d.contains_row(&["bob"]));
}

#[test]
fn e3_describe_can_ta_for_qualified_math_students() {
    // Paper's stated answer: completed the course under the professor
    // currently teaching it with grade over 3.3, or completed it with 4.0.
    let mut kb = kb();
    let a = kb
        .run("describe can_ta(X, databases) where student(X, math, V) and V > 3.7.")
        .unwrap();
    let k = a.as_knowledge().unwrap();
    assert_eq!(
        k.rendered(),
        vec![
            "can_ta(X, databases) ← complete(X, databases, Y, 4.0)",
            "can_ta(X, databases) ← complete(X, databases, Y, Z) ∧ (Z > 3.3) ∧ taught(U, databases, Y, V) ∧ teach(U, databases)",
        ]
    );
}

#[test]
fn e4_describe_honor() {
    // Paper's stated answer: honor(X) ← student(X, Y, Z) ∧ (Z > 3.7).
    let mut kb = kb();
    let a = kb.run("describe honor(X).").unwrap();
    assert_eq!(
        a.as_knowledge().unwrap().rendered(),
        vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
    );
}

#[test]
fn e5_describe_can_ta_taught_by_susan() {
    // Paper's stated answer: completed the course with 4.0, or took it
    // from susan with more than 3.3.
    let mut kb = kb();
    let a = kb
        .run("describe can_ta(X, Y) where honor(X) and teach(susan, Y).")
        .unwrap();
    assert_eq!(
        a.as_knowledge().unwrap().rendered(),
        vec![
            "can_ta(X, Y) ← complete(X, Y, Z, 4.0)",
            "can_ta(X, Y) ← complete(X, Y, Z, U) ∧ (U > 3.3) ∧ taught(susan, Y, Z, V)",
        ]
    );
}

#[test]
fn e6_recursive_describe_finite_answer() {
    // Paper §5.3's preferred finite answer via the modified
    // transformation: (X = databases) or prior(X, databases).
    let mut kb = kb();
    let a = kb
        .run("describe prior(X, Y) where prior(databases, Y).")
        .unwrap();
    assert_eq!(
        a.as_knowledge().unwrap().rendered(),
        vec![
            "prior(X, Y) ← (X = databases)",
            "prior(X, Y) ← prior(X, databases)",
        ]
    );
}

#[test]
fn e7_typing_restriction_blocks_unsound_loops() {
    // Paper §5.1: the naive algorithm emits prereq "loops"
    // (prereq(X, X), prereq(X, Z1) ∧ prereq(Z1, X), …). Algorithm 2's
    // typing-preserving substitutions reject them.
    let mut kb = kb();
    let a = kb
        .run("describe prior(X, Y) where prior(X, databases).")
        .unwrap();
    let k = a.as_knowledge().unwrap();
    for t in &k.theorems {
        for l in &t.rule.body {
            if l.atom.pred == "prereq" {
                assert_ne!(l.atom.args[0], l.atom.args[1], "unsound loop: {}", t.rule);
            }
        }
    }
    // The sound root identification is present.
    assert!(k.contains_rendered("prior(X, Y) ← (Y = databases)"));
}

#[test]
fn e8_indirectly_recursive_subject_terminates() {
    // Paper §5.1 Example 8: p depends on recursive q; Algorithm 1 hangs,
    // Algorithm 2 terminates.
    let mut kb = KnowledgeBase::new();
    kb.load(
        "p(X, Y) :- q(X, Z), r(Z, Y).\n\
         q(X, Y) :- q(X, Z), s(Z, Y).\n\
         q(X, Y) :- r(X, Y).",
    )
    .unwrap();
    let a = kb.run("describe p(X, Y) where r(a, Y).").unwrap();
    assert!(!a.as_knowledge().unwrap().theorems.is_empty());
}

#[test]
fn q1_are_vs_must_foreign_students_married() {
    // "Are all foreign students married?" — data: yes, none unmarried.
    let mut kb = kb();
    let are = kb
        .run("retrieve answer(X) where foreign(X) and unmarried(X).")
        .unwrap();
    assert!(are.as_data().unwrap().is_empty());
    // "Must all foreign students be married?" — knowledge: yes, the
    // integrity constraint forbids the alternative.
    let must = kb
        .run("describe where foreign(X) and unmarried(X).")
        .unwrap();
    assert_eq!(must.as_bool(), Some(false)); // the situation is impossible
}

#[test]
fn q2_could_an_honor_student_be_foreign() {
    let mut kb = kb();
    let a = kb.run("describe where honor(X) and foreign(X).").unwrap();
    assert_eq!(a.as_bool(), Some(true));
    // But an honor student with GPA under 3.5 is impossible (functional
    // dependency on student's key).
    let b = kb
        .run("describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).")
        .unwrap();
    assert_eq!(b.as_bool(), Some(false));
}

#[test]
fn q3_difference_between_honor_and_deans_list() {
    let mut kb = kb();
    let a = kb
        .run("compare (describe honor(X)) with (describe deans_list(X)).")
        .unwrap();
    let c = a.as_comparison().unwrap();
    assert_eq!(
        c.relationship,
        qdk::core::compare::Relationship::FirstSubsumesSecond
    );
    // Dean's List entails honor, so the shared concept is honor's whole
    // definition.
    assert_eq!(
        c.to_string(),
        "the first concept subsumes the second\n\
         shared concept: student(X, Y, Z) ∧ (Z > 3.7)\n\
         only the second requires: (Z > 3.9)\n"
    );
}

#[test]
fn q4_is_reachability_symmetric() {
    // Asymmetric network: no unconditional theorem.
    let mut plain = datasets::routing(false);
    let a = plain
        .run("describe reachable(X, Y) where reachable(Y, X).")
        .unwrap();
    assert!(!a
        .as_knowledge()
        .unwrap()
        .theorems
        .iter()
        .any(|t| t.rule.body.is_empty()));
    // With the symmetric rule: the guarantee is derived.
    let mut symmetric = datasets::routing(true);
    let b = symmetric
        .run("describe reachable(X, Y) where reachable(Y, X).")
        .unwrap();
    assert!(b
        .as_knowledge()
        .unwrap()
        .theorems
        .iter()
        .any(|t| t.rule.body.is_empty()));
}

#[test]
fn x1_where_necessary_filters() {
    // §6 extension 1: describe honor where necessary complete(...) —
    // empty, since honor's derivation never needs complete.
    let mut kb = kb();
    let a = kb
        .run("describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3.")
        .unwrap();
    assert!(a.as_knowledge().unwrap().theorems.is_empty());
    // Plain describe answers regardless.
    let plain = kb
        .run("describe honor(X) where complete(X, Y, Z, U) and U > 3.3.")
        .unwrap();
    assert!(!plain.as_knowledge().unwrap().theorems.is_empty());
}

#[test]
fn x2_negated_hypothesis() {
    // §6 extension 2: honor is necessary for can_ta; teach is not.
    let mut kb = kb();
    let honor = kb.run("describe can_ta(X, Y) where not honor(X).").unwrap();
    assert_eq!(honor.as_bool(), Some(false));
    let teach = kb
        .run("describe can_ta(X, Y) where not teach(P, C).")
        .unwrap();
    assert_eq!(teach.as_bool(), Some(true));
}

#[test]
fn x3_wildcard_subject() {
    // §6 extension 4: what is derivable from honor status?
    let mut kb = kb();
    let a = kb.run("describe * where honor(X).").unwrap();
    let qdk::Answer::Wildcard(entries) = a else {
        panic!("expected wildcard answer");
    };
    let preds: Vec<String> = entries.iter().map(|(p, _)| p.to_string()).collect();
    assert!(preds.contains(&"can_ta".to_string()), "{preds:?}");
}

#[test]
fn reachability_recursive_describe() {
    // Algorithm 2 on the routing schema: describe reachable(X, Y) where
    // reachable(sfo, Y) — finite, phrased over reachable itself.
    let mut kb = datasets::routing(false);
    let a = kb
        .run("describe reachable(X, Y) where reachable(sfo, Y).")
        .unwrap();
    let k = a.as_knowledge().unwrap();
    assert!(k.contains_rendered("reachable(X, Y) ← (X = sfo)"), "{k}");
    assert!(
        k.contains_rendered("reachable(X, Y) ← reachable(X, sfo)"),
        "{k}"
    );
}
