//! Cross-strategy agreement: semi-naive, top-down and QSQ evaluation
//! must return identical answers for every `retrieve` query —
//! on the paper's database and on randomized workloads.

use proptest::prelude::*;
use qdk::{datasets, Request, Session, Strategy};

fn rows(session: &Session, subject: &str, qualifier: &str, strategy: Strategy) -> Vec<String> {
    let mut request = Request::subject(subject).strategy(strategy);
    if !qualifier.is_empty() {
        request = request.where_clause(qualifier);
    }
    let a = session.retrieve(request).unwrap().into_data().unwrap();
    let mut rows: Vec<String> = a.sorted().iter().map(ToString::to_string).collect();
    rows.dedup();
    rows
}

fn assert_agree(kb: &qdk::KnowledgeBase, subject: &str, qualifier: &str) {
    let session = Session::over(kb.clone());
    let semi = rows(&session, subject, qualifier, Strategy::SemiNaive);
    let top = rows(&session, subject, qualifier, Strategy::TopDown);
    let qsq = rows(&session, subject, qualifier, Strategy::Qsq);
    assert_eq!(
        semi, top,
        "semi-naive vs top-down on {subject} / {qualifier}"
    );
    assert_eq!(semi, qsq, "semi-naive vs qsq on {subject} / {qualifier}");
}

#[test]
fn university_queries_agree() {
    let kb = datasets::university_extended();
    for (s, q) in [
        ("honor(X)", ""),
        ("honor(X)", "enroll(X, databases)"),
        ("can_ta(X, Y)", ""),
        ("can_ta(X, databases)", "student(X, math, V), V > 3.7"),
        ("prior(X, Y)", ""),
        ("prior(databases, Y)", ""),
        ("prior(X, programming)", ""),
        ("foreign(X)", ""),
        ("answer(X)", "enroll(X, databases), not honor(X)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

#[test]
fn routing_queries_agree() {
    let kb = datasets::routing(false);
    for (s, q) in [
        ("reachable(X, Y)", ""),
        ("reachable(lax, Y)", ""),
        ("reachable(X, jfk)", ""),
        ("answer(X, Y)", "reachable(X, Y), flight(Y, Z)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized graphs: transitive closure agrees across strategies,
    /// including constant-bound queries.
    #[test]
    fn random_graphs_agree(
        edges in proptest::collection::vec((0u8..7, 0u8..7), 1..16),
        probe in 0u8..7,
    ) {
        let mut kb = qdk::KnowledgeBase::new();
        kb.load(
            "predicate edge(A, B).\n\
             tc(X, Y) :- edge(X, Y).\n\
             tc(X, Y) :- edge(X, Z), tc(Z, Y).",
        ).unwrap();
        for (a, b) in &edges {
            kb.run(&format!("edge(n{a}, n{b}).")).unwrap();
        }
        assert_agree(&kb, "tc(X, Y)", "");
        assert_agree(&kb, &format!("tc(n{probe}, Y)"), "");
        assert_agree(&kb, &format!("tc(X, n{probe})"), "");
        assert_agree(&kb, "answer(X)", &format!("tc(X, n{probe}), edge(n{probe}, X)"));
    }

    /// Randomized stratified-negation workloads agree too.
    #[test]
    fn random_negation_agrees(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        probe in 0u8..6,
    ) {
        let mut kb = qdk::KnowledgeBase::new();
        kb.load(
            "predicate edge(A, B).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        ).unwrap();
        for (a, b) in &edges {
            kb.run(&format!("edge(n{a}, n{b}).")).unwrap();
        }
        assert_agree(
            &kb,
            "answer(X, Y)",
            &format!("edge(X, Y), not reach(Y, n{probe})"),
        );
    }
}
