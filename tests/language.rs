//! The unified language end to end: scripts, statement round-trips, and
//! error reporting through the facade.

use qdk::lang::ast::Statement;
use qdk::lang::parser::{parse_script, parse_statement};
use qdk::{KnowledgeBase, Request, Session};

#[test]
fn full_session_script() {
    let mut kb = KnowledgeBase::new();
    let answers = kb
        .load(
            "predicate student(Sname, Major, Gpa) key 1.
             predicate enroll(Sname, Ctitle).
             student(ann, math, 3.9).
             student(bob, math, 3.5).
             enroll(ann, databases).
             honor(X) :- student(X, Y, Z), Z > 3.7.
             retrieve honor(X).
             describe honor(X).
             describe where student(X, Y, Z) and Z > 4.5 and honor(X).",
        )
        .unwrap();
    assert_eq!(answers.len(), 9);
    // The retrieve answer.
    assert!(answers[6].as_data().unwrap().contains_row(&["ann"]));
    // The describe answer.
    assert_eq!(
        answers[7].as_knowledge().unwrap().rendered(),
        vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
    );
    // GPA > 4.5 > 3.7: possible as far as the knowledge goes (no upper
    // bound is stated in the IDB).
    assert_eq!(answers[8].as_bool(), Some(true));
}

#[test]
fn statement_display_roundtrips() {
    let statements = [
        "predicate student(Sname, Major, Gpa) key 1.",
        "predicate enroll(Sname, Ctitle).",
        "student(ann, math, 3.9).",
        "honor(X) :- student(X, Y, Z), (Z > 3.7).",
        ":- foreign(X), unmarried(X).",
        "retrieve honor(X) where enroll(X, databases).",
        "describe honor(X).",
        "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7).",
        "describe can_ta(X, Y) where not honor(X).",
        "describe where foreign(X) and unmarried(X).",
        "describe * where honor(X).",
        "compare (describe honor(X)) with (describe deans_list(X)).",
    ];
    for src in statements {
        let parsed = parse_statement(src).unwrap();
        let printed = parsed.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(parsed, reparsed, "round-trip of {src}");
    }
}

#[test]
fn necessary_statement_roundtrips() {
    let src = "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3).";
    let parsed = parse_statement(src).unwrap();
    assert!(matches!(parsed, Statement::DescribeNecessary(_)));
    let reparsed = parse_statement(&parsed.to_string()).unwrap();
    assert_eq!(parsed, reparsed);
}

#[test]
fn scripts_report_positions_on_error() {
    let err = parse_script("student(ann, math, 3.9).\nretrieve honor(X where q.").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error"), "{msg}");
    assert!(msg.contains("2:"), "line number missing: {msg}");
}

#[test]
fn execution_errors_are_informative() {
    let mut kb = KnowledgeBase::new();
    kb.load("predicate student(Sname, Major, Gpa).").unwrap();
    // Declared predicate, wrong arity.
    let e = kb.run("student(ann).").unwrap_err();
    assert!(e.to_string().contains("arity"), "{e}");
    // Describe of an EDB predicate.
    let e = kb.run("describe student(X, Y, Z).").unwrap_err();
    assert!(e.to_string().contains("IDB"), "{e}");
    // Unsafe retrieve.
    kb.run("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
    let e = kb.run("retrieve answer(W) where honor(X).").unwrap_err();
    assert!(
        e.to_string().contains("unsafe") || e.to_string().contains("W"),
        "{e}"
    );
}

#[test]
fn ack_messages_describe_the_action() {
    let mut kb = KnowledgeBase::new();
    let a = kb.run("predicate student(Sname, Major, Gpa).").unwrap();
    assert!(a.to_string().contains("declared student/3"));
    let a = kb.run("student(ann, math, 3.9).").unwrap();
    assert!(a.to_string().contains("stored"));
    let a = kb.run("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
    assert!(a.to_string().contains("defined rule"));
}

#[test]
fn non_ascii_strings_load_and_render_intact() {
    let mut s = Session::new();
    s.load("predicate word(W).\nword(\"naïve\").\nword(\"ça \\\"va\\\"\").")
        .unwrap();
    let answer = s.retrieve(Request::subject("word(W)")).unwrap();
    let data = answer.as_data().unwrap();
    assert!(data.contains_row(&["\"naïve\""]), "{data}");
    assert!(data.contains_row(&["\"ça \\\"va\\\"\""]), "{data}");
}
