//! Edge cases across the whole stack: degenerate subjects, constants and
//! repeated variables in queries, empty databases, deep recursion through
//! multiple SCCs, and unusual-but-legal IDB shapes.

use qdk::logic::parser::{parse_atom, parse_body};
use qdk::{Describe, DescribeOptions, KnowledgeBase, Strategy};

fn kb_from(src: &str) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.load(src).unwrap();
    kb
}

#[test]
fn describe_with_constant_subject_argument() {
    // The subject can carry constants (Example 3 binds Y to databases);
    // here the whole subject is ground.
    let mut kb = kb_from(
        "predicate student(S, M, G) key 1.
         student(ann, math, 3.9).
         honor(X) :- student(X, Y, Z), Z > 3.7.",
    );
    let a = kb.run("describe honor(ann).").unwrap();
    let k = a.as_knowledge().unwrap();
    assert_eq!(
        k.rendered(),
        vec!["honor(ann) ← student(ann, X, Y) ∧ (Y > 3.7)"]
    );
}

#[test]
fn describe_with_repeated_subject_variable() {
    let mut kb = kb_from("likes(X, Y) :- knows(X, Y), fun(Y).");
    let a = kb.run("describe likes(X, X).").unwrap();
    let k = a.as_knowledge().unwrap();
    assert_eq!(k.rendered(), vec!["likes(X, X) ← knows(X, X) ∧ fun(X)"]);
}

#[test]
fn zero_ary_predicates_work_end_to_end() {
    let mut kb = kb_from(
        "predicate switch(State).
         switch(on).
         alarm :- switch(on).",
    );
    let data = kb.run("retrieve alarm.").unwrap();
    assert_eq!(data.as_data().unwrap().len(), 1); // one empty row = true
    let knowledge = kb.run("describe alarm.").unwrap();
    assert_eq!(
        knowledge.as_knowledge().unwrap().rendered(),
        vec!["alarm ← switch(on)"]
    );
}

#[test]
fn empty_database_answers_are_empty_not_errors() {
    let mut kb = kb_from(
        "predicate e(A, B).
         tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).",
    );
    for strategy in Strategy::ALL {
        let mut kb2 = kb.clone().with_strategy(strategy);
        let a = kb2.run("retrieve tc(X, Y).").unwrap();
        assert!(a.as_data().unwrap().is_empty(), "{strategy:?}");
    }
    // Describe works without any facts at all (knowledge ≠ data).
    let a = kb.run("describe tc(X, Y).").unwrap();
    assert!(!a.as_knowledge().unwrap().is_empty());
}

#[test]
fn recursion_through_two_sccs() {
    // p's closure feeds q's closure: the describe engine transforms both.
    let mut kb = kb_from(
        "p(X, Y) :- e(X, Y).
         p(X, Y) :- e(X, Z), p(Z, Y).
         q(X, Y) :- p(X, Y).
         q(X, Y) :- f(X, Z), q(Z, Y).",
    );
    let a = kb.run("describe q(X, Y) where q(a, Y).").unwrap();
    let k = a.as_knowledge().unwrap();
    assert!(k.contains_rendered("q(X, Y) ← (X = a)"), "{k}");
}

#[test]
fn describe_same_predicate_hypothesis_and_subject() {
    // Hypothesis and subject share the predicate but differ in shape.
    let mut kb = kb_from(
        "p(X, Y) :- e(X, Y).
         p(X, Y) :- e(X, Z), p(Z, Y).",
    );
    let a = kb.run("describe p(X, c) where p(a, c).").unwrap();
    let k = a.as_knowledge().unwrap();
    assert!(k.contains_rendered("p(X, c) ← (X = a)"), "{k}");
}

#[test]
fn duplicate_rules_are_deduplicated_in_answers() {
    let mut kb = kb_from(
        "h(X) :- s(X, G), G > 3.
         h(X) :- s(X, G), G > 3.",
    );
    let a = kb.run("describe h(X).").unwrap();
    assert_eq!(a.as_knowledge().unwrap().len(), 1);
}

#[test]
fn hypothesis_identifying_twice_in_one_tree() {
    // One hypothesis formula may identify several leaves.
    let mut kb = kb_from("sib(X, Y) :- par(Z, X), par(Z, Y).");
    let a = kb.run("describe sib(X, Y) where par(P, C).").unwrap();
    let k = a.as_knowledge().unwrap();
    // Some theorem identified both par leaves: body empty except an
    // equality chain, or one leaf left — at minimum the answer set is
    // non-empty and sound.
    assert!(!k.is_empty());
}

#[test]
fn retrieve_with_numeric_edge_values() {
    let mut kb = kb_from(
        "predicate m(A, V).
         m(x, -3).
         m(y, 0).
         m(z, 4).",
    );
    let a = kb
        .run("retrieve answer(A) where m(A, V) and V >= 0.")
        .unwrap();
    let d = a.as_data().unwrap();
    assert_eq!(d.len(), 2);
    assert!(d.contains_row(&["y"]) && d.contains_row(&["z"]));
    // Int/float mixing: 4 >= 3.5.
    let b = kb
        .run("retrieve answer(A) where m(A, V) and V > 3.5.")
        .unwrap();
    assert!(b.as_data().unwrap().contains_row(&["z"]));
}

#[test]
fn self_join_in_rule_body() {
    let mut kb = kb_from(
        "predicate e(A, B).
         e(a, b). e(b, c). e(a, c).
         triangle(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).",
    );
    let a = kb.run("retrieve triangle(X, Y, Z).").unwrap();
    let d = a.as_data().unwrap();
    assert_eq!(d.len(), 1);
    assert!(d.contains_row(&["a", "b", "c"]));
}

#[test]
fn long_chain_recursion_depths() {
    // 200-deep chain: bottom-up evaluation is iteration-bounded by the
    // chain, not stack-bounded.
    let mut kb = KnowledgeBase::new();
    kb.run("predicate e(A, B).").unwrap();
    for i in 0..200 {
        kb.run(&format!("e(n{i}, n{})", i + 1).replace(')', ")."))
            .unwrap();
    }
    kb.load(
        "tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).",
    )
    .unwrap();
    for strategy in Strategy::ALL {
        let mut kb2 = kb.clone().with_strategy(strategy);
        let a = kb2.run("retrieve tc(n0, Y).").unwrap();
        assert_eq!(a.as_data().unwrap().len(), 200, "{strategy:?}");
    }
}

#[test]
fn describe_options_budget_is_respected_on_conforming_idb() {
    // A generous budget on a conforming IDB changes nothing.
    let kb = kb_from(
        "prior(X, Y) :- prereq(X, Y).
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    );
    let q = Describe::new(
        parse_atom("prior(X, Y)").unwrap(),
        parse_body("prior(databases, Y)").unwrap(),
    );
    let unlimited = qdk::core::describe::describe(kb.idb(), &q, &DescribeOptions::paper()).unwrap();
    let budgeted = qdk::core::describe::describe(
        kb.idb(),
        &q,
        &DescribeOptions::paper().with_work_budget(1_000_000),
    )
    .unwrap();
    assert_eq!(unlimited.rendered(), budgeted.rendered());
}

#[test]
fn unicode_and_quoted_strings_in_facts() {
    let mut kb = kb_from("predicate note(Id, Text).");
    kb.run(r#"note(n1, "G\u{0}..."#.replace(r"\u{0}", "ö").as_str())
        .err(); // any parse failure must be an Err, not a panic
    kb.run(r#"note(n1, "hello world")."#).unwrap();
    let a = kb.run("retrieve note(n1, T).").unwrap();
    assert_eq!(a.as_data().unwrap().len(), 1);
}

#[test]
fn comparisons_between_symbols_in_describe() {
    let mut kb = kb_from("early(X) :- course(X, S), S < m.");
    let a = kb
        .run("describe early(X) where course(X, S) and S < f.")
        .unwrap();
    // (S < f) implies (S < m) lexicographically: the body comparison is
    // dropped.
    assert_eq!(a.as_knowledge().unwrap().rendered(), vec!["early(X)"]);
}

#[test]
fn unsupported_recursion_only_fails_the_subjects_that_need_it() {
    // `link` is recursive but not strongly linear, so the §5.2
    // transformation refuses the rule base. Subjects that involve no
    // recursion never needed the transformation: they answer exactly as
    // they do without the offending rules, and so does the wildcard,
    // which skips the subjects describe is not defined on. Only asking a
    // subject that reaches `link` reports the refusal.
    let sound = "honor(X) :- student(X, Y, Z), Z > 3.7.
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).";
    let unsupported = "link(X, Y) :- edge(X, Y).
                       link(X, Y) :- link(X, Z), link(Z, Y).
                       hub(X) :- link(X, X).";
    let mut reference = kb_from(sound);
    let mut kb = kb_from(&format!("{sound}\n{unsupported}"));
    for statement in [
        "describe honor(X).",
        "describe can_ta(X, Y) where honor(X).",
        "describe can_ta(X, Y) where necessary honor(X).",
        "describe can_ta(X, Y) where student(X, math, V) and V > 3.8.",
        "describe * where honor(X).",
    ] {
        assert_eq!(
            kb.run(statement).unwrap().to_string(),
            reference.run(statement).unwrap().to_string(),
            "{statement}"
        );
    }
    for statement in ["describe link(X, Y).", "describe hub(X) where edge(X, Y)."] {
        let err = kb.run(statement).expect_err(statement);
        assert!(err.to_string().starts_with("unsupported IDB"), "{err}");
    }
}

#[test]
fn where_not_is_tainted_by_a_stored_taboo_atom_below_the_root() {
    // Every derivation of honor and of can_ta uses a stored `student`
    // or `complete` atom: the concept is necessary. The negated atom
    // used to be kept as a leaf when it was stored, and the answer was
    // "derivable without".
    let mut kb = qdk::datasets::university_extended();
    for (statement, derivable_without) in [
        ("describe honor(X) where not student(X, Y, Z).", false),
        (
            "describe can_ta(X, Y) where not complete(X, Y, Z, U).",
            false,
        ),
        ("describe can_ta(X, Y) where not teach(V, Y).", true),
    ] {
        let answer = kb.run(statement).unwrap();
        assert_eq!(answer.as_bool(), Some(derivable_without), "{statement}");
    }
}

#[test]
fn which_describe_statements_apply_integrity_constraints() {
    // Every statement built on the per-subject describe discards the
    // theorems an integrity constraint forbids, exactly as plain
    // `describe` does, before it applies its own filter.
    let rules = "candidate(X) :- foreign(X), unmarried(X), applied(X).
                 candidate(X) :- domestic(X), applied(X).";
    let constraint = ":- foreign(X), unmarried(X).";
    let forms = [
        "describe candidate(X) where applied(X).",
        "describe candidate(X) where necessary applied(X).",
        "describe candidate(X) where applied(X) or applied(X) and domestic(Y).",
        "describe * where applied(X).",
    ];
    let mut unconstrained = kb_from(rules);
    let mut kb = kb_from(&format!("{rules}\n{constraint}"));
    for form in forms {
        let free = unconstrained.run(form).unwrap().to_string();
        assert!(free.contains("foreign(X)"), "{form}: {free}");
        let answer = kb.run(form).unwrap().to_string();
        assert!(!answer.contains("foreign(X)"), "{form}: {answer}");
        assert!(answer.contains("domestic(X)"), "{form}: {answer}");
    }

    // With every theorem forbidden the describes answer that the
    // hypothesis contradicts the IDB; `describe *` lists no concept.
    let mut kb = kb_from(&format!(
        "candidate(X) :- foreign(X), unmarried(X), applied(X).\n{constraint}"
    ));
    for form in &forms[..3] {
        let answer = kb.run(form).unwrap();
        let k = answer.as_knowledge().unwrap();
        assert!(
            k.hypothesis_contradicts_idb && k.theorems.is_empty(),
            "{form}: {k}"
        );
    }
    assert_eq!(kb.run(forms[3]).unwrap().to_string(), "");
}
