//! The paper's example databases, ready to load.
//!
//! * [`university`] — the knowledge-rich database of §2.2: eight EDB
//!   predicates (`student`, `professor`, `course`, `enroll`, `teach`,
//!   `prereq`, `taught`, `complete`) and the three IDB predicates
//!   (`honor`, `prior`, `can_ta`), with a fact population sized so the
//!   worked examples have non-trivial answers;
//! * [`university_extended`] — the same plus the introduction's
//!   embellishments: demographics (nationality / marital status) with the
//!   "foreign students must be married" integrity constraint, and the
//!   Dean's-List category for the concept-comparison query;
//! * [`routing`] — the introduction's fifth/sixth example: airports,
//!   flights, and the standard recursive definition of reachability
//!   (optionally with the symmetric rule, for the "is reachability
//!   symmetric?" knowledge query).

use crate::kb::KnowledgeBase;

/// The §2.2 university database.
// The scripts are compile-time constants the test suite loads on every
// run: a failure here is a bug in this file, not a condition to handle.
#[allow(clippy::expect_used)]
pub fn university() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.load(UNIVERSITY_SCHEMA).expect("schema loads");
    kb.load(UNIVERSITY_FACTS).expect("facts load");
    kb.load(UNIVERSITY_RULES).expect("rules load");
    kb
}

/// The university database with the introduction's extensions.
// The scripts are compile-time constants the test suite loads on every
// run: a failure here is a bug in this file, not a condition to handle.
#[allow(clippy::expect_used)]
pub fn university_extended() -> KnowledgeBase {
    let mut kb = university();
    kb.load(UNIVERSITY_EXTENSION).expect("extension loads");
    kb
}

/// The routing database. `symmetric` adds the (untyped recursive) rule
/// `reachable(X, Y) :- reachable(Y, X)`, making reachability symmetric —
/// the knowledge the introduction's sixth query asks about.
// The scripts are compile-time constants the test suite loads on every
// run: a failure here is a bug in this file, not a condition to handle.
#[allow(clippy::expect_used)]
pub fn routing(symmetric: bool) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.load(ROUTING_BASE).expect("routing loads");
    if symmetric {
        kb.run("reachable(X, Y) :- reachable(Y, X).")
            .expect("symmetric rule loads");
    }
    kb
}

/// Schema of §2.2, with keys for the functional dependencies the
/// hypothetical-possibility queries rely on.
pub const UNIVERSITY_SCHEMA: &str = "\
predicate student(Sname, Major, Gpa) key 1.
predicate professor(Pname, Dept, Phone) key 1.
predicate course(Ctitle, Units) key 1.
predicate enroll(Sname, Ctitle).
predicate teach(Pname, Ctitle).
predicate prereq(Ctitle, Ptitle).
predicate taught(Pname, Ctitle, Sem, Eval) key 3.
predicate complete(Sname, Ctitle, Sem, Grade) key 3.
";

/// A fact population for the schema. Chosen so that:
/// * Example 1 (`retrieve honor(X) where enroll(X, databases)`) returns
///   exactly `ann`;
/// * Example 2 (the `answer` query) returns `ann` and `bob`;
/// * the `prior` chain `databases → datastructures → programming` exists.
pub const UNIVERSITY_FACTS: &str = "\
student(ann, math, 3.9).
student(bob, math, 3.8).
student(cara, physics, 3.5).
student(dan, math, 3.9).
student(eve, physics, 3.95).

professor(susan, cs, 51234).
professor(peter, cs, 51235).
professor(mary, math, 51236).

course(databases, 4).
course(datastructures, 4).
course(programming, 3).
course(calculus, 4).
course(algebra, 3).

enroll(ann, databases).
enroll(cara, databases).
enroll(dan, calculus).
enroll(eve, databases).

teach(susan, databases).
teach(mary, calculus).

prereq(databases, datastructures).
prereq(datastructures, programming).
prereq(calculus, algebra).

taught(susan, databases, f88, 3.5).
taught(peter, databases, f87, 3.9).
taught(mary, calculus, f88, 3.2).

complete(ann, databases, f88, 3.6).
complete(bob, databases, f87, 4.0).
complete(dan, databases, f88, 3.2).
complete(eve, calculus, f87, 3.8).
";

/// The IDB of §2.2, verbatim (modulo ASCII).
pub const UNIVERSITY_RULES: &str = "\
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).
";

/// The introduction's embellishments: demographics with the
/// foreign-students-are-married constraint, and the Dean's List.
pub const UNIVERSITY_EXTENSION: &str = "\
predicate demographic(Sname, Nationality, Mstatus) key 1.
demographic(ann, usa, single).
demographic(bob, france, married).
demographic(cara, usa, married).
demographic(dan, japan, married).
demographic(eve, usa, single).

foreign(X) :- demographic(X, N, M), N != usa.
unmarried(X) :- demographic(X, N, single).
:- foreign(X), unmarried(X).

deans_list(X) :- student(X, Y, Z), Z > 3.9.
";

/// Airports and flights, with the standard recursive definition of
/// reachability (strongly linear, typed — transformable).
pub const ROUTING_BASE: &str = "\
predicate airport(Code) key 1.
predicate flight(From, To).

airport(lax).
airport(sfo).
airport(jfk).
airport(ord).
airport(sea).

flight(lax, sfo).
flight(sfo, sea).
flight(sfo, ord).
flight(ord, jfk).

reachable(X, Y) :- flight(X, Y).
reachable(X, Y) :- flight(X, Z), reachable(Z, Y).
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn university_loads_and_answers_example1() {
        let mut kb = university();
        let a = kb
            .run("retrieve honor(X) where enroll(X, databases).")
            .unwrap();
        let d = a.as_data().unwrap();
        // ann (3.9, enrolled) and eve (3.95, enrolled).
        assert_eq!(d.len(), 2);
        assert!(d.contains_row(&["ann"]) && d.contains_row(&["eve"]));
    }

    #[test]
    fn university_answers_example2() {
        let mut kb = university();
        let a = kb
            .run(
                "retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.",
            )
            .unwrap();
        let d = a.as_data().unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.contains_row(&["ann"]) && d.contains_row(&["bob"]));
    }

    #[test]
    fn extended_has_constraint_and_deans_list() {
        let kb = university_extended();
        assert_eq!(kb.constraints().len(), 1);
        assert!(kb.idb().defines("deans_list"));
        assert!(kb.idb().defines("foreign"));
    }

    #[test]
    fn routing_reaches_transitively() {
        let mut kb = routing(false);
        let a = kb.run("retrieve reachable(lax, Y).").unwrap();
        let d = a.as_data().unwrap();
        // lax → sfo → {sea, ord} → jfk.
        assert_eq!(d.len(), 4);
        assert!(d.contains_row(&["jfk"]));
    }

    #[test]
    fn symmetric_routing_adds_untyped_rule() {
        let kb = routing(true);
        assert_eq!(kb.idb().rules_for("reachable").count(), 3);
    }
}
