//! Differential testing of incremental view maintenance under churn.
//!
//! The maintained store answers bottom-up retrieves from derived state
//! that is patched in place on every mutation — semi-naive delta
//! propagation on insert, Backward/Forward on retract, scoped
//! re-derivation on rule changes. These tests pin that state against the
//! only authority there is: a knowledge base rebuilt from scratch after
//! every mutation, evaluated by the full fixpoint.
//!
//! * random interleavings of insert / retract / rule-add / query over
//!   random safe, stratified programs (the `differential.rs` generator,
//!   plus an optional negated literal per rule) must leave the maintained
//!   session observationally identical to the rebuilt one;
//! * describe answers depend only on the IDB and constraints, so the
//!   describe cache must keep serving hits across fact churn, evict on
//!   rule and constraint changes, and survive rules that existing rules
//!   θ-subsume;
//! * maintenance fallbacks must surface as recorded [`qdk::Downgrade`]s
//!   on the applied report and on the next retrieve — never silently.

use proptest::prelude::*;
use qdk::logic::parser::parse_atom;
use qdk::logic::{Atom, Literal, Rule, Term};
use qdk::{KnowledgeBase, Mutation, Request, Session, Strategy};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Random safe programs (same universe as tests/differential.rs).
// ---------------------------------------------------------------------

/// Predicate universe: fixed arities so every occurrence agrees with the
/// declaration. e* are extensional, p* intensional candidates.
const PREDS: [(&str, usize); 5] = [("e0", 2), ("e1", 1), ("p0", 2), ("p1", 1), ("p2", 2)];

fn term_for(spec: u8, pool: &[&str]) -> Term {
    if (spec as usize) < 5 && !pool.is_empty() {
        Term::var(pool[spec as usize % pool.len()])
    } else {
        Term::sym(&format!("c{}", spec % 5))
    }
}

/// Builds a safe rule from raw specs: body first, then a head whose
/// variable arguments are drawn only from variables the body binds. A
/// `negated` pick of 5 or more adds a negated literal over an extensional
/// predicate or a `p*` of lower index than the head, its variables again
/// drawn from the body's.
fn build_rule(
    head_pred: u8,
    head_args: &[u8],
    body: &[(u8, Vec<u8>)],
    negated: (u8, &[u8]),
) -> Rule {
    let vars = ["V0", "V1", "V2", "V3", "V4"];
    let mut literals = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for (p, args) in body {
        let (name, arity) = PREDS[*p as usize % PREDS.len()];
        let args: Vec<Term> = args
            .iter()
            .take(arity)
            .map(|a| {
                let t = term_for(*a, &vars);
                if let Term::Var(v) = &t {
                    if !bound.contains(&v.name()) {
                        bound.push(vars[*a as usize % vars.len()]);
                    }
                }
                t
            })
            .collect();
        literals.push(Literal::pos(Atom::new(name, args)));
    }
    let head = 2 + head_pred as usize % 3;
    let (head_name, head_arity) = PREDS[head];
    let head_args: Vec<Term> = head_args
        .iter()
        .take(head_arity)
        .map(|a| {
            if bound.is_empty() || *a >= 5 {
                Term::sym(&format!("c{}", a % 5))
            } else {
                Term::var(bound[*a as usize % bound.len()])
            }
        })
        .collect();
    let (pick, args) = negated;
    if let Some(k) = pick.checked_sub(5) {
        let (name, arity) = PREDS[k as usize % head];
        let args = args.iter().take(arity).map(|a| term_for(*a, &bound));
        literals.push(Literal::neg(Atom::new(name, args.collect())));
    }
    Rule::with_literals(Atom::new(head_name, head_args), literals)
}

/// True if no predicate of `rules` depends on itself through a negated
/// literal.
fn stratified(rules: &[Rule]) -> bool {
    // Whether some chain of rule bodies leads from `from` to `to`.
    let leads = |from: &str, to: &str| {
        let mut seen = BTreeSet::from([from]);
        let mut work = vec![from];
        while let Some(p) = work.pop() {
            for rule in rules.iter().filter(|r| r.head.pred.as_str() == p) {
                for q in rule.body.iter().map(|l| l.atom.pred.as_str()) {
                    if q == to {
                        return true;
                    }
                    if seen.insert(q) {
                        work.push(q);
                    }
                }
            }
        }
        false
    };
    rules.iter().all(|r| {
        r.body
            .iter()
            .all(|l| l.positive || !leads(l.atom.pred.as_str(), r.head.pred.as_str()))
    })
}

/// `rule`, else `rule` without its negated literal, whichever keeps the
/// program `rules` stratified; `None` when neither does.
fn stratified_variant(rules: &[Rule], rule: Rule) -> Option<Rule> {
    let positive = Rule::with_literals(
        rule.head.clone(),
        rule.body.iter().filter(|l| l.positive).cloned().collect(),
    );
    [rule, positive].into_iter().find(|candidate| {
        let mut program = rules.to_vec();
        program.push(candidate.clone());
        stratified(&program)
    })
}

/// A session over a knowledge base built from scratch: the declared
/// schema, then the rules in arrival order, then the surviving facts.
/// Never materialized — every retrieve runs the full fixpoint.
fn rebuilt_session(
    declared: &[(&str, usize)],
    rules: &[Rule],
    facts: &BTreeSet<String>,
) -> Session {
    let mut kb = KnowledgeBase::new();
    for (name, arity) in declared {
        let attrs: Vec<String> = (0..*arity).map(|i| format!("A{i}")).collect();
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        kb.declare(name, &attrs, None).unwrap();
    }
    for rule in rules {
        kb.add_rule(rule.clone()).unwrap();
    }
    for fact in facts {
        kb.add_fact(&parse_atom(fact).unwrap()).unwrap();
    }
    Session::over(kb)
}

/// The extension of `pred` through the session facade, sorted.
fn pred_rows(session: &Session, pred: &str, arity: usize) -> Vec<String> {
    let vars: Vec<&str> = ["X", "Y", "Z"][..arity].to_vec();
    let request = Request::subject(format!("{pred}({})", vars.join(", ")));
    let response = session.retrieve(request).unwrap();
    let mut rows: Vec<String> = response
        .as_data()
        .unwrap()
        .rows
        .iter()
        .map(|row| format!("{pred}{row}"))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random safe programs, stratified but free to negate, under random
    /// churn scripts: after every mutation the maintained session derives
    /// exactly what a knowledge base rebuilt from the surviving facts
    /// derives.
    #[test]
    fn maintained_session_matches_rebuilt_from_scratch(
        specs in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(0u8..10, 2..3)),
                    1..3,
                ),
                (0u8..10, proptest::collection::vec(0u8..10, 2..3)),
            ),
            1..4,
        ),
        e0 in proptest::collection::vec((0u8..5, 0u8..5), 0..8),
        e1 in proptest::collection::vec(0u8..5, 0..4),
        script in proptest::collection::vec((0u8..8, 0u8..5, 0u8..5), 1..12),
    ) {
        let mut rules: Vec<Rule> = Vec::new();
        for (h, ha, body, (pick, args)) in &specs {
            let rule = build_rule(*h, ha, body, (*pick, args));
            rules.extend(stratified_variant(&rules, rule));
        }
        // The declared schema is fixed up front: every predicate the
        // initial program leaves extensional. A churned rule may later
        // define a declared predicate — maintenance must stay correct
        // even then (the EDB side simply has no facts for it).
        let defined: BTreeSet<&str> = rules.iter().map(|r| r.head.pred.as_str()).collect();
        let declared: Vec<(&str, usize)> = PREDS
            .iter()
            .filter(|(name, _)| !defined.contains(name))
            .copied()
            .collect();

        let mut shadow: BTreeSet<String> = BTreeSet::new();
        for (a, b) in &e0 {
            shadow.insert(format!("e0(c{}, c{})", a % 5, b % 5));
        }
        for a in &e1 {
            shadow.insert(format!("e1(c{})", a % 5));
        }

        let mut live = rebuilt_session(&declared, &rules, &shadow);
        live.batch(|kb| kb.materialize_maintained()).unwrap();

        for (op, a, b) in script {
            match op {
                // Insert (the common case) and retract, through the
                // unified mutation builder.
                0..=5 => {
                    let fact = match op % 3 {
                        0 | 1 => format!("e0(c{a}, c{b})"),
                        _ => format!("e1(c{a})"),
                    };
                    let insert = op < 4;
                    let mutation = if insert {
                        Mutation::new().insert(fact.as_str())
                    } else {
                        Mutation::new().retract(fact.as_str())
                    };
                    let applied = live.apply(mutation).unwrap();
                    if insert {
                        if shadow.insert(fact) {
                            prop_assert_eq!(applied.inserted, 1);
                        } else {
                            prop_assert_eq!(applied.duplicates, 1);
                        }
                    } else if shadow.remove(&fact) {
                        prop_assert_eq!(applied.retracted, 1);
                    } else {
                        prop_assert_eq!(applied.missing, 1);
                    }
                }
                // Rule churn, half of it negating: the maintained store
                // re-derives the affected region in place.
                _ => {
                    let negated = (if op == 7 { 5 + b } else { 0 }, &[b, a][..]);
                    let rule = build_rule(a, &[b, a], &[(b, vec![a, b])], negated);
                    if let Some(rule) = stratified_variant(&rules, rule) {
                        live.batch(|kb| kb.add_rule(rule.clone())).unwrap();
                        rules.push(rule);
                    }
                }
            }

            let rebuilt = rebuilt_session(&declared, &rules, &shadow);
            let idb_preds: BTreeSet<&str> =
                rules.iter().map(|r| r.head.pred.as_str()).collect();
            for (pred, arity) in PREDS.iter().skip(2) {
                if !idb_preds.contains(pred) {
                    continue;
                }
                prop_assert_eq!(
                    pred_rows(&live, pred, *arity),
                    pred_rows(&rebuilt, pred, *arity),
                    "maintained {} drifts from rebuilt over {:?}",
                    pred,
                    rules
                );
            }
        }

        // The maintained store survived the whole script (no silent loss).
        prop_assert!(live.knowledge_base().is_maintained());
    }
}

/// Recursive rules over a graph: transitive closure (linear, and
/// non-linear, whose derivations join two facts of one component), odd-
/// and even-length paths (mutual recursion), and a non-recursive join on
/// top of the closure.
const GRAPH_RULES: &str = "reach(X, Y) :- edge(X, Y).
     reach(X, Y) :- reach(X, Z), edge(Z, Y).
     path(X, Y) :- edge(X, Y).
     path(X, Y) :- path(X, Z), path(Z, Y).
     odd(X, Y) :- edge(X, Y).
     odd(X, Y) :- even(X, Z), edge(Z, Y).
     even(X, Y) :- odd(X, Z), edge(Z, Y).
     tagged(X) :- reach(X, Y), mark(Y).";

/// The derived predicates of [`GRAPH_RULES`] with their arities.
const GRAPH_IDB: [(&str, usize); 5] = [
    ("reach", 2),
    ("path", 2),
    ("odd", 2),
    ("even", 2),
    ("tagged", 1),
];

/// A session over the graph schema, the rules and `facts`, not
/// materialized: every retrieve runs the full fixpoint.
fn graph_session(facts: &BTreeSet<String>) -> Session {
    let mut script = String::from("predicate edge(F, T).\npredicate mark(N).\n");
    for fact in facts {
        script.push_str(&format!("{fact}.\n"));
    }
    script.push_str(GRAPH_RULES);
    let mut session = Session::new();
    session.load(&script).unwrap();
    session
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retract-heavy churn over small cyclic graphs: after every insert or
    /// retract the maintained recursive predicates hold exactly the facts
    /// a knowledge base rebuilt from the surviving facts derives.
    #[test]
    fn recursive_retracts_match_rebuilt(
        nodes in 5u8..9,
        edges in proptest::collection::vec((0u8..8, 0u8..8), 4..14),
        marks in proptest::collection::vec(0u8..8, 1..3),
        script in proptest::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..16),
    ) {
        let mut shadow: BTreeSet<String> = BTreeSet::new();
        for (a, b) in &edges {
            shadow.insert(format!("edge(n{}, n{})", a % nodes, b % nodes));
        }
        for m in &marks {
            shadow.insert(format!("mark(n{})", m % nodes));
        }
        let mut live = graph_session(&shadow);
        live.batch(|kb| kb.materialize_maintained()).unwrap();

        for (op, a, b) in script {
            // Three retracts to every two inserts; a retract names a
            // stored fact when there is one, so most of them delete.
            let (insert, kind) = match op {
                0 => (true, "edge"),
                1 => (true, "mark"),
                2 | 3 => (false, "edge"),
                _ => (false, "mark"),
            };
            let fact = match kind {
                "edge" => format!("edge(n{}, n{})", a % nodes, b % nodes),
                _ => format!("mark(n{})", a % nodes),
            };
            let stored: Vec<&String> = shadow.iter().filter(|f| f.starts_with(kind)).collect();
            let fact = if insert || stored.is_empty() {
                fact
            } else {
                stored[(usize::from(a) * 8 + usize::from(b)) % stored.len()].clone()
            };
            let mutation = if insert {
                Mutation::new().insert(fact.as_str())
            } else {
                Mutation::new().retract(fact.as_str())
            };
            let applied = live.apply(mutation).unwrap();
            prop_assert_eq!(applied.recomputes(), 0);
            if insert {
                shadow.insert(fact);
            } else {
                shadow.remove(&fact);
            }

            let rebuilt = graph_session(&shadow);
            for (pred, arity) in GRAPH_IDB {
                let live_rows: BTreeSet<String> = pred_rows(&live, pred, arity).into_iter().collect();
                let rebuilt_rows: BTreeSet<String> =
                    pred_rows(&rebuilt, pred, arity).into_iter().collect();
                prop_assert_eq!(
                    live_rows,
                    rebuilt_rows,
                    "maintained {} drifts from rebuilt over {:?}",
                    pred,
                    shadow
                );
            }
        }
        prop_assert!(live.knowledge_base().is_maintained());
    }
}

// ---------------------------------------------------------------------
// Deterministic coverage: retraction, describe-cache policy, downgrades.
// ---------------------------------------------------------------------

const UNIVERSITY: &str = "predicate student(Sname, Major, Gpa) key 1.
     predicate enroll(Sname, Ctitle).
     student(ann, math, 3.9).
     student(bob, physics, 3.5).
     student(cara, math, 3.8).
     enroll(ann, databases).
     enroll(bob, databases).
     honor(X) :- student(X, Y, Z), Z > 3.7.";

fn university_session() -> Session {
    let mut session = Session::new();
    session.load(UNIVERSITY).unwrap();
    session
}

/// Retracting one support of a doubly-derivable fact: the backward check
/// finds the surviving derivation, so only the fact that lost its last one
/// goes, and serving stays exact.
#[test]
fn retract_rederives_alternative_derivations() {
    let mut session = Session::new();
    session
        .load(
            "predicate edge(F, T).
             edge(a, b). edge(b, c). edge(a, c).
             reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
    let applied = session
        .apply(Mutation::new().retract("edge(b, c)"))
        .unwrap();
    assert_eq!(applied.retracted, 1);
    assert_eq!(applied.recomputes(), 0, "{:?}", applied.maintenance);
    // reach(b, c) had one derivation and goes. reach(a, c) lost the one
    // through reach(b, c), and the check proves it from edge(a, c), so it
    // stays. Those two facts are all the check examines.
    assert_eq!(applied.maintenance.derived_deleted, 1);
    assert_eq!(applied.maintenance.rederived, 1);
    assert_eq!(applied.maintenance.checked, 2);
    assert_eq!(
        pred_rows(&session, "reach", 2),
        vec!["reach(a, b)", "reach(a, c)"]
    );
    assert!(session.knowledge_base().is_maintained());
}

/// Two facts that derive each other have no derivation once their one
/// outside support goes: mutual support is not a derivation.
#[test]
fn retract_deletes_facts_held_up_only_by_each_other() {
    let mut session = Session::new();
    session
        .load(
            "predicate q(X).
             predicate r(X, Y).
             q(a). r(a, b). r(b, a).
             p(X) :- q(X).
             p(X) :- r(X, Y), p(Y).",
        )
        .unwrap();
    assert_eq!(pred_rows(&session, "p", 1), vec!["p(a)", "p(b)"]);
    let applied = session.apply(Mutation::new().retract("q(a)")).unwrap();
    assert_eq!(applied.recomputes(), 0, "{:?}", applied.maintenance);
    assert_eq!(applied.maintenance.derived_deleted, 2);
    assert_eq!(applied.maintenance.rederived, 0);
    assert_eq!(applied.maintenance.checked, 2);
    assert_eq!(pred_rows(&session, "p", 1), Vec::<String>::new());
    assert!(session.knowledge_base().is_maintained());
}

/// A ring of 128 courses where every course has two prerequisites, the
/// next one and the one after it. Each `i -> i+2` edge bypasses the two
/// edges it spans, so after any one retraction every course still
/// reaches every course, and `prior` keeps all 128 × 128 pairs.
///
/// The retraction of `prereq(c0, c1)` names the 128 `prior(c0, _)` facts
/// with a derivation through it, proves each from a surviving path and
/// deletes none. Delete-and-rederive, on the same retraction, doomed all
/// 16 384 `prior` facts and rederived every one of them.
#[test]
fn retract_on_a_bypassed_ring_checks_only_the_facts_it_touched() {
    let n = 128;
    let mut script = String::from("predicate prereq(Course, Pre).\n");
    for i in 0..n {
        script.push_str(&format!("prereq(c{i}, c{}).\n", (i + 1) % n));
        script.push_str(&format!("prereq(c{i}, c{}).\n", (i + 2) % n));
    }
    script.push_str(
        "prior(X, Y) :- prereq(X, Y).
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    );
    let mut session = Session::new();
    session.load(&script).unwrap();
    let applied = session
        .apply(Mutation::new().retract("prereq(c0, c1)"))
        .unwrap();
    assert_eq!(applied.recomputes(), 0, "{:?}", applied.maintenance);
    assert_eq!(applied.maintenance.derived_deleted, 0);
    assert_eq!(applied.maintenance.rederived, 128);
    assert_eq!(applied.maintenance.checked, 4_224);
    assert_eq!(pred_rows(&session, "prior", 2).len(), n * n);
    assert!(session.knowledge_base().is_maintained());
}

/// Describe answers depend only on the IDB and constraints — fact churn
/// must not touch the cache, so the third describe is still a hit.
#[test]
fn describe_cache_serves_hits_across_fact_churn() {
    let mut session = university_session();
    let first = session.describe(Request::subject("honor(X)")).unwrap();
    session.describe(Request::subject("honor(X)")).unwrap();
    let stats = session.knowledge_base().describe_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let applied = session
        .apply(
            Mutation::new()
                .insert("student(dana, math, 3.95)")
                .retract("student(bob, physics, 3.5)"),
        )
        .unwrap();
    assert_eq!(applied.describe_cache.evicted, 0);

    let third = session.describe(Request::subject("honor(X)")).unwrap();
    let stats = session.knowledge_base().describe_cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 1));
    assert_eq!(
        third.as_knowledge().unwrap().rendered(),
        first.as_knowledge().unwrap().rendered()
    );
}

/// A genuinely new rule for a predicate in the cached answer's closure
/// evicts the entry, and the recomputed answer carries the new theorem.
#[test]
fn describe_cache_evicts_on_new_rule_and_recomputes() {
    let mut session = university_session();
    let before = session.describe(Request::subject("honor(X)")).unwrap();
    assert_eq!(before.as_knowledge().unwrap().rendered().len(), 1);

    let applied = session
        .apply(Mutation::new().rule("honor(X) :- enroll(X, chess)"))
        .unwrap();
    assert_eq!(applied.rules_added, 1);
    assert_eq!(applied.describe_cache.evicted, 1);
    assert_eq!(applied.describe_cache.survived, 0);

    let after = session.describe(Request::subject("honor(X)")).unwrap();
    assert_eq!(after.as_knowledge().unwrap().rendered().len(), 2);
    let stats = session.knowledge_base().describe_cache_stats();
    assert_eq!(stats.hits, 0, "stale entry served after rule change");
}

/// A rule θ-subsumed by an existing same-head rule cannot contribute a
/// theorem (redundancy removal prunes it), so cached answers survive and
/// the next describe is a hit with the identical answer.
#[test]
fn describe_cache_survives_subsumed_rule() {
    let mut session = university_session();
    let before = session.describe(Request::subject("honor(X)")).unwrap();

    let applied = session
        .apply(Mutation::new().rule("honor(A) :- student(A, B, C), C > 3.7"))
        .unwrap();
    assert_eq!(applied.rules_added, 1);
    assert_eq!(applied.describe_cache.evicted, 0);
    assert_eq!(applied.describe_cache.survived, 1);

    let after = session.describe(Request::subject("honor(X)")).unwrap();
    let stats = session.knowledge_base().describe_cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(
        after.as_knowledge().unwrap().rendered(),
        before.as_knowledge().unwrap().rendered()
    );
}

/// Constraints shape knowledge answers, so adding one whose predicates
/// intersect a cached closure evicts the entry.
#[test]
fn describe_cache_evicts_on_constraint() {
    let mut session = university_session();
    session.describe(Request::subject("honor(X)")).unwrap();

    let applied = session
        .apply(
            Mutation::new()
                .declare("suspended", &["Sname"], None)
                .constraint("honor(X), suspended(X)"),
        )
        .unwrap();
    assert_eq!(applied.constraints_added, 1);
    assert_eq!(applied.describe_cache.evicted, 1);

    session.describe(Request::subject("honor(X)")).unwrap();
    let stats = session.knowledge_base().describe_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
}

/// Mutating a negated predicate is non-monotone, so maintenance must
/// fall back to recomputation — and say so: the fallback is recorded on
/// the applied report and surfaces as a downgrade on the next retrieve.
#[test]
fn maintenance_fallback_surfaces_as_downgrade() {
    let mut session = Session::new();
    session
        .load(
            "predicate e(A).
             predicate f(A).
             e(a). e(b). f(b).
             p(X) :- e(X), not f(X).",
        )
        .unwrap();
    let applied = session.apply(Mutation::new().insert("f(a)")).unwrap();
    assert!(applied.recomputes() >= 1, "{:?}", applied.maintenance);
    assert!(!applied.downgrades.is_empty());
    assert!(
        applied.downgrades.iter().any(|d| {
            let rendered = d.to_string();
            rendered.contains("Incremental") && rendered.contains("Recompute")
        }),
        "{:?}",
        applied.downgrades
    );

    // The queued downgrades ride the next answer front, then drain.
    let response = session.retrieve(Request::subject("p(X)")).unwrap();
    assert!(!response.downgrades().is_empty());
    assert_eq!(
        pred_rows(&session, "p", 1),
        Vec::<String>::new(),
        "recompute must reflect the widened negation"
    );
    assert!(session.knowledge_base().is_maintained());
}

/// A rule change re-derives the heads that negate what it changes: a new
/// `q` rule on a maintained session shrinks `p(X) :- e(X), not q(X)`
/// exactly as it does in a knowledge base rebuilt with the rule.
#[test]
fn a_rule_change_under_negation_rederives_its_readers() {
    let script = "predicate e(A).
         predicate g(A).
         e(a). e(b). e(c).
         p(X) :- e(X), not q(X).
         q(X) :- g(X).";
    let mut live = Session::new();
    live.load(script).unwrap();
    live.batch(|kb| kb.materialize_maintained()).unwrap();
    assert_eq!(pred_rows(&live, "p", 1), ["p(a)", "p(b)", "p(c)"]);
    live.apply(Mutation::new().rule("q(X) :- e(X), X = a"))
        .unwrap();
    let mut rebuilt = Session::new();
    rebuilt
        .load(&format!("{script}\nq(X) :- e(X), X = a."))
        .unwrap();
    assert_eq!(pred_rows(&rebuilt, "p", 1), ["p(b)", "p(c)"]);
    assert_eq!(pred_rows(&live, "p", 1), pred_rows(&rebuilt, "p", 1));
    assert!(live.knowledge_base().is_maintained());
}

/// After a burst of fact churn, every retrieve strategy — including the
/// goal-directed ones that bypass the maintained store — answers bound
/// and open queries identically off the mutated knowledge base.
#[test]
fn all_strategies_agree_after_churn() {
    let mut session = Session::new();
    session
        .load(
            "predicate edge(F, T).
             edge(a, b). edge(b, c). edge(c, d).
             reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
    session
        .apply(
            Mutation::new()
                .insert("edge(d, e)")
                .insert("edge(e, a)")
                .retract("edge(b, c)")
                .insert("edge(b, e)"),
        )
        .unwrap();
    for subject in ["reach(a, Y)", "reach(X, Y)"] {
        let mut reference: Option<Vec<String>> = None;
        for strategy in Strategy::ALL {
            let response = session
                .retrieve(Request::subject(subject).strategy(strategy))
                .unwrap();
            let mut rows: Vec<String> = response
                .as_data()
                .unwrap()
                .rows
                .iter()
                .map(ToString::to_string)
                .collect();
            rows.sort();
            rows.dedup();
            match &reference {
                Some(expected) => assert_eq!(expected, &rows, "{strategy:?} on {subject}"),
                None => reference = Some(rows),
            }
        }
    }
}

// ---------------------------------------------------------------------
// O(Δ) epochs: a commit copies what it touches, not what is stored.
// ---------------------------------------------------------------------

/// A university of `students` students, ten facts each (one `student`,
/// four `enroll`, five `complete`), over 100 courses in a `prereq` chain
/// taught by ten professors, with the §2.2 rules.
fn scaled_university(students: usize) -> String {
    let mut out = String::from(qdk::datasets::UNIVERSITY_SCHEMA);
    for c in 0..100 {
        out.push_str(&format!("teach(p{}, c{c}).\n", c % 10));
        out.push_str(&format!("taught(p{}, c{c}, f88, 3.{}).\n", c % 10, c % 10));
        if c > 0 {
            out.push_str(&format!("prereq(c{c}, c{}).\n", c - 1));
        }
    }
    for s in 0..students {
        out.push_str(&format!(
            "student(s{s}, m{}, {}.{:02}).\n",
            s % 8,
            2 + (s * 37) % 2,
            (s * 13) % 100
        ));
        for k in 0..4 {
            out.push_str(&format!("enroll(s{s}, c{}).\n", (s * 7 + k * 13) % 100));
        }
        for k in 0..5 {
            out.push_str(&format!(
                "complete(s{s}, c{}, f8{}, {}.{}).\n",
                (s * 11 + k * 17) % 100,
                k % 6,
                3 + (s + k) % 2,
                (s + k) % 10
            ));
        }
    }
    out.push_str(qdk::datasets::UNIVERSITY_RULES);
    out
}

/// How many EDB storage pieces (tuple segments, tombstone bitmaps, index
/// shards) each of two consecutive two-fact commits leaves unshared
/// between the epoch it publishes and the one before. The first commit
/// materializes the maintained store and is not counted.
fn pieces_per_commit(students: usize) -> Vec<usize> {
    let mut session = Session::new();
    session.load(&scaled_university(students)).unwrap();
    assert_eq!(
        session.knowledge_base().edb().fact_count(),
        10 * students + 299
    );
    let mut reader = session.snapshot().unwrap();
    let commits = [
        // Warm-up: materializes the maintained store.
        Mutation::new()
            .insert("enroll(s0, c99)")
            .retract("enroll(s0, c99)"),
        // The workload's enroll swap: no rule reads `enroll`.
        Mutation::new()
            .insert("enroll(s1, c98)")
            .retract("enroll(s1, c7)"),
        // A `complete` swap: maintenance on `can_ta`, Backward/Forward on
        // retract.
        Mutation::new()
            .insert("complete(s2, c97, f85, 4.0)")
            .retract("complete(s2, c22, f80, 3.2)"),
    ];
    let mut counts = Vec::new();
    for (i, m) in commits.into_iter().enumerate() {
        let applied = session.apply(m).unwrap();
        assert_eq!((applied.inserted, applied.retracted), (1, 1), "commit {i}");
        session.publish().unwrap();
        let before = reader.clone();
        assert!(reader.refresh());
        let now = reader.knowledge_base().edb();
        if i > 0 {
            counts.push(now.unshared_pieces(before.knowledge_base().edb()));
        }
    }
    counts
}

/// Index demand on the maintained store crosses epochs: a column of the
/// maintained `prior` that a snapshot reader's probe indexed at epoch k is
/// already indexed in epoch k + 1's `prior`, before any reader of k + 1
/// touches it. Without that, every epoch's readers would rebuild the
/// index from scratch.
#[test]
fn a_maintained_index_a_reader_built_is_built_in_the_next_epoch() {
    let mut session = Session::new();
    session.load(&scaled_university(50)).unwrap();
    // The first commit materializes the maintained store.
    session
        .apply(Mutation::new().insert("enroll(s0, c99)"))
        .unwrap();
    let mut reader = session.snapshot().unwrap();
    let indexed = |r: &qdk::SnapshotSession| {
        r.knowledge_base()
            .maintained_relation("prior")
            .expect("prior is maintained")
            .indexed_columns()
    };
    assert!(!indexed(&reader).contains(&1), "{:?}", indexed(&reader));
    let answer = reader.retrieve(Request::subject("prior(X, c3)")).unwrap();
    assert_eq!(answer.as_data().unwrap().len(), 96);
    assert!(indexed(&reader).contains(&1), "{:?}", indexed(&reader));
    // The next commit touches no rule's input, so nothing on the writer's
    // side probes `prior`: only the adopted demand can build the column.
    session
        .apply(Mutation::new().insert("enroll(s1, c98)"))
        .unwrap();
    session.publish().unwrap();
    assert!(reader.refresh());
    assert!(indexed(&reader).contains(&1), "{:?}", indexed(&reader));
}

/// A two-fact `Session::apply` + `publish` copies a bounded number of
/// storage pieces — the same bound at 10⁴ and 10⁵ facts. Pieces, not
/// time, so the check is deterministic: a commit that copied whole
/// relations (or whole indexes) would leave hundreds unshared at 10⁵.
#[test]
fn a_commit_copies_the_same_few_pieces_at_1e4_and_1e5_facts() {
    /// Per commit: the touched segment or tombstone bitmap, presence
    /// shard and one shard per indexed column, for each of the two facts.
    const BOUND: usize = 16;
    let small = pieces_per_commit(1_000);
    let large = pieces_per_commit(10_000);
    for (facts, counts) in [(10_000, &small), (100_000, &large)] {
        for &n in counts.iter() {
            assert!(
                n > 0 && n <= BOUND,
                "{n} pieces unshared at {facts} facts: {counts:?}"
            );
        }
    }
}
