//! Differential testing of incremental view maintenance under churn.
//!
//! The maintained store answers bottom-up retrieves from derived state
//! that is patched in place on every mutation — semi-naive delta
//! propagation on insert, delete-and-rederive on retract, scoped
//! re-derivation on rule changes. These tests pin that state against the
//! only authority there is: a knowledge base rebuilt from scratch after
//! every mutation, evaluated by the full fixpoint.
//!
//! * random interleavings of insert / retract / rule-add / query over
//!   random safe programs (the `differential.rs` generator) must leave
//!   the maintained session observationally identical to the rebuilt
//!   one;
//! * describe answers depend only on the IDB and constraints, so the
//!   describe cache must keep serving hits across fact churn, evict on
//!   rule and constraint changes, and survive rules that existing rules
//!   θ-subsume;
//! * maintenance fallbacks must surface as recorded [`qdk::Downgrade`]s
//!   on the applied report and on the next retrieve — never silently.

use proptest::prelude::*;
use qdk::logic::parser::parse_atom;
use qdk::logic::{Atom, Rule, Term};
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
/// variable arguments are drawn only from variables the body binds.
fn build_rule(head_pred: u8, head_args: &[u8], body: &[(u8, Vec<u8>)]) -> Rule {
    let vars = ["V0", "V1", "V2", "V3", "V4"];
    let mut atoms = Vec::new();
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
        atoms.push(Atom::new(name, args));
    }
    let (head_name, head_arity) = PREDS[2 + (head_pred as usize % 3)];
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
    Rule::new(Atom::new(head_name, head_args), atoms)
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random safe programs under random churn scripts: after every
    /// mutation the maintained session derives exactly what a knowledge
    /// base rebuilt from the surviving facts derives.
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
            ),
            1..4,
        ),
        e0 in proptest::collection::vec((0u8..5, 0u8..5), 0..8),
        e1 in proptest::collection::vec(0u8..5, 0..4),
        script in proptest::collection::vec((0u8..8, 0u8..5, 0u8..5), 1..12),
    ) {
        let mut rules: Vec<Rule> = specs
            .iter()
            .map(|(h, ha, body)| build_rule(*h, ha, body))
            .collect();
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
                // Rule churn: the maintained store re-derives the
                // affected region in place.
                _ => {
                    let rule = build_rule(a, &[b, a], &[(b, vec![a, b])]);
                    live.batch(|kb| kb.add_rule(rule.clone())).unwrap();
                    rules.push(rule);
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

// ---------------------------------------------------------------------
// Deterministic coverage: DRed, describe-cache policy, downgrades.
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

/// Retracting one support of a doubly-derivable fact exercises the full
/// delete-and-rederive cycle: the overestimate dooms it, the rederive
/// sweep puts it back, and serving stays exact.
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
    // reach(b, c) dies with its only support; reach(a, c) is doomed by
    // the overestimate but rederived from the direct edge.
    assert!(applied.maintenance.derived_deleted >= 1);
    assert!(applied.maintenance.rederived >= 1);
    assert_eq!(
        pred_rows(&session, "reach", 2),
        vec!["reach(a, b)", "reach(a, c)"]
    );
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
        // A `complete` swap: maintenance on `can_ta`, DRed on retract.
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

/// A two-fact `Session::apply` + `publish` copies a bounded number of
/// storage pieces — the same bound at 10⁴ and 10⁵ facts. Pieces, not
/// time, so the check is deterministic: a commit that copied whole
/// relations (or whole indexes) would leave hundreds unshared at 10⁵.
#[test]
fn a_commit_copies_the_same_few_pieces_at_1e4_and_1e5_facts() {
    /// Per commit: the touched segment or tombstone bitmap, presence
    /// shard and one shard per column, for each of the two facts.
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
