//! `describe` at rule-base scale: the whole-IDB work (dependency graph,
//! §5.2 transformation, rule compilation) is done once per rules
//! generation, not once per statement.
//!
//! The `describe_prep_miss` / `describe_prep_hit` counters say which
//! describe-family statements prepared the rule base and which reused the
//! preparation. They are exact counts, so the tests below pin them on a
//! 600-rule layered rule base built right here.
//!
//! Describe *answers* are shared the same way: one describe cache per
//! rules generation, held by the writer and by every epoch published
//! while the rules stay unchanged, so a describe a reader runs on one
//! epoch is a hit on the next.

mod policy;

use policy::{nth_describe, policy_session, LEVELS, WIDTH};
use qdk::{Mutation, Request, Session, SnapshotSession};
use std::fmt::Write;

/// `(describe_prep_miss, describe_prep_hit)` so far.
fn prep_counts(s: &Session) -> (u64, u64) {
    let snap = s.metrics_snapshot().unwrap();
    (
        snap.counter("describe_prep_miss").unwrap_or(0),
        snap.counter("describe_prep_hit").unwrap_or(0),
    )
}

#[test]
fn one_preparation_serves_every_describe_family_statement() {
    let mut s = policy_session();
    for n in 0..50 {
        let answer = s.run(&nth_describe(n)).unwrap();
        assert!(!answer.as_knowledge().unwrap().theorems.is_empty());
    }
    assert_eq!(prep_counts(&s), (1, 49));

    // The §6 statements run over the same preparation — `describe *`
    // asks all 300 concepts of it, once.
    let wildcard = s.run("describe * where attr3(X, V) and V > 5.").unwrap();
    assert!(wildcard.to_string().contains("pol"), "{wildcard}");
    s.run("describe pol0_4(X) where necessary attr3(X, V) and V > 5.")
        .unwrap();
    s.run("describe pol0_4(X) where attr3(X, V) or attr4(X, V).")
        .unwrap();
    assert_eq!(prep_counts(&s), (1, 52));
}

#[test]
fn rule_and_constraint_changes_prepare_again() {
    let mut s = policy_session();
    s.run(&nth_describe(0)).unwrap();
    assert_eq!(prep_counts(&s), (1, 0));

    // Fact churn leaves the preparation alone.
    s.run("attr0(widget, 7).").unwrap();
    s.run(&nth_describe(1)).unwrap();
    assert_eq!(prep_counts(&s), (1, 1));

    // A new rule is a new rules generation: one more preparation, and
    // the rule's theorem is in the answer.
    s.run("pol0_0(X) :- vip(X).").unwrap();
    let answer = s.run("describe pol0_0(X).").unwrap();
    assert!(
        answer
            .as_knowledge()
            .unwrap()
            .contains_rendered("pol0_0(X) ← vip(X)"),
        "{answer}"
    );
    assert_eq!(prep_counts(&s), (2, 1));
    s.run(&nth_describe(2)).unwrap();
    assert_eq!(prep_counts(&s), (2, 2));

    // So is a new constraint.
    s.run(":- vip(X), attr0(X, V).").unwrap();
    s.run(&nth_describe(3)).unwrap();
    assert_eq!(prep_counts(&s), (3, 2));
}

#[test]
fn snapshot_readers_share_preparations_across_epochs() {
    // The writer prepared before publishing: the reader's first describe
    // finds the preparation in its snapshot.
    let mut s = policy_session();
    s.run(&nth_describe(0)).unwrap();
    let reader = s.snapshot().unwrap();
    let request = |subject: &str| Request::subject(subject).where_clause("attr5(X, V), V > 2");
    reader.describe(request("pol1_7(X)")).unwrap();
    assert_eq!(prep_counts(&s), (1, 1));

    // The other way round: only a reader ever described. Its preparation
    // belongs to the epoch it pinned, and the next publish — rules
    // unchanged — carries it forward to the writer and to later readers.
    let mut s = policy_session();
    let mut reader = s.snapshot().unwrap();
    reader.describe(request("pol1_7(X)")).unwrap();
    assert_eq!(prep_counts(&s), (1, 0));
    s.run("attr0(widget, 7).").unwrap();
    s.publish().unwrap();
    assert!(reader.refresh());
    reader.describe(request("pol2_9(X)")).unwrap();
    s.run(&nth_describe(4)).unwrap();
    assert_eq!(prep_counts(&s), (1, 2));

    // A rule change ends the sharing: the new epoch prepares afresh.
    s.run("pol0_0(X) :- vip(X).").unwrap();
    s.publish().unwrap();
    assert!(reader.refresh());
    reader.describe(request("pol0_0(X)")).unwrap();
    assert_eq!(prep_counts(&s), (2, 2));
}

/// `(hits, misses)` of the describe cache `reader`'s epoch holds.
fn cache_counts(reader: &SnapshotSession) -> (u64, u64) {
    let stats = reader.knowledge_base().describe_cache_stats();
    (stats.hits, stats.misses)
}

/// Runs `ask` on `reader` and returns the rendered answer with the
/// `(hits, misses)` it added to the reader's describe cache.
fn describe_on(reader: &SnapshotSession, ask: Request) -> (String, (u64, u64)) {
    let (h0, m0) = cache_counts(reader);
    let answer = reader.describe(ask).unwrap().to_string();
    let (h1, m1) = cache_counts(reader);
    (answer, (h1 - h0, m1 - m0))
}

#[test]
fn describe_cache_is_shared_by_every_epoch_of_one_rules_generation() {
    let mut s = policy_session();
    let mut reader = s.snapshot().unwrap();
    let ask = || Request::subject("pol1_7(X)");
    let (first, moved) = describe_on(&reader, ask());
    assert_eq!(moved, (0, 1), "the first describe computes");

    // A fact commit publishes a new epoch of the same rules generation:
    // the answer a reader of the old epoch computed is a hit there.
    s.apply(Mutation::new().insert("attr0(widget, 7)")).unwrap();
    s.publish().unwrap();
    let pinned = reader.clone();
    assert!(reader.refresh());
    assert_eq!(describe_on(&reader, ask()), (first.clone(), (1, 0)));

    // A rule commit that reaches the subject is a new generation: a miss
    // there, with the new theorem in the answer.
    s.apply(Mutation::new().rule("pol1_7(X) :- vip(X)"))
        .unwrap();
    s.publish().unwrap();
    assert!(reader.refresh());
    let (changed, moved) = describe_on(&reader, ask());
    assert_eq!(moved, (0, 1));
    assert!(changed.contains("pol1_7(X) ← vip(X)"), "{changed}");
    assert!(!first.contains("vip(X)"), "{first}");

    // A reader pinned to an epoch before the rule change still hits, and
    // still gets the answer its rules give.
    assert_eq!(describe_on(&pinned, ask()), (first, (1, 0)));
}

/// One rules generation is one object, shared by the writer and by every
/// epoch published while the rules stay unchanged: what a snapshot reader
/// builds for the rules — the describe preparation, a describe answer —
/// the writer finds built, with no publish in between.
#[test]
fn one_generation_a_reader_builds_for_is_built_for_the_writer() {
    let mut s = policy_session();
    let reader = s.snapshot().unwrap();
    let ask = || Request::subject("pol1_7(X)").where_clause("attr5(X, V), V > 2");
    let on_reader = reader.describe(ask()).unwrap().to_string();
    assert_eq!(prep_counts(&s), (1, 0));
    assert_eq!(cache_counts(&reader), (0, 1));

    // The reader's answer is a hit for the writer...
    assert_eq!(s.describe(ask()).unwrap().to_string(), on_reader);
    assert_eq!(prep_counts(&s), (1, 0));
    let writer = s.knowledge_base().describe_cache_stats();
    assert_eq!((writer.hits, writer.misses), (1, 1));
    // ...and a describe the reader never asked runs over the reader's
    // preparation.
    s.run(&nth_describe(4)).unwrap();
    assert_eq!(prep_counts(&s), (1, 1));
    assert_eq!(cache_counts(&reader), (1, 2));
}

/// A batch that adds a rule and then fails rolls back to the generation
/// it started from, with everything built for it: the plan, the
/// preparation and the describe cache's entries.
#[test]
fn one_generation_survives_a_failed_batch_that_added_a_rule() {
    let mut s = policy_session();
    let retrieve = |s: &Session, counter: &str| {
        let response = s
            .retrieve(Request::subject("pol0_3(X)").with_trace(true))
            .unwrap();
        response.trace().unwrap().counter(counter)
    };
    let ask = || Request::subject("pol1_7(X)");
    assert_eq!(retrieve(&s, "plan_cache_miss"), Some(1));
    let answer = s.describe(ask()).unwrap().to_string();
    let generation = |s: &Session| s.metrics_snapshot().unwrap().gauge("rules_generation");
    let before = generation(&s);
    // The gauge counts the rule and constraint changes behind the
    // generation: the 600 rules loaded.
    assert_eq!(before, Some(600));

    let failed = s.batch(|kb| {
        kb.run("pol1_7(X) :- vip(X).")?;
        kb.run("this is not a statement.")
    });
    assert!(failed.is_err());
    assert_eq!(generation(&s), before);
    assert_eq!(retrieve(&s, "plan_cache_hit"), Some(1));
    let stats = s.knowledge_base().describe_cache_stats();
    assert_eq!(s.describe(ask()).unwrap().to_string(), answer);
    let after = s.knowledge_base().describe_cache_stats();
    assert_eq!(
        (after.hits - stats.hits, after.misses - stats.misses),
        (1, 0)
    );
    assert_eq!(prep_counts(&s), (1, 0));
}

/// The rules a describe of `pred` could apply: the subject's own and,
/// transitively, those of every concept their bodies mention.
fn cone(s: &Session, pred: &str) -> usize {
    let idb = s.knowledge_base().idb();
    let mut concepts = vec![pred.to_string()];
    let mut rules = 0;
    let mut next = 0;
    while let Some(concept) = concepts.get(next).cloned() {
        next += 1;
        for rule in idb.rules_for(&concept) {
            rules += 1;
            for lit in &rule.body {
                let p = lit.atom.pred.to_string();
                if idb.defines(&p) && !concepts.contains(&p) {
                    concepts.push(p);
                }
            }
        }
    }
    rules
}

/// A level-0 describe applies only the rules that can reach its
/// hypothesis, so it expands fewer trees than its cone has rules (42
/// here). Before cone pruning, these 30 describes expanded 1 960 trees,
/// 44–100 each, because every subtree was built before the §4 cut threw
/// it away; pruned, they expand 323, 6–22 each.
#[test]
fn a_describe_expands_no_more_trees_than_its_cone_has_rules() {
    let s = policy_session();
    for n in (0..90).filter(|n| n % LEVELS == 0) {
        let text = nth_describe(n);
        let (subject, hypothesis) = text
            .strip_prefix("describe ")
            .and_then(|t| t.strip_suffix('.'))
            .and_then(|t| t.split_once(" where "))
            .unwrap();
        let request = Request::subject(subject)
            .where_clause(hypothesis.replace(" and ", ", "))
            .with_trace(true);
        let response = s.describe(request).unwrap();
        let trees = response.trace().unwrap().counter("trees_expanded").unwrap();
        let cone = cone(&s, subject.split('(').next().unwrap());
        assert!(
            trees <= cone as u64,
            "{text}: {trees} trees, cone of {cone} rules"
        );
    }
}

/// The statements of the `explain` golden file: paper Examples 3, 4 and 6
/// on the university rules, Example 8 on its own program, and ten
/// level-0 describes of the policy rule base (the deepest trees it has).
fn explain_transcript() -> String {
    let mut out = String::new();
    let mut record = |s: &mut Session, stmt: &str| {
        let answer = s.run(stmt).unwrap();
        write!(out, "== {stmt}\n{answer}").unwrap();
    };
    let mut university = Session::over(qdk::datasets::university_extended());
    for stmt in [
        "explain can_ta(X, databases) where student(X, math, V) and V > 3.7.",
        "explain honor(X).",
        "explain prior(X, Y) where prior(databases, Y).",
    ] {
        record(&mut university, stmt);
    }
    let mut example8 = Session::new();
    example8
        .load(
            "p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).",
        )
        .unwrap();
    record(&mut example8, "explain p(X, Y) where r(a, Y).");
    let mut policy = policy_session();
    for n in (0..30).filter(|n| n % LEVELS == 0) {
        let stmt = nth_describe(n).replacen("describe ", "explain ", 1);
        record(&mut policy, &stmt);
    }
    out
}

/// `explain` renders each theorem's derivation tree. The text is pinned
/// byte for byte in `tests/data/explain.golden`: how the enumerator
/// records a derivation is free to change, what `explain` prints is not.
#[test]
fn explain_text_matches_the_golden_file() {
    let golden = include_str!("data/explain.golden");
    let actual = explain_transcript();
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "explain text differs from tests/data/explain.golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

/// The enumerator's work counters are exact: a fixed list of describes
/// over the policy rule base expands, identifies and cuts the same number
/// of trees whatever the enumerator's internal representation. So does
/// the governor, whose spend a truncated answer reports.
#[test]
fn enumerator_counters_and_exhausted_text_are_pinned() {
    let s = policy_session();
    let mut totals = [0u64; 3];
    for n in 0..150 {
        let response = s
            .query(Request::statement(nth_describe(n)).with_trace(true))
            .unwrap();
        let trace = response.trace().unwrap();
        for (total, name) in totals
            .iter_mut()
            .zip(["trees_expanded", "leaves_identified", "cuts"])
        {
            *total += trace.counter(name).unwrap_or(0);
        }
    }
    assert_eq!(
        totals,
        [614, 315, 614],
        "trees_expanded, leaves_identified, cuts"
    );

    let budget = qdk::ResourceLimits::default().with_work_budget(120);
    let truncated = s
        .query(Request::statement(nth_describe(3)).limits(budget))
        .unwrap()
        .to_string();
    assert_eq!(
        truncated,
        "pol0_51(X) ← pol1_57(X) ∧ attr12(X, Y) ∧ attr34(X, Z) ∧ (Z > 2) ∧ pol2_61(X) ∧ attr12(X, U) ∧ (U > 4) ∧ attr19(X, V) ∧ (V > 3)\n\
         pol0_51(X) ← pol2_13(X) ∧ attr34(X, Y) ∧ attr25(X, Z) ∧ (Z > 1) ∧ attr35(X, U) ∧ (U > 3) ∧ pol1_88(X) ∧ attr19(X, V) ∧ (V > 3)\n\
         pol0_51(X) ← pol2_13(X) ∧ attr34(X, Y) ∧ attr25(X, Z) ∧ (Z > 1) ∧ attr35(X, U) ∧ (U > 3) ∧ attr12(X, V) ∧ attr34(X, W) ∧ (W > 2) ∧ pol2_61(X) ∧ attr12(X, X1) ∧ (X1 > 4) ∧ attr19(X, Y1) ∧ (Y1 > 3)\n\
         -- truncated: work budget exhausted: 121 spent of 120 allowed\n"
    );
}

/// The describe cache holds 256 answers. Which one a full cache evicts
/// depends on the statements asked and nothing else, so two sessions that
/// ask the same statements count the same hits, misses and evictions.
#[test]
fn describe_cache_eviction_depends_only_on_the_statements() {
    let run = || {
        let mut s = policy_session();
        // Quadratic residues: repeats at many distances, some past the
        // cache's reach.
        for k in 0..600 {
            s.run(&nth_describe(k * k % 613)).unwrap();
        }
        s.knowledge_base().describe_cache_stats()
    };
    let first = run();
    assert!(first.hits > 0 && first.misses > 256, "{first:?}");
    assert_eq!(run(), first);
}

/// The statements of the `compare` golden file: level-0 concepts of the
/// policy rule base compared with each other and with level-1 concepts,
/// one concept with itself under another variable, the paper's honor
/// and Dean's-List students, and two `describe *` answers (the largest
/// renders the policy rule base has).
fn compare_transcript() -> String {
    let mut out = String::new();
    let mut record = |s: &mut Session, stmt: &str| {
        let answer = s.run(stmt).unwrap();
        write!(out, "== {stmt}\n{answer}").unwrap();
    };
    let mut policy = policy_session();
    for stmt in [
        "compare (describe pol0_5(X)) with (describe pol0_5(A)).",
        "compare (describe pol0_84(X)) with (describe pol0_84(X)).",
        "compare (describe pol0_3(X)) with (describe pol0_41(X)).",
        "compare (describe pol0_17(X)) with (describe pol0_60(X)).",
        "compare (describe pol0_92(X)) with (describe pol0_8(X)).",
        "compare (describe pol0_29(X)) with (describe pol0_70(X)).",
        "compare (describe pol0_12(X)) with (describe pol1_19(X)).",
        "compare (describe pol0_55(X)) with (describe pol1_55(X)).",
        "compare (describe pol1_33(X)) with (describe pol0_2(X)).",
        "describe * where attr3(X, V) and V > 5.",
        "describe * where attr17(X, V) and V > 2.",
    ] {
        record(&mut policy, stmt);
    }
    let mut university = Session::over(qdk::datasets::university_extended());
    record(
        &mut university,
        "compare (describe honor(X)) with (describe deans_list(X)).",
    );
    out
}

/// `compare` and `describe *` answers are pinned byte for byte in
/// `tests/data/compare.golden`: how `compare` finds the shared concept
/// and how a theorem is written are free to change, the text is not.
#[test]
fn compare_and_wildcard_text_match_the_golden_file() {
    let golden = include_str!("data/compare.golden");
    let actual = compare_transcript();
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "compare text differs from tests/data/compare.golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

/// ROADMAP item 6 (v), the `compare` half: a concept compared with
/// itself is equivalent to it, and neither side requires anything the
/// other does not. Every 10th concept of the policy rule base, all three
/// levels.
#[test]
fn compare_of_a_concept_with_itself_is_equivalent() {
    let mut s = policy_session();
    let concepts: Vec<String> = (0..LEVELS)
        .flat_map(|level| (0..WIDTH).map(move |i| format!("pol{level}_{i}(X)")))
        .collect();
    for concept in concepts.iter().step_by(10) {
        let stmt = format!("compare (describe {concept}) with (describe {concept}).");
        let answer = s.run(&stmt).unwrap();
        let compared = answer.as_comparison().unwrap();
        assert_eq!(
            compared.relationship,
            qdk::core::compare::Relationship::Equivalent,
            "{stmt}\n{answer}"
        );
        assert!(
            compared.only_first.is_empty() && compared.only_second.is_empty(),
            "{stmt}\n{answer}"
        );
    }
}
