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

use qdk::{Mutation, Request, Session, SnapshotSession};
use std::fmt::Write;

const LEVELS: usize = 3;
const WIDTH: usize = 100;
const ALTS: usize = 2;
const ATTRS: usize = 40;

/// A layered, non-recursive policy rule base: `LEVELS × WIDTH` concepts
/// `pol<level>_<i>(X)`, each with `ALTS` alternative definitions over two
/// concepts of the next level down (attribute atoms at the bottom level)
/// plus one attribute comparison. 3 × 100 × 2 = 600 rules.
fn policy_script() -> String {
    let mut out = String::new();
    for a in 0..ATTRS {
        writeln!(out, "predicate attr{a}(Id, Val).").unwrap();
    }
    for level in 0..LEVELS {
        for i in 0..WIDTH {
            for alt in 0..ALTS {
                // Any fixed spread of sub-concepts will do.
                let pick = |k: usize, modulus: usize| (7 * i + 13 * alt + 31 * k + level) % modulus;
                write!(out, "pol{level}_{i}(X) :- ").unwrap();
                for k in 0..2 {
                    if level + 1 < LEVELS {
                        write!(out, "pol{}_{}(X), ", level + 1, pick(k, WIDTH)).unwrap();
                    } else {
                        write!(out, "attr{}(X, U{k}), ", pick(k, ATTRS)).unwrap();
                    }
                }
                writeln!(out, "attr{}(X, V), V > {}.", pick(2, ATTRS), 1 + pick(3, 8)).unwrap();
            }
        }
    }
    out
}

fn policy_session() -> Session {
    let mut s = Session::new();
    s.load(&policy_script()).unwrap();
    assert_eq!(s.knowledge_base().idb().len(), LEVELS * WIDTH * ALTS);
    s.enable_metrics();
    s
}

/// `(describe_prep_miss, describe_prep_hit)` so far.
fn prep_counts(s: &Session) -> (u64, u64) {
    let snap = s.metrics_snapshot().unwrap();
    (
        snap.counter("describe_prep_miss").unwrap_or(0),
        snap.counter("describe_prep_hit").unwrap_or(0),
    )
}

/// The `n`-th of a family of distinct describes spread over all levels.
fn nth_describe(n: usize) -> String {
    format!(
        "describe pol{}_{}(X) where attr{}(X, V) and V > {}.",
        n % LEVELS,
        (17 * n) % WIDTH,
        n % ATTRS,
        1 + n % 8
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
