//! Kill-and-reopen durability: a process that drops its session without
//! any shutdown protocol must get the same knowledge base back on
//! reopen — byte-identical answers (including completeness tags) from
//! both recovery paths (pure WAL replay and checkpoint + tail).

use qdk::durability::DurabilityOptions;
use qdk::storage::Value;
use qdk::{
    datasets, CollectSink, DescribeOptions, Event, FsyncPolicy, KnowledgeBase, Mode, Mutation,
    ObsSink, Request, Session,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qdk-durability-{tag}-{}-{n}", std::process::id()))
}

/// Fast options for tests: no fsync, no automatic checkpoints.
fn wal_only() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every_ops: None,
    }
}

/// The paper's worked examples (3–8), asked through the session facade.
const PAPER_QUERIES: &[(&str, &str, bool)] = &[
    // (subject, where-clause, is_describe)
    ("can_ta(X, databases)", "student(X, math, V), V > 3.7", true),
    ("honor(X)", "", true),
    ("honor(X)", "student(X, math, Z)", true),
    ("can_ta(X, Y)", "honor(X), teach(susan, Y)", true),
    ("prior(X, databases)", "", true),
    ("honor(X)", "enroll(X, databases)", false),
    ("prior(X, Y)", "", false),
];

/// Renders every paper query's full answer (rows / theorems, tags and
/// all).
fn answers(session: &Session) -> Vec<String> {
    PAPER_QUERIES
        .iter()
        .map(|&(subject, hyp, is_describe)| {
            let mut req = Request::subject(subject);
            if !hyp.is_empty() {
                req = req.where_clause(hyp);
            }
            let resp = if is_describe {
                session.describe(req).unwrap()
            } else {
                session.retrieve(req).unwrap()
            };
            resp.to_string()
        })
        .collect()
}

#[test]
fn kill_and_reopen_replays_pure_wal() {
    let dir = temp_dir("pure-wal");
    let script = datasets::university_extended().dump();

    let (reference, dump_before) = {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.load(&script).unwrap();
        assert!(s.knowledge_base().is_durable());
        (answers(&s), s.knowledge_base().dump())
        // Dropped here mid-stream: no checkpoint, no shutdown protocol.
    };

    let s = Session::open_with(&dir, wal_only()).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.checkpointed, 0, "no checkpoint was ever taken");
    assert!(report.replayed > 0, "the WAL tail must replay");
    assert_eq!(report.discarded_tail_bytes, 0, "clean shutdown of the OS");
    // The dump is byte-identical: schemas, keys, per-relation fact order,
    // rules and constraints all recovered exactly.
    assert_eq!(s.knowledge_base().dump(), dump_before);
    // Paper examples answer byte-identically.
    assert_eq!(answers(&s), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_reopen_replays_checkpoint_plus_tail() {
    let dir = temp_dir("ckp-tail");
    let script = datasets::university_extended().dump();

    let (reference, dump_before) = {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.load(&script).unwrap();
        let (lsn, bytes) = s.checkpoint().unwrap().expect("durable session");
        assert!(lsn.0 > 0 && bytes > 0);
        // Mutations after the checkpoint live only in the WAL tail.
        s.run("student(zoe, physics, 3.95).").unwrap();
        s.run("retract enroll(cara, databases).").unwrap();
        s.run("star(X) :- student(X, M, G), G > 3.9.").unwrap();
        s.run(":- star(X), unmarried(X).").unwrap();
        (answers(&s), s.knowledge_base().dump())
    };

    let s = Session::open_with(&dir, wal_only()).unwrap();
    let report = s.recovery_report().unwrap();
    assert!(report.checkpointed > 0, "snapshot restored");
    assert_eq!(report.replayed, 4, "the four post-checkpoint mutations");
    assert_eq!(s.knowledge_base().dump(), dump_before);
    assert_eq!(answers(&s), reference);
    // The tail's own mutations answer correctly too.
    let resp = s.retrieve(Request::subject("star(X)")).unwrap();
    assert!(resp.as_data().unwrap().contains_row(&["zoe"]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chain_64_recursive_reachability_survives_reopen() {
    let dir = temp_dir("chain64");
    let reference = {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.run("predicate edge(F, T).").unwrap();
        for i in 0..64 {
            s.run(&format!("edge(n{i}, n{}).", i + 1)).unwrap();
        }
        s.load(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
        let resp = s.retrieve(Request::subject("reach(n0, Y)")).unwrap();
        assert_eq!(resp.as_data().unwrap().len(), 64);
        resp.to_string()
    };

    let s = Session::open_with(&dir, wal_only()).unwrap();
    assert_eq!(s.recovery_report().unwrap().replayed, 67);
    let resp = s.retrieve(Request::subject("reach(n0, Y)")).unwrap();
    assert_eq!(resp.to_string(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_validation_leaves_kb_wal_and_plan_cache_unchanged() {
    let dir = temp_dir("atomicity");
    let mut s = Session::open_with(&dir, wal_only()).unwrap();
    s.load(
        "predicate student(Sname, Major, Gpa) key 1.\n\
         student(ann, math, 3.9).\n\
         honor(X) :- student(X, Y, Z), Z > 3.7.",
    )
    .unwrap();
    s.sync().unwrap();
    let kb_dump = s.knowledge_base().dump();
    let metrics = s.knowledge_base().durability_metrics().unwrap();
    let wal_bytes = std::fs::read(dir.join("wal.log")).unwrap();

    // Warm the plan cache so we can observe it surviving the failures.
    let warm = s
        .retrieve(Request::subject("honor(X)").with_trace(true))
        .unwrap();
    assert_eq!(warm.trace().unwrap().counter("plan_cache_miss"), Some(1));

    // Reserved predicate name.
    assert!(s.batch(|kb| kb.declare("<", &["A", "B"], None)).is_err());
    // Unknown predicate, arity mismatch, non-ground fact.
    let add_fact = |s: &mut Session, fact: &str| {
        let fact = qdk::logic::parser::parse_atom(fact).unwrap();
        s.batch(|kb| kb.add_fact(&fact))
    };
    assert!(add_fact(&mut s, "nosuch(1)").is_err());
    assert!(s.run("student(ann, math).").is_err());
    assert!(add_fact(&mut s, "student(X, math, 3.0)").is_err());
    // Rule with a built-in head.
    let bad_rule = qdk::logic::Rule::new(
        qdk::logic::Atom::new(
            "=",
            vec![qdk::logic::Term::var("A"), qdk::logic::Term::var("B")],
        ),
        vec![],
    );
    assert!(s.batch(|kb| kb.add_rule(bad_rule)).is_err());
    // Retract of an unknown predicate.
    assert!(s.run("retract nosuch(1).").is_err());

    // Nothing changed: not the KB, not the WAL, not the metrics.
    assert_eq!(s.knowledge_base().dump(), kb_dump);
    assert_eq!(s.knowledge_base().durability_metrics().unwrap(), metrics);
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), wal_bytes);
    // And the plan cache was not invalidated by any failed mutation.
    let again = s
        .retrieve(Request::subject("honor(X)").with_trace(true))
        .unwrap();
    assert_eq!(again.trace().unwrap().counter("plan_cache_hit"), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_rebuilds_indexes_and_meters_through_the_same_paths() {
    let dir = temp_dir("replay-paths");
    let script = "predicate edge(F, T).\n\
         predicate label(N, Kind, Weight).\n\
         linked(X, Y) :- edge(X, Y), label(X, hub, W), label(Y, hub, V).\n";
    let mut setup: Vec<String> = Vec::new();
    for i in 0..40 {
        setup.push(format!("edge(n{i}, n{}).", (i * 7) % 40));
        setup.push(format!(
            "label(n{i}, {}, {}).",
            if i % 3 == 0 { "hub" } else { "leaf" },
            i
        ));
    }
    // Retractions interleaved into the log: replay must drive the same
    // Relation::remove path (indexes and meters updated, not rebuilt via
    // some bypass constructor).
    for i in (0..40).step_by(5) {
        setup.push(format!("retract edge(n{i}, n{}).", (i * 7) % 40));
    }

    // Reference: the same history applied purely in memory.
    let mut reference = KnowledgeBase::new();
    reference.load(script).unwrap();
    for stmt in &setup {
        reference.run(stmt).unwrap();
    }

    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.load(script).unwrap();
        for stmt in &setup {
            s.run(stmt).unwrap();
        }
    }
    let mut replayed = Session::open_with(&dir, wal_only()).unwrap();

    // Same state, same per-relation insertion order (fact ids included).
    assert_eq!(replayed.knowledge_base().dump(), reference.dump());

    // Run the identical query on both; the access meters must agree —
    // identical index probes and full scans mean replay rebuilt the same
    // access structures live mutation built.
    let q = "retrieve linked(X, Y).";
    let a = reference.run(q).unwrap();
    let b = replayed.run(q).unwrap();
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(
        reference.edb().access_stats(),
        replayed.knowledge_base().edb().access_stats()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_final_record_is_healed_on_open() {
    let dir = temp_dir("torn-open");
    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.load(
            "predicate edge(F, T).\n\
             edge(a, b). edge(b, c). edge(c, d).",
        )
        .unwrap();
        s.sync().unwrap();
    }
    // Tear the last record, as a crash mid-append would.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let s = Session::open_with(&dir, wal_only()).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.replayed, 3, "declare + first two facts");
    assert!(report.discarded_tail_bytes > 0);
    let resp = s.retrieve(Request::subject("edge(X, Y)")).unwrap();
    let d = resp.as_data().unwrap();
    assert_eq!(d.len(), 2);
    assert!(d.contains_row(&["a", "b"]) && d.contains_row(&["b", "c"]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn automatic_checkpoints_fire_on_the_configured_cadence() {
    let dir = temp_dir("auto-ckp");
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every_ops: Some(10),
    };
    {
        let mut s = Session::open_with(&dir, opts).unwrap();
        s.run("predicate tick(N).").unwrap();
        for i in 0..25 {
            s.run(&format!("tick({i}).")).unwrap();
        }
        let m = s.knowledge_base().durability_metrics().unwrap();
        assert_eq!(m.checkpoints, 2, "26 ops at a 10-op cadence");
        assert!(m.last_checkpoint_bytes > 0);
    }
    let s = Session::open_with(&dir, opts).unwrap();
    let report = s.recovery_report().unwrap();
    assert!(report.checkpointed >= 20, "most state is in the snapshot");
    assert!(report.replayed <= 6, "only the tail replays");
    let resp = s.retrieve(Request::subject("tick(N)")).unwrap();
    assert_eq!(resp.as_data().unwrap().len(), 25);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clones_share_one_log() {
    let dir = temp_dir("clone");
    let mut s = Session::open_with(&dir, wal_only()).unwrap();
    s.run("predicate p(A).").unwrap();
    let mut clone = s.clone();
    clone.run("p(1).").unwrap();
    s.run("p(2).").unwrap();
    drop((s, clone));
    // Both clones' mutations are in the one log; the declared predicate
    // replays once, and both facts are recovered.
    let s = Session::open_with(&dir, wal_only()).unwrap();
    assert_eq!(s.recovery_report().unwrap().replayed, 3);
    let resp = s.retrieve(Request::subject("p(A)")).unwrap();
    assert_eq!(resp.as_data().unwrap().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transaction_commits_as_one_wal_record() {
    let dir = temp_dir("txn-commit");
    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.run("predicate acct(Id, Bal).").unwrap();
        // Three mutations inside the transaction, one record in the log.
        s.batch(|kb| {
            kb.run("acct(a, 100).")?;
            kb.run("acct(b, 50).")?;
            kb.run("retract acct(a, 100).")?;
            kb.run("acct(a, 70).").map(|_| ())
        })
        .unwrap();
        s.sync().unwrap();
    }
    let s = Session::open_with(&dir, wal_only()).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.replayed, 2, "declare + one batch record");
    let d = s.retrieve(Request::subject("acct(Id, Bal)")).unwrap();
    let d = d.as_data().unwrap();
    assert_eq!(d.len(), 2);
    assert!(d.contains_row(&["a", "70"]) && d.contains_row(&["b", "50"]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rolled_back_transaction_leaves_no_trace_in_the_wal() {
    let dir = temp_dir("txn-rollback");
    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.run("predicate acct(Id, Bal).").unwrap();
        s.run("acct(a, 100).").unwrap();
        let err = s.batch(|kb| {
            kb.run("acct(b, 50).")?;
            kb.run("this is not a statement.")?;
            Ok(())
        });
        assert!(err.is_err());
        // The failed batch rolled back in memory too.
        let d = s.retrieve(Request::subject("acct(Id, Bal)")).unwrap();
        assert_eq!(d.as_data().unwrap().len(), 1);
        s.sync().unwrap();
    }
    let s = Session::open_with(&dir, wal_only()).unwrap();
    assert_eq!(s.recovery_report().unwrap().replayed, 2, "declare + fact");
    let d = s.retrieve(Request::subject("acct(Id, Bal)")).unwrap();
    let d = d.as_data().unwrap();
    assert_eq!(d.len(), 1);
    assert!(d.contains_row(&["a", "100"]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_batch_record_never_half_applies() {
    let dir = temp_dir("torn-batch");
    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.run("predicate acct(Id, Bal).").unwrap();
        s.run("acct(a, 100).").unwrap();
        // A transfer: both legs must land together or not at all.
        s.batch(|kb| {
            kb.run("retract acct(a, 100).")?;
            kb.run("acct(a, 30).")?;
            kb.run("acct(b, 70).").map(|_| ())
        })
        .unwrap();
        s.sync().unwrap();
    }
    // Tear into the middle of the batch record, as a crash mid-append
    // would: the record-level CRC must reject the whole batch.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 4]).unwrap();

    let s = Session::open_with(&dir, wal_only()).unwrap();
    let report = s.recovery_report().unwrap();
    assert!(report.discarded_tail_bytes > 0);
    let d = s.retrieve(Request::subject("acct(Id, Bal)")).unwrap();
    let d = d.as_data().unwrap();
    // Pre-batch state exactly: the transfer vanished as a unit.
    assert_eq!(d.len(), 1);
    assert!(d.contains_row(&["a", "100"]), "half-applied batch: {d}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_lands_on_the_last_published_epoch_despite_held_snapshots() {
    let dir = temp_dir("epoch-recovery");
    let old_reader;
    let last_answer;
    {
        let mut s = Session::open_with(&dir, wal_only()).unwrap();
        s.load(
            "predicate edge(F, T).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b).",
        )
        .unwrap();
        // Epoch 1 pinned by a long-lived reader.
        old_reader = s.snapshot().unwrap();
        // Two more published epochs, the second via an atomic batch.
        s.run("edge(b, c).").unwrap();
        s.publish().unwrap();
        s.batch(|kb| {
            kb.run("edge(c, d).")?;
            kb.run("edge(d, e).").map(|_| ())
        })
        .unwrap();
        last_answer = s
            .retrieve(Request::subject("path(X, Y)"))
            .unwrap()
            .to_string();
        // Process dies here: no shutdown, reader still holding epoch 1.
    }
    let s = Session::open_with(&dir, wal_only()).unwrap();
    // Recovery lands on the last *published* state — publish forces the
    // WAL down before the epoch becomes visible — never a half batch.
    assert_eq!(
        s.retrieve(Request::subject("path(X, Y)"))
            .unwrap()
            .to_string(),
        last_answer
    );
    assert_eq!(s.knowledge_base().edb().fact_count(), 4);
    // The survivor handle still answers from its own frozen epoch,
    // fully isolated from the recovered store.
    assert_eq!(old_reader.knowledge_base().edb().fact_count(), 1);
    let d = old_reader.retrieve(Request::subject("path(X, Y)")).unwrap();
    assert_eq!(d.as_data().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that cannot be written does not fail the commit that
/// triggered it: the batch is already logged and applied, so `apply`
/// returns `Ok`, the WAL keeps the batch, the failure is a downgrade and
/// a `checkpoint_failed` count, and the next due commit retries. An
/// explicit checkpoint still reports the error.
#[test]
fn a_failed_checkpoint_does_not_fail_the_commit_that_triggered_it() {
    let dir = temp_dir("ckpt-fail");
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every_ops: Some(1),
    };
    let wal_len = |dir: &Path| std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let collector = Arc::new(CollectSink::new());
    {
        let kb = KnowledgeBase::open_durable_with(&dir, opts)
            .unwrap()
            .with_describe_options(
                DescribeOptions::paper().with_sink(ObsSink::new(collector.clone())),
            );
        let mut s = Session::over(kb);
        s.run("predicate edge(A, B).").unwrap();
        let checkpoints =
            |s: &Session| s.knowledge_base().durability_metrics().unwrap().checkpoints;
        assert_eq!(checkpoints(&s), 1);
        assert_eq!(wal_len(&dir), 8, "a checkpoint leaves only the WAL header");

        // A directory where the checkpoint's temp file goes fails every
        // checkpoint at its first step, for any user.
        let blocker = dir.join("checkpoint.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let applied = s.apply(Mutation::new().insert("edge(a, b)")).unwrap();
        assert_eq!(applied.inserted, 1);
        let [downgrade] = applied.downgrades.as_slice() else {
            panic!("one downgrade expected: {:?}", applied.downgrades);
        };
        assert_eq!(
            (downgrade.from, downgrade.to),
            (Mode::Checkpoint, Mode::WalReplay)
        );
        assert!(
            downgrade
                .reason
                .starts_with("checkpoint: durability i/o error (create checkpoint"),
            "{downgrade}"
        );
        assert_eq!(checkpoints(&s), 1);
        assert!(wal_len(&dir) > 8, "the WAL keeps the commit");
        let failed = |c: &CollectSink| {
            c.events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        Event::Counter {
                            name: "checkpoint_failed",
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(failed(&collector), 1);
        // Each due commit retries and counts its failure, but the note
        // waiting for the next read is not repeated.
        let applied = s.apply(Mutation::new().insert("edge(b, c)")).unwrap();
        assert_eq!(applied.downgrades.len(), 1, "{:?}", applied.downgrades);
        assert_eq!(failed(&collector), 2);
        let rows = s.retrieve(Request::subject("edge(X, Y)")).unwrap();
        assert_eq!(rows.as_data().unwrap().len(), 2, "the commits are served");
        assert!(s.checkpoint().is_err(), "an explicit checkpoint reports it");

        // Obstruction gone: the next commit is due and checkpoints.
        std::fs::remove_dir(&blocker).unwrap();
        let applied = s.apply(Mutation::new().insert("edge(c, d)")).unwrap();
        assert!(applied.downgrades.is_empty(), "{:?}", applied.downgrades);
        assert_eq!(checkpoints(&s), 2);
        assert_eq!(wal_len(&dir), 8);
        assert_eq!(failed(&collector), 2);
    }
    let s = Session::open_with(&dir, opts).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!((report.checkpointed, report.replayed), (4, 0));
    let rows = s.retrieve(Request::subject("edge(X, Y)")).unwrap();
    assert_eq!(rows.as_data().unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// The store a checkpoint written by an earlier encoder describes:
/// every value tag (symbol, negative int, float, quoted non-ASCII string,
/// bool), a key, a rule with a negated literal and a constraint.
const GOLDEN_DUMP: &str = "\
predicate flag(Name, On).
predicate knows(A, B).
predicate person(Name, Age, Height, Motto) key 1.
flag(ann, true).
flag(bob, false).
knows(ann, bob).
knows(bob, cara).
person(ann, -42, 1.75, \"naïve ça \\\"va\\\"\").
person(bob, 7, -0.5, \"plain\").
reach(X, Y) :- knows(X, Y).
reach(X, Z) :- knows(X, Y), reach(Y, Z).
loner(X) :- person(X, A, H, M), not reach(X, bob).
:- flag(X, F), knows(X, X).
";

/// A checkpoint written before the current encoder opens, answers as it
/// did when it was written, and checkpointing the reopened store
/// rewrites it byte for byte.
#[test]
fn a_golden_checkpoint_opens_answers_and_rewrites_byte_for_byte() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/durability/tests/data/golden.ckp");
    let dir = temp_dir("golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&golden, dir.join("checkpoint.ckp")).unwrap();

    let mut kb = KnowledgeBase::open_durable_with(&dir, wal_only()).unwrap();
    let report = kb.recovery_report().unwrap();
    assert_eq!((report.checkpointed, report.replayed), (13, 0));
    assert_eq!(kb.dump(), GOLDEN_DUMP);
    // `true` is a bool, not the symbol `true`.
    let flags: Vec<Value> = kb
        .edb()
        .relation("flag")
        .unwrap()
        .iter()
        .map(|t| t.values()[1].clone())
        .collect();
    assert_eq!(flags, [Value::Bool(true), Value::Bool(false)]);
    for (statement, answer) in [
        (
            "retrieve person(X, A, H, M).",
            "X\tA\tH\tM\nann\t-42\t1.75\t\"naïve ça \\\"va\\\"\"\nbob\t7\t-0.5\t\"plain\"\n",
        ),
        ("retrieve flag(X, F).", "X\tF\nann\ttrue\nbob\tfalse\n"),
        (
            "retrieve reach(X, Y).",
            "X\tY\nann\tbob\nbob\tcara\nann\tcara\n",
        ),
        ("retrieve loner(X).", "X\nbob\n"),
        (
            "describe reach(X, cara).",
            "reach(X, cara) ← knows(X, cara)\nreach(X, cara) ← reach(X, Y) ∧ reach(Y, cara)\n",
        ),
        ("show constraints.", ":- flag(X, F), knows(X, X).\n"),
    ] {
        assert_eq!(
            kb.run(statement).unwrap().to_string(),
            answer,
            "{statement}"
        );
    }

    let (lsn, bytes) = kb.checkpoint().unwrap().unwrap();
    assert_eq!(lsn.0, 13, "no new op: the same LSN is covered");
    let rewritten = std::fs::read(dir.join("checkpoint.ckp")).unwrap();
    assert_eq!(bytes, rewritten.len() as u64);
    assert!(
        rewritten == std::fs::read(&golden).unwrap(),
        "checkpoint bytes changed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
