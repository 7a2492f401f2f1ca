//! The unified resource governor, end to end: the same [`ResourceLimits`]
//! vocabulary bounds both evaluation stacks — every `retrieve` strategy
//! aborts a runaway program with the same structured [`Exhausted`]
//! diagnostic, and `describe` degrades gracefully into a
//! [`Completeness::Truncated`] answer instead of erroring or silently
//! under-answering.

use qdk::logic::parser::{parse_atom, parse_body, parse_program};
use qdk::{
    CancelToken, Completeness, Describe, DescribeOptions, KnowledgeBase, Request, Resource,
    ResourceLimits, Session, Strategy, TransformPolicy,
};
use std::time::Duration;

fn kb_from(src: &str) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.load(src).unwrap();
    kb
}

/// A transitive-closure workload whose fixpoint needs far more rule
/// firings than the budget allows.
fn chain_kb(n: usize) -> KnowledgeBase {
    let mut src = String::from(
        "predicate edge(From, To).\n\
         reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), reach(Z, Y).\n",
    );
    for i in 0..n {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    kb_from(&src)
}

#[test]
fn all_strategies_report_the_same_exhaustion_diagnostic() {
    let session = Session::over(chain_kb(40));
    let limits = ResourceLimits::default().with_work_budget(25);
    let mut seen = Vec::new();
    for strategy in Strategy::ALL {
        let err = session
            .retrieve(
                Request::subject("reach(X, Y)")
                    .strategy(strategy)
                    .limits(limits),
            )
            .expect_err("budget must trip");
        let e = err
            .exhausted()
            .unwrap_or_else(|| panic!("{strategy:?}: expected Exhausted, got {err:?}"));
        assert_eq!(e.resource, Resource::WorkBudget, "{strategy:?}");
        assert_eq!(e.limit, 25, "{strategy:?}");
        assert!(e.spent > e.limit, "{strategy:?}");
        seen.push(e.resource);
    }
    // One diagnostic vocabulary across all three engines.
    assert!(seen.iter().all(|r| *r == seen[0]));
}

/// A limit that trips inside the QSQ net is the answer. The dispatcher
/// used to retry semi-naive under a fresh governor, so a deadline could
/// run twice and a cancelled request paid for a second evaluation; with
/// `Auto` as the default that is the path of every bound recursive goal.
#[test]
fn exhausted_qsq_is_not_retried_semi_naive() {
    let limits = ResourceLimits::default().with_work_budget(5);
    // Bound + recursive + positive: the default resolves to the net too.
    for strategy in [Strategy::Qsq, Strategy::Auto] {
        // A failed request returns no trace, so trace through the
        // session's own sink.
        let collector = std::sync::Arc::new(qdk::CollectSink::new());
        let sink = qdk::ObsSink::new(collector.clone());
        let session = Session::over(
            chain_kb(40).with_describe_options(DescribeOptions::paper().with_sink(sink)),
        );
        let err = session
            .retrieve(
                Request::subject("reach(n0, Y)")
                    .strategy(strategy)
                    .limits(limits),
            )
            .expect_err("budget must trip");
        let e = err.exhausted().expect("expected Exhausted");
        assert_eq!(e.resource, Resource::WorkBudget, "{strategy:?}");
        assert_eq!(e.limit, 5, "{strategy:?}");
        let trace = qdk::QueryTrace::from_events(&collector.events(), String::new(), 0, Vec::new());
        assert!(trace.span_micros("qsq").is_some(), "{strategy:?}: {trace}");
        assert_eq!(
            trace.span_micros("seminaive"),
            None,
            "{strategy:?}: {trace}"
        );
        assert_eq!(trace.counter("downgrade"), None, "{strategy:?}: {trace}");
    }
}

#[test]
fn fact_limit_bounds_bottom_up_strategies() {
    let session = Session::over(chain_kb(40));
    let limits = ResourceLimits::default().with_max_facts(10);
    for strategy in [Strategy::SemiNaive, Strategy::Qsq] {
        let err = session
            .retrieve(
                Request::subject("reach(X, Y)")
                    .strategy(strategy)
                    .limits(limits),
            )
            .expect_err("fact limit must trip");
        let e = err
            .exhausted()
            .unwrap_or_else(|| panic!("{strategy:?}: expected Exhausted, got {err:?}"));
        assert_eq!(e.resource, Resource::Facts, "{strategy:?}");
    }
}

#[test]
fn cancellation_aborts_retrieve() {
    let session = Session::over(chain_kb(40));
    let token = CancelToken::new();
    token.cancel();
    let err = session
        .retrieve(
            Request::subject("reach(X, Y)")
                .strategy(Strategy::SemiNaive)
                .cancel(token),
        )
        .expect_err("pre-cancelled token must abort");
    let e = err.exhausted().expect("expected Exhausted");
    assert_eq!(e.resource, Resource::Cancelled);
}

/// A retrieve whose goals are all stored runs no evaluator — `Auto`
/// answers it by joining the stored relations, and so does a live
/// maintained store — but the join is still governed: a four-way cross
/// product of 60-fact relations (13 million frames) stops at a 50 ms
/// deadline instead of running to completion.
#[test]
fn stored_only_cross_product_stops_at_the_deadline() {
    let mut src =
        String::from("predicate a(N).\npredicate b(N).\npredicate c(N).\npredicate d(N).\n");
    for i in 0..60 {
        src.push_str(&format!("a(n{i}). b(n{i}). c(n{i}). d(n{i}).\n"));
    }
    let mut maintained = kb_from(&src);
    maintained.materialize_maintained().unwrap();
    let limits = ResourceLimits::default().with_deadline(Duration::from_millis(50));
    for (what, kb) in [("stored", kb_from(&src)), ("maintained", maintained)] {
        let session = Session::over(kb);
        let started = std::time::Instant::now();
        let err = session
            .retrieve(
                Request::subject("answer(W)")
                    .where_clause("a(W), b(X), c(Y), d(Z)")
                    .limits(limits),
            )
            .expect_err("the deadline must stop the join");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{what}: {:?}",
            started.elapsed()
        );
        let e = err.exhausted().unwrap_or_else(|| panic!("{what}: {err:?}"));
        assert_eq!(e.resource, Resource::Deadline, "{what}");
    }
}

/// Cancellation arriving *mid-fixpoint* from another thread stops the
/// evaluation promptly: the fixpoint observes the token at its next tick
/// or poll and returns the Cancelled diagnostic long before the workload
/// could have finished.
#[test]
fn mid_fixpoint_cancel_from_another_thread_stops_the_fixpoint() {
    // The semi-naive closure of an 800-edge chain derives 320k facts over
    // 800 delta rounds — hundreds of milliseconds even in a release build,
    // so a cancel 10ms in always lands mid-fixpoint.
    let session = Session::over(chain_kb(800));
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
        })
    };
    let start = std::time::Instant::now();
    let err = session
        .retrieve(
            Request::subject("reach(X, Y)")
                .strategy(Strategy::SemiNaive)
                .cancel(token),
        )
        .expect_err("mid-flight cancellation must abort the fixpoint");
    canceller.join().unwrap();
    let e = err.exhausted().expect("expected Exhausted");
    assert_eq!(e.resource, Resource::Cancelled);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the fixpoint kept running for {:?} after the cancel",
        start.elapsed()
    );
}

/// Example 8's workload (§5.1): the indirectly recursive subject that made
/// Algorithm 1 "hang". Under a 50ms deadline the describe returns promptly
/// with a truncated answer and a populated diagnostic — no panic, no
/// silent empty answer, no error.
#[test]
fn example8_describe_under_deadline_returns_truncated() {
    let idb = qdk::engine::Idb::from_rules(
        parse_program(
            "p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap();
    let query = Describe::new(
        parse_atom("p(X, Y)").unwrap(),
        parse_body("r(a, Y)").unwrap(),
    );
    let opts = DescribeOptions::paper().with_deadline(Duration::from_millis(50));
    let start = std::time::Instant::now();
    let answer = qdk::core::algo1::run_unchecked(&idb, &query, &opts)
        .expect("deadline must truncate, not error");
    // Prompt: the divergent walk is cut by the deadline or by the built-in
    // recursion guard, whichever bites first — never a hang.
    assert!(start.elapsed() < Duration::from_secs(5));
    let e = answer
        .completeness
        .exhausted()
        .expect("answer must be tagged truncated");
    assert!(
        matches!(e.resource, Resource::Deadline | Resource::Depth),
        "unexpected diagnostic: {e}"
    );
    assert!(e.limit > 0, "diagnostic must be populated: {e}");
    // Not silence: the theorems found before the cut are returned.
    assert!(!answer.is_empty(), "{answer}");
    // The rendering announces the truncation.
    assert!(answer.to_string().contains("truncat"), "{answer}");
}

/// A doubling recursion (`p(X,Y) ← p(X,Z) ∧ p(Z,Y)`) enumerated
/// untransformed has a walk far wider than any clock allows: the deadline
/// itself trips, mid-walk, and the answer says so.
#[test]
fn deadline_trips_mid_walk_on_doubling_recursion() {
    let idb = qdk::engine::Idb::from_rules(
        parse_program(
            "p(X, Y) :- e(X, Y).\n\
             p(X, Y) :- p(X, Z), p(Z, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap();
    let query = Describe::new(
        parse_atom("p(X, Y)").unwrap(),
        parse_body("p(a, Y)").unwrap(),
    );
    let opts = DescribeOptions::paper().with_deadline(Duration::from_millis(50));
    let answer = qdk::core::algo1::run_unchecked(&idb, &query, &opts)
        .expect("deadline must truncate, not error");
    let e = answer
        .completeness
        .exhausted()
        .expect("answer must be tagged truncated");
    assert_eq!(e.resource, Resource::Deadline);
    assert_eq!(e.limit, 50);
    assert!(e.spent >= e.limit, "diagnostic must be populated: {e}");
}

#[test]
fn example6_describe_budget_limited_returns_truncated_not_silent() {
    let mut kb = kb_from(
        "prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    );
    // Algorithm 1's divergence, bounded by a work budget: kb-level
    // describe uses Algorithm 2 (terminating), so drive algo1 directly.
    let idb = kb.idb().clone();
    let query = Describe::new(
        parse_atom("prior(X, Y)").unwrap(),
        parse_body("prior(databases, Y)").unwrap(),
    );
    let budgeted = DescribeOptions::paper().with_work_budget(500);
    let answer = qdk::core::algo1::run_unchecked(&idb, &query, &budgeted).unwrap();
    assert!(answer.is_truncated());
    assert_eq!(
        answer.completeness.exhausted().unwrap().resource,
        Resource::WorkBudget
    );

    // Depth-limited: the finite chain-family prefix, tagged truncated,
    // with the theorems still present (not silence).
    let deep = DescribeOptions::paper().with_max_depth(8);
    let answer = qdk::core::algo1::run_unchecked(&idb, &query, &deep).unwrap();
    assert!(answer.is_truncated());
    assert!(answer.len() >= 3, "{answer}");
    assert_eq!(
        answer.completeness.exhausted().unwrap().resource,
        Resource::Depth
    );

    // The terminating Algorithm 2 path stays Complete.
    let full = kb
        .run("describe prior(X, Y) where prior(databases, Y).")
        .unwrap();
    let k = full.as_knowledge().unwrap();
    assert_eq!(k.completeness, Completeness::Complete);
    assert!(!k.is_truncated());
}

/// `explain` is a describe rendered with derivations, so it owes the
/// same completeness line: it used to rebuild its text from the theorems
/// alone, dropping `-- truncated: …` and printing `no theorems derivable`
/// for an enumeration that was cut before it found any.
#[test]
fn explain_reports_truncation_like_describe() {
    // Algorithm 1 on Example 6's recursive subject, cut at depth 8: the
    // chain-family prefix, truncated.
    let kb = kb_from(
        "prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    )
    .with_describe_options(DescribeOptions::paper().with_transform(TransformPolicy::None));
    let s = Session::over(kb);
    let ask = |text: String, request: fn(Request) -> Request| {
        s.query(request(Request::statement(text)))
            .unwrap()
            .to_string()
    };
    let deep = |r: Request| r.limits(ResourceLimits::default().with_max_depth(8));
    let subject = "prior(X, Y) where prior(databases, Y).";
    let described = ask(format!("describe {subject}"), deep);
    let explained = ask(format!("explain {subject}"), deep);
    let line = described.lines().last().unwrap();
    assert!(line.starts_with("-- truncated: depth"), "{described}");
    assert_eq!(explained.lines().last().unwrap(), line, "{explained}");
    assert!(explained.contains("expanded by rule"), "{explained}");

    // Cut before the first theorem (the negated concept rules out the
    // definitions too): both say so, in the same words.
    let cancelled = |r: Request| {
        let token = CancelToken::new();
        token.cancel();
        r.cancel(token)
    };
    let subject = "prior(X, Y) where prior(databases, Y) and not prereq(V, W).";
    let described = ask(format!("describe {subject}"), cancelled);
    assert_eq!(
        described,
        "no theorems found before truncation (evaluation cancelled)\n"
    );
    assert_eq!(ask(format!("explain {subject}"), cancelled), described);
}

#[test]
fn negated_hypothesis_describe_is_governed() {
    // `describe p where not h` unfolds the subject avoiding `h`. Like the
    // other expansions it has no partial answer, so a tripped limit is
    // an error carrying the diagnostic — it used to ignore its options.
    let src = "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
               can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).\n\
               can_ta(X, Y) :- tenured(X), teach(X, Y).";
    let statement = "describe can_ta(X, Y) where not honor(X).";
    let ungoverned = kb_from(src).run(statement).unwrap();
    assert!(ungoverned.to_string().starts_with("true"), "{ungoverned}");

    let mut budgeted =
        kb_from(src).with_describe_options(DescribeOptions::paper().with_work_budget(1));
    let e = budgeted
        .run(statement)
        .expect_err("budget must trip")
        .exhausted()
        .expect("structured diagnostic");
    assert_eq!(e.resource, Resource::WorkBudget);
    assert_eq!(e.limit, 1);

    let token = CancelToken::new();
    token.cancel();
    let mut cancelled =
        kb_from(src).with_describe_options(DescribeOptions::paper().with_cancel(token));
    let e = cancelled
        .run(statement)
        .expect_err("cancelled token must abort")
        .exhausted()
        .expect("structured diagnostic");
    assert_eq!(e.resource, Resource::Cancelled);
}

#[test]
fn kb_describe_options_thread_limits_into_retrieve() {
    // The facade's one options struct governs both statements: a
    // work-budget too small for the transitive closure trips retrieve.
    let mut kb = chain_kb(40).with_describe_options(
        DescribeOptions::paper().with_limits(ResourceLimits::default().with_work_budget(25)),
    );
    let err = kb
        .run("retrieve reach(X, Y).")
        .expect_err("budget must trip");
    assert!(err.to_string().contains("work budget"), "{err}");
}

#[test]
fn qsq_downgrade_to_semi_naive_is_surfaced() {
    // The QSQ net cannot handle negation in the relevant slice: the
    // request still succeeds, answers match semi-naive, and the response
    // records the Qsq -> SemiNaive downgrade.
    let kb = kb_from(
        "predicate edge(From, To).
         predicate sink(N).
         reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), reach(Z, Y).
         safe(X, Y) :- reach(X, Y), not sink(Y).
         edge(a, b). edge(b, c). edge(c, d). sink(c).",
    );
    let s = Session::over(kb);
    let resp = s
        .retrieve(Request::subject("safe(a, Y)").strategy(Strategy::Qsq))
        .unwrap();
    let downgrades = resp.downgrades().to_vec();
    assert_eq!(downgrades.len(), 1, "downgrade must be surfaced");
    assert_eq!(downgrades[0].from, Strategy::Qsq);
    assert_eq!(downgrades[0].to, Strategy::SemiNaive);
    let rows: Vec<String> = resp
        .into_data()
        .unwrap()
        .rows
        .iter()
        .map(ToString::to_string)
        .collect();
    let reference: Vec<String> = s
        .retrieve(Request::subject("safe(a, Y)").strategy(Strategy::SemiNaive))
        .unwrap()
        .into_data()
        .unwrap()
        .rows
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(rows, reference);
    // A purely positive bound query runs on the net with no downgrade.
    let clean = s
        .retrieve(Request::subject("reach(a, Y)").strategy(Strategy::Qsq))
        .unwrap();
    assert!(clean.downgrades().is_empty());
}
