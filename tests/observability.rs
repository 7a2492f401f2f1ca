//! Observability contract: tracing observes, never changes.
//!
//! * A [`qdk::CollectSink`] installed for a query must not change any
//!   answer, row order, completeness tag, or `Exhausted` diagnostic — for
//!   every strategy.
//! * Span streams nest correctly (every end matches the innermost open
//!   start), because spans are only emitted from coordinator code paths.
//! * `Response::trace()` returns a structured profile whose stage
//!   timings tile the query's wall time, on the paper's Example 8
//!   describe and a chain-128 retrieve.
//! * Silent strategy downgrades (QSQ → semi-naive) surface on the
//!   response and in the trace.

use proptest::prelude::*;
use qdk::obs::check_nesting;
use qdk::{
    datasets, CollectSink, DescribeOptions, ObsSink, Request, ResourceLimits, Session, Strategy,
};
use std::sync::Arc;

/// A 128-edge prerequisite chain with the recursive `prior` closure —
/// the chain-128 benchmark workload, in script form.
fn chain_session(n: usize) -> Session {
    let mut s = Session::new();
    s.load(
        "predicate prereq(Ctitle, Ptitle).\n\
         prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    )
    .unwrap();
    for i in 0..n {
        s.run(&format!("prereq(c{}, c{}).", i + 1, i)).unwrap();
    }
    s
}

/// The paper's Example 8 program (§5.3): mutually dependent `p`/`q` over
/// parallel `r`/`s` chains.
fn example8_session(n: usize) -> Session {
    let mut s = Session::new();
    s.load(
        "predicate r(From, To).\n\
         predicate s(From, To).\n\
         p(X, Y) :- q(X, Z), r(Z, Y).\n\
         q(X, Y) :- q(X, Z), s(Z, Y).\n\
         q(X, Y) :- r(X, Y).",
    )
    .unwrap();
    for i in 0..n {
        s.run(&format!("r(n{i}, n{}).", i + 1)).unwrap();
        s.run(&format!("s(n{i}, n{}).", i + 1)).unwrap();
    }
    s
}

/// Asserts the depth-0 stage spans tile the trace's wall time: their sum
/// accounts for at least 90% of it (the acceptance bound), and no stage
/// exceeds the wall.
fn assert_stages_tile_wall(trace: &qdk::QueryTrace) {
    let wall = trace.wall_micros;
    let sum: u64 = trace.stages().map(|s| s.micros).sum();
    assert!(
        sum >= wall - wall / 10,
        "stage sum {sum} µs below 90% of wall {wall} µs: {trace}"
    );
    for s in trace.stages() {
        assert!(s.micros <= wall, "stage {} exceeds wall: {trace}", s.name);
    }
}

#[test]
fn chain128_retrieve_trace_profiles_the_evaluation() {
    let s = chain_session(128);
    let resp = s
        .retrieve(Request::subject("prior(X, Y)").with_trace(true))
        .unwrap();
    assert_eq!(resp.as_data().unwrap().len(), 128 * 129 / 2);
    let trace = resp.trace().expect("trace requested");
    assert!(!trace.spans.is_empty());
    assert_stages_tile_wall(trace);
    // The stages are parse, plan, execute, in that order.
    let stages: Vec<&str> = trace.stages().map(|s| s.name).collect();
    assert_eq!(stages, vec!["parse", "plan", "execute"]);
    // Nothing is bound, so the default strategy resolves to semi-naive;
    // its span tree and counters are present.
    assert_eq!(trace.auto, Some(qdk::AutoChoice::Unbound), "{trace}");
    assert!(trace.span_micros("seminaive").is_some(), "{trace}");
    assert!(trace.span_micros("stratum").is_some(), "{trace}");
    assert!(trace.span_micros("iteration").is_some(), "{trace}");
    assert!(trace.counter("rule_firings").unwrap_or(0) > 0, "{trace}");
    assert!(trace.counter("delta_facts").unwrap_or(0) > 0, "{trace}");
    assert!(trace.counter("index_probes").unwrap_or(0) > 0, "{trace}");
    // First query on a fresh session compiles; a second traced query hits
    // the cache.
    assert_eq!(trace.counter("plan_cache_miss"), Some(1));
    let again = s
        .retrieve(Request::subject("prior(X, Y)").with_trace(true))
        .unwrap();
    assert_eq!(again.trace().unwrap().counter("plan_cache_hit"), Some(1));
}

/// The bound twin of the chain-128 retrieve: the default strategy resolves
/// to the QSQ net, and the trace says so — as a span tree, as a counter
/// and as the recorded choice with its reason.
#[test]
fn chain128_bound_retrieve_trace_records_the_choice() {
    let s = chain_session(128);
    let resp = s
        .retrieve(Request::subject("prior(c64, Y)").with_trace(true))
        .unwrap();
    assert_eq!(resp.as_data().unwrap().len(), 64);
    assert_eq!(resp.auto_choice(), Some(qdk::AutoChoice::Recursive));
    let trace = resp.trace().expect("trace requested");
    assert_stages_tile_wall(trace);
    assert_eq!(trace.auto, resp.auto_choice());
    assert!(trace.span_micros("qsq").is_some(), "{trace}");
    assert_eq!(trace.span_micros("seminaive"), None, "{trace}");
    assert_eq!(trace.counter("retrieve_auto_qsq"), Some(1), "{trace}");
    assert!(trace.counter("qsq_subqueries").unwrap_or(0) > 0, "{trace}");
    let rendered = trace.to_string();
    assert!(
        rendered.contains("-- auto: rule 5: bound goals, recursive slice -> Qsq"),
        "{rendered}"
    );
    // A pinned strategy records no choice.
    let pinned = s
        .retrieve(
            Request::subject("prior(c64, Y)")
                .strategy(Strategy::Qsq)
                .with_trace(true),
        )
        .unwrap();
    assert_eq!(pinned.auto_choice(), None);
    assert!(!pinned.trace().unwrap().to_string().contains("-- auto"));
}

#[test]
fn example8_describe_trace_profiles_the_enumeration() {
    let s = example8_session(8);
    let resp = s
        .describe(
            Request::subject("p(X, Y)")
                .where_clause("q(X, n3)")
                .with_trace(true),
        )
        .unwrap();
    assert!(!resp.as_knowledge().unwrap().theorems.is_empty());
    let trace = resp.trace().expect("trace requested");
    assert!(!trace.spans.is_empty());
    assert_stages_tile_wall(trace);
    let stages: Vec<&str> = trace.stages().map(|s| s.name).collect();
    assert_eq!(stages, vec!["parse", "execute"]);
    // Algorithm 2's phases and counters are recorded.
    assert!(trace.span_micros("transform").is_some(), "{trace}");
    assert!(trace.span_micros("enumerate").is_some(), "{trace}");
    assert!(trace.span_micros("assemble").is_some(), "{trace}");
    assert!(trace.counter("trees_expanded").unwrap_or(0) > 0, "{trace}");
    assert!(
        trace.counter("leaves_identified").unwrap_or(0) > 0,
        "{trace}"
    );
}

#[test]
fn qsq_downgrade_is_surfaced_on_response_and_trace() {
    // The QSQ net cannot host negation in the demanded slice: it degrades
    // to semi-naive. The response, its rendering and its trace all say so.
    let kb = datasets::university_extended();
    let s = Session::over(kb);
    let req = || {
        Request::subject("answer(X)")
            .where_clause("enroll(X, databases), not honor(X)")
            .strategy(Strategy::Qsq)
    };
    let resp = s.retrieve(req()).unwrap();
    assert_eq!(resp.downgrades().len(), 1, "downgrade must be surfaced");
    let d = &resp.downgrades()[0];
    assert_eq!(d.from, Strategy::Qsq);
    assert_eq!(d.to, Strategy::SemiNaive);
    let rendered = resp.to_string();
    assert!(
        rendered.contains("-- note: Qsq degraded to SemiNaive: "),
        "{rendered}"
    );

    let traced = s.retrieve(req().with_trace(true)).unwrap();
    let trace = traced.trace().unwrap();
    assert_eq!(trace.downgrades, resp.downgrades().to_vec());
    assert_eq!(trace.counter("downgrade"), Some(1));
    // The rendered trace carries the note.
    assert!(trace.to_string().contains("degraded to"), "{trace}");

    // A query the net hosts records no downgrade.
    let clean = s
        .retrieve(Request::subject("honor(X)").strategy(Strategy::Qsq))
        .unwrap();
    assert!(clean.downgrades().is_empty());
}

#[test]
fn spans_nest_correctly_across_both_statements() {
    let collector = Arc::new(CollectSink::new());
    let kb = datasets::university_extended()
        .with_describe_options(DescribeOptions::paper().with_sink(ObsSink::new(collector.clone())));
    let s = Session::over(kb);
    for strategy in [Strategy::SemiNaive, Strategy::TopDown, Strategy::Qsq] {
        s.retrieve(Request::subject("prior(X, Y)").strategy(strategy))
            .unwrap();
    }
    // The default strategy, down each path it can resolve to.
    for subject in [
        "student(ann, M, G)",
        "prior(X, Y)",
        "can_ta(X, databases)",
        "prior(databases, Y)",
    ] {
        s.retrieve(Request::subject(subject)).unwrap();
    }
    s.describe(Request::subject("prior(X, Y)").where_clause("prior(databases, Y)"))
        .unwrap();
    let events = collector.events();
    assert!(!events.is_empty());
    check_nesting(&events).unwrap();
    assert_eq!(collector.dropped(), 0);
}

/// One evaluation's observable outcome: rows in order, downgrade notes,
/// and the diagnostic if the query exhausted a limit.
fn retrieve_outcome(
    s: &Session,
    subject: &str,
    strategy: Strategy,
    trace: bool,
) -> (Vec<String>, Vec<String>, Option<String>) {
    let req = Request::subject(subject)
        .strategy(strategy)
        .with_trace(trace);
    match s.retrieve(req) {
        Ok(resp) => {
            let d = resp.as_data().unwrap();
            (
                d.rows.iter().map(ToString::to_string).collect(),
                d.downgrades.iter().map(ToString::to_string).collect(),
                None,
            )
        }
        Err(e) => (
            Vec::new(),
            Vec::new(),
            Some(
                e.exhausted()
                    .map_or_else(|| e.to_string(), |x| x.to_string()),
            ),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Installing a collector changes no answer, order, or downgrade for
    /// any strategy.
    #[test]
    fn tracing_changes_nothing_observable(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..14),
    ) {
        let mut s = Session::new();
        s.load(
            "predicate prereq(C, P).\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        ).unwrap();
        for (a, b) in &edges {
            s.run(&format!("prereq(c{a}, c{b}).")).unwrap();
        }
        for strategy in Strategy::ALL {
            // Unbound, and bound the way the default sends to the net.
            for subject in ["prior(X, Y)", "prior(c0, Y)"] {
                let plain = retrieve_outcome(&s, subject, strategy, false);
                let traced = retrieve_outcome(&s, subject, strategy, true);
                prop_assert_eq!(&plain, &traced, "{} under {:?}", subject, strategy);
            }
        }
    }

    /// Same for describe: answers, completeness tag and the `Exhausted`
    /// diagnostic of a truncated enumeration are identical with tracing
    /// on or off.
    #[test]
    fn tracing_preserves_describe_truncation(budget in 50u64..2000) {
        let mut s = Session::new();
        s.load(
            "predicate prereq(C, P).\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        ).unwrap();
        let outcome = |trace: bool| {
            let resp = s.describe(
                Request::subject("prior(X, Y)")
                    .where_clause("prior(databases, Y)")
                    .limits(ResourceLimits::default().with_work_budget(budget))
                    .with_trace(trace),
            ).unwrap();
            let k = resp.into_knowledge().unwrap();
            (k.rendered(), format!("{:?}", k.completeness))
        };
        prop_assert_eq!(outcome(false), outcome(true));
    }
}
