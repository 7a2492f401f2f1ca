//! Metrics contract: aggregation observes, never changes.
//!
//! * Enabling the [`qdk::MetricsSink`] — and arming slow-query capture,
//!   which installs a collector on *every* query — must not change any
//!   answer, row order, completeness tag, downgrade note or `Exhausted`
//!   diagnostic, for every strategy.
//! * The Prometheus text exposition is deterministic and pinned by a
//!   golden snapshot.
//! * Counters stay monotone and converge to exact totals under 4
//!   concurrent snapshot readers and a publishing writer.
//! * Slow-query capture writes one attributable JSON line per query over
//!   the threshold and counts them in `slow_queries`.

use proptest::prelude::*;
use qdk::{MetricsRegistry, Request, ResourceLimits, Session, Strategy};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write + Send` sink backed by a shared buffer, so a test can hand
/// the writer to `capture_slow_queries` and still read the log lines.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Builds the recursive `prior` closure over the given prerequisite
/// edges — the same program the observability suite uses.
fn chain_session(edges: &[(u8, u8)]) -> Session {
    let mut s = Session::new();
    s.load(
        "predicate prereq(C, P).\n\
         prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
    )
    .unwrap();
    for (a, b) in edges {
        s.run(&format!("prereq(c{a}, c{b}).")).unwrap();
    }
    s
}

/// One evaluation's observable outcome: rows in order, downgrade notes,
/// and the diagnostic if the query exhausted a limit.
fn retrieve_outcome(
    s: &Session,
    subject: &str,
    strategy: Strategy,
) -> (Vec<String>, Vec<String>, Option<String>) {
    match s.retrieve(Request::subject(subject).strategy(strategy)) {
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

    /// A metrics-enabled session with slow-query capture armed at 1 µs
    /// (so every query takes the capture path, collector and all) gives
    /// byte-identical outcomes to a plain session, for every strategy.
    #[test]
    fn metrics_change_nothing_observable(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..14),
    ) {
        let plain = chain_session(&edges);
        let mut metered = chain_session(&edges);
        let buf = SharedBuf::default();
        metered.capture_slow_queries(1, buf.clone());
        for strategy in Strategy::ALL {
            let a = retrieve_outcome(&plain, "prior(X, Y)", strategy);
            let b = retrieve_outcome(&metered, "prior(X, Y)", strategy);
            prop_assert_eq!(&a, &b, "{:?}", strategy);
        }
        // Aggregation saw every query; each one that crossed the 1 µs
        // threshold (all but possibly sub-microsecond outliers) logged
        // exactly one JSON line.
        let snap = metered.metrics_snapshot().unwrap();
        prop_assert_eq!(snap.counter("retrieves"), Some(4));
        prop_assert_eq!(snap.histogram("retrieve_micros").unwrap().count, 4);
        // Every strategy's evaluation span reaches its own histogram: one
        // observation per query that ran it. Nothing is bound, so `Auto`
        // ran semi-naive and said so, once per query.
        for (span, count) in [
            ("seminaive_span_micros", 2),
            ("topdown_span_micros", 1),
            ("qsq_span_micros", 1),
        ] {
            prop_assert_eq!(snap.histogram(span).map(|h| h.count), Some(count), "{}", span);
        }
        prop_assert_eq!(snap.counter("retrieve_auto_seminaive"), Some(1));
        let slow = snap.counter("slow_queries").unwrap_or(0);
        prop_assert!(slow >= 1, "no query reached 1 µs of wall time");
        prop_assert_eq!(buf.contents().lines().count() as u64, slow);
    }

    /// Same for describe under a work budget: answers, completeness tag
    /// and the diagnostic of a truncated enumeration are identical with
    /// metrics on or off.
    #[test]
    fn metrics_preserve_describe_truncation(budget in 50u64..2000) {
        let build = || {
            let mut s = Session::new();
            s.load(
                "predicate prereq(C, P).\n\
                 prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            ).unwrap();
            s
        };
        let plain = build();
        let mut metered = build();
        metered.capture_slow_queries(1, SharedBuf::default());
        let outcome = |s: &Session| {
            let resp = s.describe(
                Request::subject("prior(X, Y)")
                    .where_clause("prior(databases, Y)")
                    .limits(ResourceLimits::default().with_work_budget(budget)),
            ).unwrap();
            let k = resp.into_knowledge().unwrap();
            (k.rendered(), format!("{:?}", k.completeness))
        };
        prop_assert_eq!(outcome(&plain), outcome(&metered));
    }
}

/// The Prometheus text format is deterministic — name-sorted within each
/// kind, types declared, histogram summaries with quantile labels and an
/// exact `_max` gauge. Pinned so dashboards don't silently break.
#[test]
fn prometheus_rendering_is_pinned() {
    let reg = MetricsRegistry::new();
    reg.counter_add("retrieves", 3);
    reg.counter_add("rule_firings", 120);
    reg.counter_add("describe_prep_miss", 1);
    reg.counter_add("describe_prep_hit", 49);
    for (path, n) in [
        ("retrieve_auto_maintained", 7),
        ("retrieve_auto_edb", 20),
        ("retrieve_auto_seminaive", 1),
        ("retrieve_auto_topdown", 55),
        ("retrieve_auto_qsq", 25),
    ] {
        reg.counter_add(path, n);
    }
    reg.counter_add("plan_analysis_build", 1);
    reg.gauge_set("edb_facts", 42);
    for v in [100, 200, 300, 400] {
        reg.histogram_record("retrieve_micros", v);
    }
    reg.histogram_record("qsq_span_micros", 8);
    let snap = reg.snapshot();
    assert_eq!(
        snap.render_prometheus(),
        "\
# TYPE qdk_describe_prep_hit_total counter
qdk_describe_prep_hit_total 49
# TYPE qdk_describe_prep_miss_total counter
qdk_describe_prep_miss_total 1
# TYPE qdk_plan_analysis_build_total counter
qdk_plan_analysis_build_total 1
# TYPE qdk_retrieve_auto_edb_total counter
qdk_retrieve_auto_edb_total 20
# TYPE qdk_retrieve_auto_maintained_total counter
qdk_retrieve_auto_maintained_total 7
# TYPE qdk_retrieve_auto_qsq_total counter
qdk_retrieve_auto_qsq_total 25
# TYPE qdk_retrieve_auto_seminaive_total counter
qdk_retrieve_auto_seminaive_total 1
# TYPE qdk_retrieve_auto_topdown_total counter
qdk_retrieve_auto_topdown_total 55
# TYPE qdk_retrieves_total counter
qdk_retrieves_total 3
# TYPE qdk_rule_firings_total counter
qdk_rule_firings_total 120
# TYPE qdk_edb_facts gauge
qdk_edb_facts 42
# TYPE qdk_qsq_span_micros summary
qdk_qsq_span_micros{quantile=\"0.5\"} 8
qdk_qsq_span_micros{quantile=\"0.9\"} 8
qdk_qsq_span_micros{quantile=\"0.99\"} 8
qdk_qsq_span_micros_sum 8
qdk_qsq_span_micros_count 1
# TYPE qdk_qsq_span_micros_max gauge
qdk_qsq_span_micros_max 8
# TYPE qdk_retrieve_micros summary
qdk_retrieve_micros{quantile=\"0.5\"} 207
qdk_retrieve_micros{quantile=\"0.9\"} 400
qdk_retrieve_micros{quantile=\"0.99\"} 400
qdk_retrieve_micros_sum 1000
qdk_retrieve_micros_count 4
# TYPE qdk_retrieve_micros_max gauge
qdk_retrieve_micros_max 400
"
    );
    // The JSON rendering carries the same aggregates.
    let json = snap.render_json();
    assert!(json.contains("\"retrieves\":3"), "{json}");
    assert!(json.contains("\"edb_facts\":42"), "{json}");
    assert!(
        json.contains("\"retrieve_micros\":{\"count\":4,\"sum\":1000,\"max\":400"),
        "{json}"
    );
}

/// A session-level smoke of the full pipeline: queries feed counters,
/// histograms and subsystem gauges, and the snapshot renders.
#[test]
fn session_metrics_aggregate_queries_and_gauges() {
    let mut s = chain_session(&[(1, 0), (2, 1), (3, 2)]);
    s.enable_metrics();
    for subject in [
        "prior(X, Y)",
        "prior(X, Y)",
        "prior(c3, Y)",
        "prereq(c3, Y)",
        "prior(X, Y)",
    ] {
        s.retrieve(Request::subject(subject)).unwrap();
    }
    s.describe(Request::subject("prior(X, Y)").where_clause("prior(c3, Y)"))
        .unwrap();
    s.describe(Request::subject("prior(X, Y)").where_clause("prior(X, c0)"))
        .unwrap();
    let snap = s.metrics_snapshot().unwrap();
    assert_eq!(snap.counter("retrieves"), Some(5));
    assert_eq!(snap.counter("describes"), Some(2));
    // Engine counters flowed through the sink into the registry.
    assert!(snap.counter("rule_firings").unwrap_or(0) > 0);
    assert!(snap.counter("index_probes").unwrap_or(0) > 0);
    // Plan-cache behaviour: first retrieve compiles, the rest hit.
    assert_eq!(snap.counter("plan_cache_miss"), Some(1));
    assert_eq!(snap.counter("plan_cache_hit"), Some(4));
    // One counter per path the default strategy took, summing to the
    // retrieves; the rules were analysed once, by the first of them.
    assert_eq!(snap.counter("retrieve_auto_seminaive"), Some(3));
    assert_eq!(snap.counter("retrieve_auto_qsq"), Some(1));
    assert_eq!(snap.counter("retrieve_auto_edb"), Some(1));
    assert_eq!(snap.counter("retrieve_auto_topdown"), None);
    assert_eq!(snap.counter("retrieve_auto_maintained"), None);
    assert_eq!(snap.counter("plan_analysis_build"), Some(1));
    // Describe preparation likewise: the first computed describe prepares
    // the rule base, the next reuses it — one of the two per computed
    // describe, and one `transform` span around each lookup.
    assert_eq!(snap.counter("describe_prep_miss"), Some(1));
    assert_eq!(snap.counter("describe_prep_hit"), Some(1));
    assert_eq!(snap.counter("describe_cache_miss"), Some(2));
    assert_eq!(snap.histogram("transform_span_micros").unwrap().count, 2);
    // Subsystem gauges were polled at snapshot time.
    assert_eq!(snap.gauge("edb_facts"), Some(3));
    assert_eq!(snap.gauge("idb_rules"), Some(2));
    // Wall-time histograms recorded one observation per query.
    assert_eq!(snap.histogram("retrieve_micros").unwrap().count, 5);
    assert_eq!(snap.histogram("describe_micros").unwrap().count, 2);
    // And the evaluation spans aggregated into latency histograms.
    assert!(snap.histogram("execute_span_micros").unwrap().count >= 7);
    // No slow-query capture armed: nothing counted slow.
    assert_eq!(snap.counter("slow_queries"), None);
}

/// Slow-query lines are self-contained JSON with monotonically
/// increasing run ids, and only queries over the threshold log one.
#[test]
fn slow_query_capture_logs_json_lines() {
    let mut s = chain_session(&[(1, 0), (2, 1), (3, 2), (4, 3)]);
    let buf = SharedBuf::default();
    s.capture_slow_queries(1, buf.clone());
    s.retrieve(Request::subject("prior(X, Y)")).unwrap();
    s.retrieve(Request::subject("prior(c4, Y)")).unwrap();
    // Text through `run` is served by the same pipeline as the twin
    // calls: timed, counted and captured, whatever the statement's kind.
    s.run("retrieve prior(c4, Y).").unwrap();
    s.run("describe * where prereq(c4, Y).").unwrap();
    let text = buf.contents();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    for (line, head) in lines.iter().zip([
        "{\"run_id\":1,\"statement\":\"retrieve prior(X, Y).\",",
        "{\"run_id\":2,\"statement\":\"retrieve prior(c4, Y).\",",
        "{\"run_id\":3,\"statement\":\"retrieve prior(c4, Y).\",",
        "{\"run_id\":4,\"statement\":\"describe * where prereq(c4, Y).\",",
    ]) {
        assert!(line.starts_with(head), "{line}");
    }
    for line in &lines {
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"wall_micros\":"), "{line}");
        assert!(line.contains("\"spans\":["), "{line}");
        assert!(line.contains("\"execute\""), "{line}");
        assert!(line.contains("\"dropped_events\":0"), "{line}");
    }
    assert_eq!(
        s.metrics_snapshot().unwrap().counter("slow_queries"),
        Some(4)
    );
    // Disarming stops the log but keeps aggregating.
    s.capture_slow_queries(0, SharedBuf::default());
    s.retrieve(Request::subject("prior(X, Y)")).unwrap();
    let snap = s.metrics_snapshot().unwrap();
    assert_eq!(snap.counter("slow_queries"), Some(4));
    assert_eq!(snap.counter("retrieves"), Some(4));
    assert_eq!(snap.counter("describes"), Some(1));
}

/// Four snapshot readers querying concurrently with a publishing writer:
/// every interim snapshot shows monotonically non-decreasing counters,
/// and the final totals are exact — the sharded counters lose nothing.
#[test]
fn counters_stay_monotone_under_concurrent_readers() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: u64 = 25;
    const PUBLISHES: u64 = 10;

    let mut s = chain_session(&[(1, 0), (2, 1), (3, 2)]);
    s.enable_metrics();
    s.publish().unwrap();
    let mut handles = Vec::new();
    for _ in 0..READERS {
        let mut snap = s.snapshot().unwrap();
        handles.push(std::thread::spawn(move || {
            let mut last_retrieves = 0u64;
            for _ in 0..QUERIES_PER_READER {
                snap.refresh();
                snap.retrieve(Request::subject("prior(X, Y)")).unwrap();
                // The shared hub's counters never go backwards.
                let m = snap.metrics_snapshot().unwrap();
                let seen = m.counter("retrieves").unwrap_or(0);
                assert!(
                    seen >= last_retrieves,
                    "retrieves went backwards: {seen} < {last_retrieves}"
                );
                last_retrieves = seen;
            }
        }));
    }
    for next in 4..4 + PUBLISHES {
        s.run(&format!("prereq(c{}, c{}).", next, next - 1))
            .unwrap();
        s.publish().unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = s.metrics_snapshot().unwrap();
    // Exact totals: every reader retrieve and every publish was counted.
    assert_eq!(
        snap.counter("retrieves"),
        Some(READERS as u64 * QUERIES_PER_READER)
    );
    // Each `snapshot()` call republishes, then the writer loop publishes
    // PUBLISHES more; only the very first publish (publisher creation)
    // goes uncounted.
    assert_eq!(
        snap.counter("epoch_publish"),
        Some(READERS as u64 + PUBLISHES)
    );
    assert_eq!(
        snap.histogram("retrieve_micros").unwrap().count,
        READERS as u64 * QUERIES_PER_READER
    );
    // The epoch gauge reflects the writer's latest publish.
    assert_eq!(
        snap.gauge("epoch_version"),
        Some(1 + READERS as u64 + PUBLISHES)
    );
}
