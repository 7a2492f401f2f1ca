//! P2/P3/A1/A2 — describe-engine scaling and ablations.
//!
//! * P2: Algorithm 1 latency versus IDB rule-tower depth and fan-out, and
//!   versus hypothesis size;
//! * P3: Algorithm 2 transformation policies (modified vs artificial) and
//!   the cost of recursion handling relative to a non-recursive baseline;
//! * A1: the §4 comparison post-processing on/off;
//! * A2: redundancy elimination on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdk_bench::{redundant_idb, tower_hypothesis, tower_idb, university};
use qdk_core::{algo2, describe, Describe, DescribeOptions, TransformPolicy};
use qdk_engine::Idb;
use qdk_lang::ast::Statement;
use qdk_logic::parser::{parse_atom, parse_body, parse_program};
use std::hint::black_box;
use std::time::Duration;

/// P2a: latency vs tower depth (fan-out fixed at 2).
fn p2_depth_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_describe_vs_depth");
    group.measurement_time(Duration::from_secs(3));
    for depth in [2usize, 4, 6, 8] {
        let idb = tower_idb(depth, 2);
        let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(depth));
        let opts = DescribeOptions::paper();
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| black_box(describe::describe(&idb, &q, &opts).unwrap()))
        });
    }
    group.finish();
}

/// P2b: latency vs fan-out (depth fixed at 4).
fn p2_fanout_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_describe_vs_fanout");
    group.measurement_time(Duration::from_secs(3));
    for fanout in [1usize, 2, 3, 4] {
        let idb = tower_idb(4, fanout);
        let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(4));
        let opts = DescribeOptions::paper();
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, _| {
            b.iter(|| black_box(describe::describe(&idb, &q, &opts).unwrap()))
        });
    }
    group.finish();
}

/// P2c: latency vs hypothesis size on the university database.
fn p2_hypothesis_sweep(c: &mut Criterion) {
    let kb = university();
    let hyps = [
        "honor(X)",
        "honor(X), teach(susan, Y)",
        "honor(X), teach(susan, Y), complete(X, Y, S, G)",
        "honor(X), teach(susan, Y), complete(X, Y, S, G), G > 3.0",
    ];
    let mut group = c.benchmark_group("p2_describe_vs_hypothesis_size");
    for (i, h) in hyps.iter().enumerate() {
        let q = Statement::Describe(Describe::new(
            parse_atom("can_ta(X, Y)").unwrap(),
            parse_body(h).unwrap(),
        ));
        group.bench_with_input(BenchmarkId::from_parameter(i + 1), &i, |b, _| {
            b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
        });
    }
    group.finish();
}

/// P3: transformation policies on the recursive Example 6 query.
fn p3_transform_policies(c: &mut Criterion) {
    let idb = Idb::from_rules(
        parse_program(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap();
    let q = Describe::new(
        parse_atom("prior(X, Y)").unwrap(),
        parse_body("prior(databases, Y)").unwrap(),
    );
    let mut group = c.benchmark_group("p3_transform_policy");
    for (name, policy) in [
        ("modified", TransformPolicy::PreferModified),
        ("artificial", TransformPolicy::AlwaysArtificial),
    ] {
        let opts = DescribeOptions::paper().with_transform(policy);
        group.bench_function(name, |b| {
            b.iter(|| black_box(algo2::run(&idb, &q, &opts).unwrap()))
        });
    }
    group.finish();
}

/// A1: comparison post-processing on/off (Example 3, whose answers carry
/// comparisons the hypothesis implies).
fn a1_comparison_postprocessing(c: &mut Criterion) {
    let kb = university();
    let q = Describe::new(
        parse_atom("can_ta(X, databases)").unwrap(),
        parse_body("student(X, math, V), V > 3.7").unwrap(),
    );
    let mut group = c.benchmark_group("a1_comparison_postprocessing");
    for (name, simplify) in [("on", true), ("off", false)] {
        let mut opts = DescribeOptions::paper();
        opts.simplify_comparisons = simplify;
        let idb = kb.idb().clone();
        group.bench_function(name, |b| {
            b.iter(|| black_box(describe::describe(&idb, &q, &opts).unwrap()))
        });
    }
    group.finish();
}

/// A2: redundancy elimination on/off (threshold-shifted rules that all
/// collapse to the weakest under comparison-aware subsumption).
fn a2_redundancy_elimination(c: &mut Criterion) {
    let idb = redundant_idb(12);
    let q = Describe::new(parse_atom("p0(X)").unwrap(), vec![]);
    let mut group = c.benchmark_group("a2_redundancy_elimination");
    for (name, dedup) in [("on", true), ("off", false)] {
        let mut opts = DescribeOptions::paper();
        opts.remove_redundant = dedup;
        group.bench_function(name, |b| {
            b.iter(|| black_box(describe::describe(&idb, &q, &opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = p2_depth_sweep, p2_fanout_sweep, p2_hypothesis_sweep,
        p3_transform_policies, a1_comparison_postprocessing, a2_redundancy_elimination
);
criterion_main!(benches);
