//! E1/E2 — the paper's data queries (§3.1, Examples 1–2), timed per
//! evaluation strategy on the §2.2 university database.

use criterion::{criterion_group, criterion_main, Criterion};
use qdk_bench::university;
use qdk_engine::{Retrieve, Strategy};
use qdk_lang::ast::Statement;
use qdk_logic::parser::{parse_atom, parse_body};
use std::hint::black_box;

fn strategies() -> [(&'static str, Strategy); 3] {
    [
        ("seminaive", Strategy::SemiNaive),
        ("topdown", Strategy::TopDown),
        ("qsq", Strategy::Qsq),
    ]
}

fn e1_retrieve_honor_enrolled(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Retrieve(Retrieve::new(
        parse_atom("honor(X)").unwrap(),
        parse_body("enroll(X, databases)").unwrap(),
    ));
    let mut group = c.benchmark_group("e1_retrieve_honor_enrolled");
    for (name, strategy) in strategies() {
        let kb = kb.clone().with_strategy(strategy);
        group.bench_function(name, |b| {
            b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
        });
    }
    group.finish();
}

fn e2_retrieve_fresh_answer(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Retrieve(Retrieve::new(
        parse_atom("answer(X)").unwrap(),
        parse_body("can_ta(X, databases), student(X, math, V), V > 3.7").unwrap(),
    ));
    let mut group = c.benchmark_group("e2_retrieve_fresh_answer");
    for (name, strategy) in strategies() {
        let kb = kb.clone().with_strategy(strategy);
        group.bench_function(name, |b| {
            b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
        });
    }
    group.finish();
}

fn recursive_retrieve_prior(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Retrieve(Retrieve::new(
        parse_atom("prior(databases, Y)").unwrap(),
        vec![],
    ));
    let mut group = c.benchmark_group("retrieve_prior_databases");
    for (name, strategy) in strategies() {
        let kb = kb.clone().with_strategy(strategy);
        group.bench_function(name, |b| {
            b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = e1_retrieve_honor_enrolled, e2_retrieve_fresh_answer, recursive_retrieve_prior
);
criterion_main!(benches);
