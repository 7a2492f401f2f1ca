//! E3/E4/E5 — the paper's non-recursive knowledge queries (§3.2, §4:
//! Algorithm 1 / Figure 1), timed on the §2.2 university database.

use criterion::{criterion_group, criterion_main, Criterion};
use qdk_bench::university;
use qdk_core::Describe;
use qdk_lang::ast::Statement;
use qdk_logic::parser::{parse_atom, parse_body};
use std::hint::black_box;

fn e3_describe_can_ta_math(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Describe(Describe::new(
        parse_atom("can_ta(X, databases)").unwrap(),
        parse_body("student(X, math, V), V > 3.7").unwrap(),
    ));
    c.bench_function("e3_describe_can_ta_math", |b| {
        b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
    });
}

fn e4_describe_honor(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Describe(Describe::new(parse_atom("honor(X)").unwrap(), vec![]));
    c.bench_function("e4_describe_honor", |b| {
        b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
    });
}

fn e5_describe_can_ta_susan(c: &mut Criterion) {
    let kb = university();
    let q = Statement::Describe(Describe::new(
        parse_atom("can_ta(X, Y)").unwrap(),
        parse_body("honor(X), teach(susan, Y)").unwrap(),
    ));
    c.bench_function("e5_describe_can_ta_susan", |b| {
        b.iter(|| black_box(kb.query(black_box(&q)).unwrap()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = e3_describe_can_ta_math, e4_describe_honor, e5_describe_can_ta_susan
);
criterion_main!(benches);
