//! P1 — retrieve-strategy scaling. Not a table in the paper (its
//! evaluation is qualitative); this sweep validates the substrate the
//! paper presumes: semi-naive beats naive with growing EDB size, and the
//! goal-directed strategy wins on constant-bound queries by touching only
//! the relevant slice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qdk_bench::{chain_edb, prior_idb, random_graph_edb};
use qdk_engine::{naive, query, ProgramPlan, Retrieve, Strategy};
use qdk_logic::parser::parse_atom;
use std::hint::black_box;
use std::time::Duration;

fn strategies() -> [(&'static str, Strategy); 3] {
    [
        ("seminaive", Strategy::SemiNaive),
        ("topdown", Strategy::TopDown),
        ("qsq", Strategy::Qsq),
    ]
}

/// Full transitive closure of a chain: the classic semi-naive-vs-naive
/// separation (closure size is quadratic in the chain length).
fn p1_full_closure_chain(c: &mut Criterion) {
    let idb = prior_idb();
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    let mut group = c.benchmark_group("p1_full_closure_chain");
    group.measurement_time(Duration::from_secs(4));
    for n in [16usize, 32, 64, 128] {
        let edb = chain_edb(n);
        group.throughput(Throughput::Elements(n as u64));
        // The naive reference evaluator is not a strategy; time it directly.
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| {
                let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
                black_box(naive::eval(&edb, &idb, &plan).unwrap())
            })
        });
        for (name, strategy) in strategies() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(query::retrieve(&edb, &idb, black_box(&q), strategy).unwrap()))
            });
        }
    }
    group.finish();
}

/// Constant-bound query `prior(c0-ish, Y)` on random graphs: the
/// goal-directed strategy restricts work to the reachable slice.
fn p1_bound_query_random(c: &mut Criterion) {
    let idb = prior_idb();
    let mut group = c.benchmark_group("p1_bound_query_random");
    group.measurement_time(Duration::from_secs(4));
    for edges in [64usize, 128, 256, 512] {
        let nodes = edges / 2;
        let edb = random_graph_edb(nodes, edges, 42);
        let q = Retrieve::new(parse_atom("prior(c0, Y)").unwrap(), vec![]);
        group.throughput(Throughput::Elements(edges as u64));
        for (name, strategy) in strategies() {
            group.bench_with_input(BenchmarkId::new(name, edges), &edges, |b, _| {
                b.iter(|| black_box(query::retrieve(&edb, &idb, black_box(&q), strategy).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = p1_full_closure_chain, p1_bound_query_random
);
criterion_main!(benches);
