//! Prints the EXPERIMENTS.md series as compact markdown tables, using
//! direct timing (median of repeated runs) rather than Criterion's full
//! statistics — a quick reproduction check — and writes the same series
//! as machine-readable `BENCH_retrieve.json` / `BENCH_describe.json` /
//! `BENCH_obs.json` (the observability overhead guard) /
//! `BENCH_wal.json` (WAL ingest and recovery replay) /
//! `BENCH_concurrency.json` (mixed read/write serving) /
//! `BENCH_churn.json` (incremental view maintenance vs recompute under
//! fact churn). Every row of every artifact carries the same `run_id`,
//! so rows from one invocation can be joined across files.
//!
//! Run with `cargo run --release -p qdk-bench --bin report`.
//!
//! `-- --check` runs the same series and, instead of writing artifacts,
//! compares every fresh median against the committed baselines in
//! `crates/bench/baselines/` (25% tolerance). A fresh median more than
//! 25% slower than its baseline row fails the process — the CI
//! regression guard. To refresh the baselines after intentional
//! performance changes, run the report normally and copy the artifacts:
//! `cp BENCH_retrieve.json crates/bench/baselines/retrieve.json` (same
//! for describe).

use qdk_bench::{
    chain_edb, example8_edb, example8_idb, join_idb, prior_idb, random_graph_edb, redundant_idb,
    tower_hypothesis, tower_idb, university,
};
use qdk_core::{algo1, algo2, describe, Describe, DescribeOptions, TransformPolicy};
use qdk_engine::{naive, query, retrieve_with, EvalOptions, ProgramPlan, Retrieve, Strategy};
use qdk_logic::obs::{NullSink, ObsSink};
use qdk_logic::parser::{parse_atom, parse_body};
use qdk_logic::Parallelism;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `runs` executions, in microseconds.
fn median_micros(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Auto => "auto",
        Strategy::SemiNaive => "semi-naive",
        Strategy::TopDown => "top-down",
        Strategy::Qsq => "qsq",
    }
}

/// All three retrieve strategies, in reporting order.
const STRATEGIES: [Strategy; 3] = [Strategy::SemiNaive, Strategy::TopDown, Strategy::Qsq];

/// Asserts every strategy returns the same answer set for `q` before any
/// timing happens — a wrong-but-fast strategy must fail the bench, not
/// win it. Returns the agreed answer count for the report.
fn assert_strategies_agree(
    edb: &qdk_storage::Edb,
    idb: &qdk_engine::Idb,
    plan: &ProgramPlan,
    q: &Retrieve,
    context: &str,
) -> usize {
    let mut reference: Option<Vec<qdk_storage::Tuple>> = None;
    for strategy in STRATEGIES {
        let rows = query::retrieve_compiled(edb, idb, plan, q, strategy, EvalOptions::default())
            .unwrap()
            .sorted();
        if let Some(expected) = &reference {
            assert_eq!(
                rows.len(),
                expected.len(),
                "{context}: {} returned {} answers, {} returned {}",
                strategy_name(strategy),
                rows.len(),
                strategy_name(STRATEGIES[0]),
                expected.len(),
            );
            assert_eq!(
                &rows,
                expected,
                "{context}: {} disagrees with {}",
                strategy_name(strategy),
                strategy_name(STRATEGIES[0]),
            );
        } else {
            reference = Some(rows);
        }
    }
    reference.map_or(0, |r| r.len())
}

/// One flat JSON object from pre-rendered key/value pairs. Keys and
/// string values here are ASCII identifiers, so no escaping is needed.
fn json_record(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// Writes `{ "unit": ..., "run_id": ..., "series": [records...] }` to
/// `path`, tagging every series row with the shared `run_id`.
fn write_json(path: &str, records: &[String], run_id: &str) {
    let mut out = String::from("{\n  \"unit\": \"microseconds (median wall time)\",\n");
    out.push_str(&format!("  \"run_id\": \"{run_id}\",\n"));
    out.push_str("  \"series\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        // Each record is a rendered `{...}` object; splice the run_id in
        // as its first field.
        let tagged = format!("{{\"run_id\": \"{run_id}\", {}", &r[1..]);
        out.push_str(&format!("    {tagged}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn p1_full_closure(records: &mut Vec<String>) {
    println!("## P1a — full transitive closure of a chain (µs, median of 5)\n");
    println!("| n (edges) | naive | semi-naive | top-down | qsq |");
    println!("|-----------|-------|------------|----------|-----|");
    let idb = prior_idb();
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    for n in [16usize, 32, 64, 128] {
        let edb = chain_edb(n);
        let mut row = format!("| {n} ");
        let mut column = |name: &str, us: f64| {
            row.push_str(&format!("| {us:.0} "));
            records.push(json_record(&[
                ("section", json_str("p1_full_closure")),
                ("workload", json_str("chain")),
                ("n", n.to_string()),
                ("strategy", json_str(name)),
                ("micros", format!("{us:.1}")),
            ]));
        };
        // The reference evaluator is not a strategy: it is timed directly
        // (compile + fixpoint, as the one-shot `query::retrieve` pays).
        let us = median_micros(5, || {
            let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
            naive::eval(&edb, &idb, &plan).unwrap();
        });
        column("naive", us);
        for strategy in STRATEGIES {
            let us = median_micros(5, || {
                query::retrieve(&edb, &idb, &q, strategy).unwrap();
            });
            column(strategy_name(strategy), us);
        }
        println!("{row}|");
    }
    println!();
}

/// Bound queries are served from a compiled plan (the `KnowledgeBase`
/// serving path): the `ProgramPlan` is compiled once per EDB and every
/// strategy is timed through `retrieve_compiled`. Before any timing, all
/// three strategies must return the same answer set — the per-row answer
/// count is reported, and a disagreement aborts the bench.
fn p1_bound_query(records: &mut Vec<String>) {
    println!(
        "## P1b — constant-bound prior(c0, Y) on random graphs, cached plan (µs, median of 15)\n"
    );
    println!("| edges | answers | semi-naive | top-down | qsq |");
    println!("|-------|---------|------------|----------|-----|");
    let idb = prior_idb();
    for edges in [64usize, 128, 256, 512] {
        let edb = random_graph_edb(edges / 2, edges, 42);
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let q = Retrieve::new(parse_atom("prior(c0, Y)").unwrap(), vec![]);
        let answers =
            assert_strategies_agree(&edb, &idb, &plan, &q, &format!("p1_bound_query n={edges}"));
        let mut row = format!("| {edges} | {answers} ");
        for strategy in STRATEGIES {
            let us = median_micros(15, || {
                query::retrieve_compiled(&edb, &idb, &plan, &q, strategy, EvalOptions::default())
                    .unwrap();
            });
            row.push_str(&format!("| {us:.0} "));
            records.push(json_record(&[
                ("section", json_str("p1_bound_query")),
                ("workload", json_str("random_graph")),
                ("n", edges.to_string()),
                ("strategy", json_str(strategy_name(strategy))),
                ("micros", format!("{us:.1}")),
            ]));
        }
        println!("{row}|");
    }
    println!();
}

/// Join-heavy workloads on random graphs: the `triangle` 3-cycle query
/// (an unbound 3-way self-join) and the 3-literal `path3(c0, W)` bound
/// query. Both stress the selectivity-ordered planner and the composite
/// indexes rather than fixpoint depth. Served from a plan compiled once
/// per EDB, with cross-strategy answer equality asserted before timing
/// (see [`p1_bound_query`]).
fn j1_join_heavy(records: &mut Vec<String>) {
    println!("## J1 — join-heavy queries on random graphs, cached plan (µs, median of 15)\n");
    println!("| edges | query | answers | semi-naive | top-down | qsq |");
    println!("|-------|-------|---------|------------|----------|-----|");
    let idb = join_idb();
    for edges in [64usize, 128, 256] {
        let edb = random_graph_edb(edges / 2, edges, 42);
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        for (label, section, q) in [
            (
                "triangle(X,Y,Z)",
                "j1_triangle",
                Retrieve::new(parse_atom("triangle(X, Y, Z)").unwrap(), vec![]),
            ),
            (
                "path3(c0,W)",
                "j1_bound_path3",
                Retrieve::new(parse_atom("path3(c0, W)").unwrap(), vec![]),
            ),
        ] {
            let answers =
                assert_strategies_agree(&edb, &idb, &plan, &q, &format!("{section} n={edges}"));
            let mut row = format!("| {edges} | {label} | {answers} ");
            for strategy in STRATEGIES {
                let us = median_micros(15, || {
                    query::retrieve_compiled(
                        &edb,
                        &idb,
                        &plan,
                        &q,
                        strategy,
                        EvalOptions::default(),
                    )
                    .unwrap();
                });
                row.push_str(&format!("| {us:.0} "));
                records.push(json_record(&[
                    ("section", json_str(section)),
                    ("workload", json_str("random_graph")),
                    ("n", edges.to_string()),
                    ("strategy", json_str(strategy_name(strategy))),
                    ("micros", format!("{us:.1}")),
                ]));
            }
            println!("{row}|");
        }
    }
    println!();
}

/// The compile-then-execute comparison: `query::retrieve` recompiles the
/// program plan on every call (the pre-refactor cost model, and still
/// the one-shot API), while `query::retrieve_compiled` reuses a plan
/// compiled once — the path the `KnowledgeBase` cache takes.
fn compiled_vs_percall(records: &mut Vec<String>) {
    println!("## C1 — cached compiled plan vs per-call compilation (µs, median of 9)\n");
    println!("| workload | strategy | per-call compile | cached plan | cached/per-call |");
    println!("|----------|----------|------------------|-------------|-----------------|");
    let run = |workload: &str,
               edb: &qdk_storage::Edb,
               idb: &qdk_engine::Idb,
               plan: &ProgramPlan,
               q: &Retrieve,
               records: &mut Vec<String>| {
        for strategy in STRATEGIES {
            let per_call = median_micros(9, || {
                query::retrieve(edb, idb, q, strategy).unwrap();
            });
            let cached = median_micros(9, || {
                query::retrieve_compiled(edb, idb, plan, q, strategy, EvalOptions::default())
                    .unwrap();
            });
            println!(
                "| {workload} | {} | {per_call:.0} | {cached:.0} | {:.2} |",
                strategy_name(strategy),
                cached / per_call,
            );
            records.push(json_record(&[
                ("section", json_str("compiled_vs_percall")),
                ("workload", json_str(workload)),
                ("strategy", json_str(strategy_name(strategy))),
                ("per_call_micros", format!("{per_call:.1}")),
                ("cached_micros", format!("{cached:.1}")),
            ]));
        }
    };

    let idb = prior_idb();
    let plan = ProgramPlan::compile(&idb);
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    for n in [16usize, 64, 128] {
        let edb = chain_edb(n);
        run(&format!("chain-{n}"), &edb, &idb, &plan, &q, records);
    }

    let idb8 = example8_idb();
    let plan8 = ProgramPlan::compile(&idb8);
    let q8 = Retrieve::new(parse_atom("p(X, Y)").unwrap(), vec![]);
    for n in [16usize, 48] {
        let edb8 = example8_edb(n);
        run(&format!("example8-{n}"), &edb8, &idb8, &plan8, &q8, records);
    }
    println!();
}

/// Worker-count sweep for the fixpoint engines: the chain-128 full
/// closure (the PR 2 baseline workload) at 1/2/4/8 workers. Answers are
/// byte-identical at every count; only latency moves.
fn t1_retrieve_threads(records: &mut Vec<String>) {
    println!("## T1 — retrieve threads sweep, chain-128 full closure (µs, median of 5)\n");
    println!("| workers | semi-naive | top-down | qsq |");
    println!("|---------|------------|----------|-----|");
    let idb = prior_idb();
    let edb = chain_edb(128);
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    for workers in [1usize, 2, 4, 8] {
        let mut row = format!("| {workers} ");
        for strategy in STRATEGIES {
            let opts = EvalOptions::default().with_parallelism(Parallelism::workers(workers));
            let us = median_micros(5, || {
                retrieve_with(&edb, &idb, &q, strategy, opts.clone()).unwrap();
            });
            row.push_str(&format!("| {us:.0} "));
            records.push(json_record(&[
                ("section", json_str("t1_threads_sweep")),
                ("workload", json_str("chain")),
                ("n", "128".to_string()),
                ("workers", workers.to_string()),
                ("strategy", json_str(strategy_name(strategy))),
                ("micros", format!("{us:.1}")),
            ]));
        }
        println!("{row}|");
    }
    println!();
}

/// Worker-count sweep for derivation-tree enumeration: the depth-8
/// fan-out-2 rule tower (the PR 2 baseline workload) at 1/2/4/8 workers.
fn t2_describe_threads(records: &mut Vec<String>) {
    println!("## T2 — describe threads sweep, tower depth 8 fan-out 2 (µs, median of 9)\n");
    println!("| workers | µs | theorems |");
    println!("|---------|----|----------|");
    let idb = tower_idb(8, 2);
    let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(8));
    for workers in [1usize, 2, 4, 8] {
        let opts = DescribeOptions::paper().with_parallelism(Parallelism::workers(workers));
        let answers = describe::describe(&idb, &q, &opts).unwrap();
        let us = median_micros(9, || {
            describe::describe(&idb, &q, &opts).unwrap();
        });
        println!("| {workers} | {us:.0} | {} |", answers.len());
        records.push(json_record(&[
            ("section", json_str("t2_threads_sweep")),
            ("depth", "8".to_string()),
            ("fanout", "2".to_string()),
            ("workers", workers.to_string()),
            ("micros", format!("{us:.1}")),
            ("theorems", answers.len().to_string()),
        ]));
    }
    println!();
}

/// Mixed read/write serving throughput: one writer committing durable
/// (fsync-on-append) batches on a fixed cadence while 1/2/4/8 reader
/// threads run the chain-8 `path` closure for a fixed wall-clock slice.
///
/// The rule set deliberately includes a block of 384 wide-bodied
/// auxiliary rules over an empty relation: they cost almost nothing to
/// *evaluate* (the first scan is empty) but make *compilation* — join
/// ordering across six-atom bodies — a real fraction of a query. That is
/// the realistic shape of a grown knowledge base, and exactly what
/// separates the two modes:
///
/// * `locked` — the pre-epoch cost model: every thread shares one
///   `Mutex<KnowledgeBase>`; the writer holds the lock through log +
///   fsync, and — as every mutation did before plan retention — drops
///   the compiled plan on each commit, so readers serialize behind the
///   writer *and* recompile the whole program per query.
/// * `snapshot` — the epoch path: the writer publishes through a
///   [`qdk_lang::shared::Publisher`]; readers pin `Arc` snapshots whose
///   compiled plan rides along, and query with zero locks, refreshing
///   between queries.
///
/// The writer's cadence (a batch every ~1ms) is identical in both modes,
/// so the modes differ only in how reads and writes coordinate. The
/// artifact records aggregate microseconds per query (lower is better —
/// the regression-guard direction); queries/sec rides along as a non-key
/// field. Every reader asserts the full per-snapshot answer (36 rows for
/// the chain-8 closure) on every query.
fn c1_concurrency(records: &mut Vec<String>) {
    use qdk_durability::{DurabilityOptions, FsyncPolicy};
    use qdk_lang::ast::Statement;
    use qdk_lang::shared::Publisher;
    use qdk_lang::{Answer, KnowledgeBase};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    const MEASURE: Duration = Duration::from_millis(250);
    const WRITE_PAUSE: Duration = Duration::from_millis(1);
    const CHAIN: usize = 8;
    const AUX_RULES: usize = 384;
    const EXPECTED_ROWS: usize = CHAIN * (CHAIN + 1) / 2;

    let mut script = String::from(
        "predicate edge(F, T).\n\
         predicate tick(K).\n\
         predicate sparse(A, B).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).\n\
         tick(t0).\n",
    );
    for i in 0..CHAIN {
        script.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    for k in 0..AUX_RULES {
        script.push_str(&format!(
            "aux{k}(X, Z) :- sparse(X, A), sparse(A, B), sparse(B, C), \
             sparse(C, D), sparse(D, E), sparse(E, Z).\n"
        ));
    }
    let durable = DurabilityOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every_ops: None,
    };
    let mut fresh_dir = {
        let mut n = 0u32;
        move || {
            n += 1;
            std::env::temp_dir().join(format!("qdk-bench-conc-{}-{n}", std::process::id()))
        }
    };
    let q = Statement::Retrieve(Retrieve::new(parse_atom("path(X, Y)").unwrap(), vec![]));
    let rows = |a: Answer| a.into_data().unwrap().rows.len();
    let reader_opts = DescribeOptions::default();
    // One churn batch: replace the tick marker (size-stable EDB).
    let churn = |kb: &mut KnowledgeBase, i: u64| {
        let prev = parse_atom(&format!("tick(t{})", i - 1)).unwrap();
        let next = parse_atom(&format!("tick(t{i})")).unwrap();
        kb.transaction(|kb| {
            kb.retract_fact(&prev)?;
            kb.add_fact(&next).map(|_| ())
        })
        .unwrap();
    };

    println!(
        "## C1 — mixed read/write serving throughput, chain-{CHAIN} closure + {AUX_RULES} aux rules (median of 3 × 250ms slices)\n"
    );
    println!("| mode | readers | µs/query (aggregate) | queries/sec |");
    println!("|------|---------|----------------------|-------------|");
    for mode in ["locked", "snapshot"] {
        for readers in [1usize, 2, 4, 8] {
            let mut run_slice = || {
                let dir = fresh_dir();
                let queries = AtomicU64::new(0);
                let stop = AtomicBool::new(false);
                match mode {
                    "locked" => {
                        let mut kb = KnowledgeBase::open_durable_with(&dir, durable).unwrap();
                        kb.load(&script).unwrap();
                        let shared = Mutex::new(kb);
                        std::thread::scope(|s| {
                            s.spawn(|| {
                                let mut i = 0u64;
                                while !stop.load(Ordering::Relaxed) {
                                    i += 1;
                                    {
                                        let mut kb = shared.lock().unwrap();
                                        churn(&mut kb, i);
                                        // The pre-epoch cache model: every commit
                                        // dropped the compiled plan.
                                        kb.invalidate_plan();
                                    }
                                    std::thread::sleep(WRITE_PAUSE);
                                }
                            });
                            for _ in 0..readers {
                                s.spawn(|| {
                                    while !stop.load(Ordering::Relaxed) {
                                        let kb = shared.lock().unwrap();
                                        let a = kb
                                            .serve(&q, Strategy::SemiNaive, &reader_opts, None)
                                            .unwrap();
                                        assert_eq!(rows(a), EXPECTED_ROWS);
                                        queries.fetch_add(1, Ordering::Relaxed);
                                    }
                                });
                            }
                            std::thread::sleep(MEASURE);
                            stop.store(true, Ordering::Relaxed);
                        });
                    }
                    _ => {
                        let mut kb = KnowledgeBase::open_durable_with(&dir, durable).unwrap();
                        kb.load(&script).unwrap();
                        let mut publisher = Publisher::new(&mut kb).unwrap();
                        let cell = publisher.cell();
                        std::thread::scope(|s| {
                            // The writer owns the KB and publisher; it shares
                            // only the stop flag and the churn helper.
                            let (stop, churn) = (&stop, &churn);
                            s.spawn(move || {
                                let mut i = 0u64;
                                while !stop.load(Ordering::Relaxed) {
                                    i += 1;
                                    churn(&mut kb, i);
                                    publisher.publish(&mut kb).unwrap();
                                    std::thread::sleep(WRITE_PAUSE);
                                }
                            });
                            for _ in 0..readers {
                                s.spawn(|| {
                                    let (mut version, mut state) = cell.load();
                                    while !stop.load(Ordering::Relaxed) {
                                        cell.refresh(&mut version, &mut state);
                                        let a = state
                                            .kb
                                            .serve(
                                                &q,
                                                Strategy::SemiNaive,
                                                &reader_opts,
                                                Some(&state.plan),
                                            )
                                            .unwrap();
                                        assert_eq!(rows(a), EXPECTED_ROWS);
                                        queries.fetch_add(1, Ordering::Relaxed);
                                    }
                                });
                            }
                            std::thread::sleep(MEASURE);
                            stop.store(true, Ordering::Relaxed);
                        });
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
                queries.load(Ordering::Relaxed).max(1)
            };
            // Median of three slices: serving throughput on a shared 1-CPU
            // host is scheduling-sensitive, and the regression guard wants
            // a number that reproduces.
            let mut totals = [run_slice(), run_slice(), run_slice()];
            totals.sort_unstable();
            let total = totals[1];
            let us = MEASURE.as_secs_f64() * 1e6 / total as f64;
            let qps = total as f64 / MEASURE.as_secs_f64();
            println!("| {mode} | {readers} | {us:.1} | {qps:.0} |");
            records.push(json_record(&[
                ("section", json_str("c1_concurrency")),
                ("workload", json_str("chain8_wide_aux_tick_churn")),
                ("mode", json_str(mode)),
                ("readers", readers.to_string()),
                ("micros", format!("{us:.2}")),
                ("qps", format!("{qps:.0}")),
            ]));
        }
    }
    println!();
}

fn p2_sweeps(records: &mut Vec<String>) {
    println!("## P2a — describe latency vs rule-tower depth (fan-out 2)\n");
    println!("| depth | µs (median of 9) | theorems |");
    println!("|-------|------------------|----------|");
    for depth in [2usize, 4, 6, 8] {
        let idb = tower_idb(depth, 2);
        let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(depth));
        let opts = DescribeOptions::paper();
        let answers = describe::describe(&idb, &q, &opts).unwrap();
        let us = median_micros(9, || {
            describe::describe(&idb, &q, &opts).unwrap();
        });
        println!("| {depth} | {us:.0} | {} |", answers.len());
        records.push(json_record(&[
            ("section", json_str("p2_depth")),
            ("depth", depth.to_string()),
            ("fanout", "2".to_string()),
            ("micros", format!("{us:.1}")),
            ("theorems", answers.len().to_string()),
        ]));
    }
    println!();

    println!("## P2b — describe latency vs fan-out (depth 4)\n");
    println!("| fan-out | µs (median of 9) | theorems |");
    println!("|---------|------------------|----------|");
    for fanout in [1usize, 2, 3, 4] {
        let idb = tower_idb(4, fanout);
        let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(4));
        let opts = DescribeOptions::paper();
        let answers = describe::describe(&idb, &q, &opts).unwrap();
        let us = median_micros(9, || {
            describe::describe(&idb, &q, &opts).unwrap();
        });
        println!("| {fanout} | {us:.0} | {} |", answers.len());
        records.push(json_record(&[
            ("section", json_str("p2_fanout")),
            ("depth", "4".to_string()),
            ("fanout", fanout.to_string()),
            ("micros", format!("{us:.1}")),
            ("theorems", answers.len().to_string()),
        ]));
    }
    println!();
}

fn e6_family(records: &mut Vec<String>) {
    println!("## E6 — Algorithm 1's infinite answer family vs depth bound\n");
    println!("| max depth | answers | µs (median of 5) |");
    println!("|-----------|---------|------------------|");
    let idb = prior_idb();
    let q = Describe::new(
        parse_atom("prior(X, Y)").unwrap(),
        parse_body("prior(databases, Y)").unwrap(),
    );
    for depth in [4usize, 8, 12, 16] {
        let opts = DescribeOptions::paper().with_max_depth(depth);
        let answers = algo1::run_unchecked(&idb, &q, &opts).unwrap();
        let us = median_micros(5, || {
            algo1::run_unchecked(&idb, &q, &opts).unwrap();
        });
        println!("| {depth} | {} | {us:.0} |", answers.len());
        records.push(json_record(&[
            ("section", json_str("e6_algo1")),
            ("max_depth", depth.to_string()),
            ("micros", format!("{us:.1}")),
            ("answers", answers.len().to_string()),
        ]));
    }
    let opts2 = DescribeOptions::paper();
    let a2 = algo2::run(&idb, &q, &opts2).unwrap();
    let us2 = median_micros(9, || {
        algo2::run(&idb, &q, &opts2).unwrap();
    });
    println!("| Algorithm 2 | {} (finite) | {us2:.0} |", a2.len());
    records.push(json_record(&[
        ("section", json_str("e6_algo2")),
        ("micros", format!("{us2:.1}")),
        ("answers", a2.len().to_string()),
    ]));
    println!();
}

fn p3_policies(records: &mut Vec<String>) {
    println!("## P3 — Algorithm 2 transformation policies (E6 query)\n");
    println!("| policy | µs (median of 9) | answers |");
    println!("|--------|------------------|---------|");
    let idb = prior_idb();
    let q = Describe::new(
        parse_atom("prior(X, Y)").unwrap(),
        parse_body("prior(databases, Y)").unwrap(),
    );
    for (name, policy) in [
        ("modified", TransformPolicy::PreferModified),
        ("artificial", TransformPolicy::AlwaysArtificial),
    ] {
        let opts = DescribeOptions::paper().with_transform(policy);
        let answers = algo2::run(&idb, &q, &opts).unwrap();
        let us = median_micros(9, || {
            algo2::run(&idb, &q, &opts).unwrap();
        });
        println!("| {name} | {us:.0} | {} |", answers.len());
        records.push(json_record(&[
            ("section", json_str("p3_policies")),
            ("policy", json_str(name)),
            ("micros", format!("{us:.1}")),
            ("answers", answers.len().to_string()),
        ]));
    }
    println!();
}

fn ablations() {
    println!("## A1/A2 — ablations (answer counts)\n");
    let kb = university();
    let q = Describe::new(
        parse_atom("can_ta(X, databases)").unwrap(),
        parse_body("student(X, math, V), V > 3.7").unwrap(),
    );
    let idb = kb.idb().clone();
    let mut on = DescribeOptions::paper();
    let mut off = DescribeOptions::paper();
    off.simplify_comparisons = false;
    let a_on = describe::describe(&idb, &q, &on).unwrap();
    let a_off = describe::describe(&idb, &q, &off).unwrap();
    let body_comparisons = |a: &qdk_core::DescribeAnswer| {
        a.theorems
            .iter()
            .map(|t| t.rule.body.iter().filter(|l| l.is_builtin()).count())
            .sum::<usize>()
    };
    println!(
        "A1 comparison post-processing: on → {} theorems / {} body comparisons; off → {} / {}",
        a_on.len(),
        body_comparisons(&a_on),
        a_off.len(),
        body_comparisons(&a_off),
    );
    on.remove_redundant = false;
    let redundant = redundant_idb(12);
    let tq = Describe::new(parse_atom("p0(X)").unwrap(), vec![]);
    let dedup_on = describe::describe(&redundant, &tq, &DescribeOptions::paper()).unwrap();
    let dedup_off = describe::describe(&redundant, &tq, &on).unwrap();
    println!(
        "A2 redundancy elimination (12 threshold-shifted rules): on → {} theorem(s); off → {} theorems",
        dedup_on.len(),
        dedup_off.len(),
    );
    println!();
}

/// The durability costs: WAL ingest throughput under the bulk-load fsync
/// policy (`EveryN(64)`), and recovery-replay latency — the time
/// `open_durable` takes to rebuild the knowledge base from a pure WAL
/// (no checkpoint). Every run uses a fresh store directory; the rows are
/// identified by fact count, so they join the regression guard like any
/// other section.
fn w1_durability(records: &mut Vec<String>) {
    use qdk_durability::{DurabilityOptions, FsyncPolicy};
    use qdk_lang::KnowledgeBase;

    let opts = DurabilityOptions {
        fsync: FsyncPolicy::EveryN(64),
        checkpoint_every_ops: None,
    };
    let mut fresh_dir = {
        let mut n = 0u32;
        move || {
            n += 1;
            std::env::temp_dir().join(format!("qdk-bench-wal-{}-{n}", std::process::id()))
        }
    };
    let facts: Vec<String> = (0..1024usize)
        .map(|i| format!("edge(n{i}, n{}).", i + 1))
        .collect();

    println!("## W1a — WAL ingest, fsync EveryN(64), no checkpoints (median of 5)\n");
    println!("| facts | µs | facts/sec |");
    println!("|-------|----|-----------|");
    for n in [256usize, 1024] {
        let mut dirs = Vec::new();
        let us = median_micros(5, || {
            let dir = fresh_dir();
            let mut kb = KnowledgeBase::open_durable_with(&dir, opts).unwrap();
            kb.run("predicate edge(F, T).").unwrap();
            for f in &facts[..n] {
                kb.run(f).unwrap();
            }
            kb.sync().unwrap();
            dirs.push(dir);
        });
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
        let per_sec = n as f64 / (us / 1e6);
        println!("| {n} | {us:.0} | {per_sec:.0} |");
        records.push(json_record(&[
            ("section", json_str("w1_wal_ingest")),
            ("workload", json_str("chain_facts")),
            ("n", n.to_string()),
            ("fsync", json_str("every64")),
            ("micros", format!("{us:.1}")),
        ]));
    }
    println!();

    println!("## W1b — recovery replay from a pure WAL (median of 9)\n");
    println!("| logged ops | µs |");
    println!("|------------|----|");
    for n in [256usize, 1024] {
        let dir = fresh_dir();
        {
            let mut kb = KnowledgeBase::open_durable_with(&dir, opts).unwrap();
            kb.run("predicate edge(F, T).").unwrap();
            for f in &facts[..n] {
                kb.run(f).unwrap();
            }
            kb.sync().unwrap();
        }
        let us = median_micros(9, || {
            let kb = KnowledgeBase::open_durable_with(&dir, opts).unwrap();
            assert_eq!(kb.recovery_report().unwrap().replayed, n as u64 + 1);
        });
        std::fs::remove_dir_all(&dir).ok();
        println!("| {} | {us:.0} |", n + 1);
        records.push(json_record(&[
            ("section", json_str("w1_recovery_replay")),
            ("workload", json_str("chain_facts")),
            ("n", n.to_string()),
            ("micros", format!("{us:.1}")),
        ]));
    }
    println!();
}

/// Interleaved A/B medians: alternates `rounds` pairs of
/// `median_micros(runs, ..)` calls between the two closures and takes
/// the median of each side's round medians. Back-to-back blocks (31×A
/// then 31×B) let clock-speed drift on a shared host masquerade as
/// sink overhead — a 4–5% phantom was measured that way; interleaving
/// puts both sides in every thermal regime.
fn interleaved_medians(
    rounds: usize,
    runs: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let med = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        xs.push(median_micros(runs, &mut a));
        ys.push(median_micros(runs, &mut b));
    }
    (med(&mut xs), med(&mut ys))
}

/// The observability overhead guard: chain-128 semi-naive full closure
/// with the default disabled sink vs an installed [`NullSink`]. The
/// NullSink pays the full span/counter plumbing (clock reads, event
/// construction) but discards every event — its overhead is the cost of
/// *enabled* instrumentation, and the zero-cost claim for the *disabled*
/// default is that `baseline` equals the pre-observability engine. The
/// budget is ≤2% (DESIGN.md §12); measurements interleave in 3 rounds so
/// host drift cannot masquerade as overhead. The regression guard
/// compares the absolute medians, not the ratio — `overhead_pct` is a
/// derived, non-key field.
fn o1_obs_overhead(records: &mut Vec<String>) {
    println!(
        "## O1 — observability overhead, chain-128 semi-naive (µs, median of 3 × 11 interleaved)\n"
    );
    println!("| sink | µs | overhead |");
    println!("|------|----|----------|");
    let idb = prior_idb();
    let edb = chain_edb(128);
    let plan = ProgramPlan::compile(&idb);
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    let null_opts = EvalOptions::default().with_sink(ObsSink::new(Arc::new(NullSink)));
    let (baseline, with_null) = interleaved_medians(
        3,
        11,
        || {
            query::retrieve_compiled(
                &edb,
                &idb,
                &plan,
                &q,
                Strategy::SemiNaive,
                EvalOptions::default(),
            )
            .unwrap();
        },
        || {
            query::retrieve_compiled(
                &edb,
                &idb,
                &plan,
                &q,
                Strategy::SemiNaive,
                null_opts.clone(),
            )
            .unwrap();
        },
    );
    let overhead_pct = (with_null - baseline) / baseline * 100.0;
    println!("| disabled (default) | {baseline:.0} | — |");
    println!("| NullSink installed | {with_null:.0} | {overhead_pct:.2}% |");
    records.push(json_record(&[
        ("section", json_str("o1_null_sink_overhead")),
        ("workload", json_str("chain")),
        ("n", "128".to_string()),
        ("strategy", json_str("semi-naive")),
        ("baseline_micros", format!("{baseline:.1}")),
        ("null_sink_micros", format!("{with_null:.1}")),
        ("overhead_pct", format!("{overhead_pct:.2}")),
    ]));
    println!();
}

/// The metrics-aggregation overhead guard: the same chain-128 semi-naive
/// closure with a live [`qdk_logic::metrics::MetricsSink`] — every span and counter lands in
/// sharded atomics and latency histograms — vs the disabled default. This
/// is the steady-state cost a long-running serving KB pays for
/// `enable_metrics()`; the budget is ≤3% (DESIGN.md §17). Interleaved
/// like O1, and guarded through the absolute medians.
fn o2_metrics_overhead(records: &mut Vec<String>) {
    use qdk_logic::metrics::{MetricsHub, MetricsSink};

    println!("## O2 — metrics aggregation overhead, chain-128 semi-naive (µs, median of 3 × 11 interleaved)\n");
    println!("| sink | µs | overhead |");
    println!("|------|----|----------|");
    let idb = prior_idb();
    let edb = chain_edb(128);
    let plan = ProgramPlan::compile(&idb);
    let q = Retrieve::new(parse_atom("prior(X, Y)").unwrap(), vec![]);
    let hub = Arc::new(MetricsHub::new());
    let metrics_opts = EvalOptions::default()
        .with_sink(ObsSink::new(Arc::new(MetricsSink::new(Arc::clone(&hub)))));
    let (baseline, with_metrics) = interleaved_medians(
        3,
        11,
        || {
            query::retrieve_compiled(
                &edb,
                &idb,
                &plan,
                &q,
                Strategy::SemiNaive,
                EvalOptions::default(),
            )
            .unwrap();
        },
        || {
            query::retrieve_compiled(
                &edb,
                &idb,
                &plan,
                &q,
                Strategy::SemiNaive,
                metrics_opts.clone(),
            )
            .unwrap();
        },
    );
    let overhead_pct = (with_metrics - baseline) / baseline * 100.0;
    println!("| disabled (default) | {baseline:.0} | — |");
    println!("| MetricsSink live | {with_metrics:.0} | {overhead_pct:.2}% |");
    records.push(json_record(&[
        ("section", json_str("o2_metrics_sink_overhead")),
        ("workload", json_str("chain")),
        ("n", "128".to_string()),
        ("strategy", json_str("semi-naive")),
        ("baseline_micros", format!("{baseline:.1}")),
        ("metrics_micros", format!("{with_metrics:.1}")),
        ("overhead_pct", format!("{overhead_pct:.2}")),
    ]));
    println!();
}

/// Incremental view maintenance vs full recomputation under fact churn:
/// the chain-128 closure served through the `KnowledgeBase`, with a
/// retract / query / reinsert / query cycle on the tail edge. The
/// `maintained` mode has the maintained store live — the retract runs
/// delete-and-rederive, the insert propagates a semi-naive delta, and
/// both queries project the maintained state without a fixpoint. The
/// `recompute` mode serves the identical churn the pre-maintenance way:
/// every query re-runs the full semi-naive fixpoint (compiled plan
/// cached — only the evaluation repeats). Both modes assert the full
/// closure row counts on every query, so the speedup is never bought
/// with wrong answers.
fn m1_churn(records: &mut Vec<String>) {
    use qdk_lang::ast::Statement;
    use qdk_lang::KnowledgeBase;

    const N: usize = 128;
    const FULL_ROWS: usize = N * (N + 1) / 2;
    const CUT_ROWS: usize = (N - 1) * N / 2;

    let mut script = String::from(
        "predicate edge(F, T).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).\n",
    );
    for i in 0..N {
        script.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    let q = Statement::Retrieve(Retrieve::new(parse_atom("path(X, Y)").unwrap(), vec![]));
    let rows = |kb: &KnowledgeBase| kb.query(&q).unwrap().into_data().unwrap().rows.len();
    let cut = parse_atom(&format!("edge(n{}, n{N})", N - 1)).unwrap();

    println!(
        "## M1 — fact churn at chain-{N}: retract tail edge, query, reinsert, query (µs per cycle, median of 5)\n"
    );
    println!("| mode | µs/cycle | speedup |");
    println!("|------|----------|---------|");
    let cycle_us = |maintained: bool| {
        let mut kb = KnowledgeBase::new();
        kb.load(&script).unwrap();
        if maintained {
            kb.materialize_maintained().unwrap();
        }
        median_micros(5, || {
            kb.retract_fact(&cut).unwrap();
            assert_eq!(rows(&kb), CUT_ROWS);
            kb.add_fact(&cut).unwrap();
            assert_eq!(rows(&kb), FULL_ROWS);
        })
    };
    let maintained = cycle_us(true);
    let recompute = cycle_us(false);
    let speedup = recompute / maintained;
    println!("| maintained | {maintained:.0} | {speedup:.1}x |");
    println!("| recompute | {recompute:.0} | — |");
    for (mode, us) in [("maintained", maintained), ("recompute", recompute)] {
        let mut fields = vec![
            ("section", json_str("m1_churn")),
            ("workload", json_str("chain_tail_churn")),
            ("n", N.to_string()),
            ("mode", json_str(mode)),
            ("micros", format!("{us:.1}")),
        ];
        if mode == "maintained" {
            fields.push(("speedup", format!("{speedup:.2}")));
        }
        records.push(json_record(&fields));
    }
    println!();
}

/// Fields that are *measurements* (compared under tolerance); everything
/// else except `run_id` identifies the row.
const MEASUREMENTS: [&str; 6] = [
    "micros",
    "per_call_micros",
    "cached_micros",
    "baseline_micros",
    "null_sink_micros",
    "metrics_micros",
];

/// Fields that are neither measurements nor identity (derived ratios,
/// per-invocation tags).
const NON_KEY: [&str; 4] = ["run_id", "overhead_pct", "qps", "speedup"];

/// Parses the flat series rows this binary writes: one `{...}` object per
/// line, fields separated by `", "`, values either quoted identifiers or
/// bare numbers (no value ever contains a comma).
fn parse_records(json: &str) -> Vec<Vec<(String, String)>> {
    json.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') {
                return None;
            }
            let body = line.trim_start_matches('{').trim_end_matches('}');
            let fields: Vec<(String, String)> = body
                .split(", ")
                .filter_map(|f| {
                    let (k, v) = f.split_once(": ")?;
                    Some((
                        k.trim_matches('"').to_string(),
                        v.trim_matches('"').to_string(),
                    ))
                })
                .collect();
            if fields.is_empty() {
                None
            } else {
                Some(fields)
            }
        })
        .collect()
}

/// The identity of a row: every non-measurement field, sorted, rendered
/// as `k=v` pairs.
fn row_key(fields: &[(String, String)]) -> String {
    let mut parts: Vec<String> = fields
        .iter()
        .filter(|(k, _)| !MEASUREMENTS.contains(&k.as_str()) && !NON_KEY.contains(&k.as_str()))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    parts.sort();
    parts.join(" ")
}

fn row_measurements(fields: &[(String, String)]) -> Vec<(String, f64)> {
    fields
        .iter()
        .filter(|(k, _)| MEASUREMENTS.contains(&k.as_str()))
        .filter_map(|(k, v)| v.parse().ok().map(|n| (k.clone(), n)))
        .collect()
}

/// Compares fresh rows against a committed baseline file; any fresh
/// median more than `TOLERANCE_PCT` slower than its baseline counterpart
/// is a suspect. Returns `(compared, suspects)` where each suspect is
/// identified by `label / row key / measurement field`.
fn check_against(
    fresh: &[String],
    baseline_path: &str,
    label: &str,
) -> (usize, Vec<(String, String)>) {
    const TOLERANCE_PCT: f64 = 25.0;
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("warning: no baseline at {baseline_path}; skipping {label}");
        return (0, Vec::new());
    };
    let baseline: std::collections::HashMap<String, Vec<(String, f64)>> = parse_records(&text)
        .iter()
        .map(|f| (row_key(f), row_measurements(f)))
        .collect();
    let (mut compared, mut missing) = (0usize, 0usize);
    let mut suspects = Vec::new();
    for rendered in fresh {
        let fields = match parse_records(rendered).pop() {
            Some(f) => f,
            None => continue,
        };
        let key = row_key(&fields);
        let Some(base) = baseline.get(&key) else {
            missing += 1;
            continue;
        };
        for (field, now) in row_measurements(&fields) {
            let Some((_, was)) = base.iter().find(|(k, _)| *k == field) else {
                continue;
            };
            compared += 1;
            let pct = (now - was) / was * 100.0;
            if pct > TOLERANCE_PCT {
                eprintln!("regression? [{label}] {key} {field}: {was:.1} -> {now:.1} (+{pct:.0}%)");
                suspects.push((format!("{label} / {key}"), field));
            }
        }
    }
    eprintln!(
        "{label}: {compared} measurement(s) compared, {} over tolerance, \
         {missing} fresh row(s) without a baseline",
        suspects.len()
    );
    (compared, suspects)
}

/// The rows every artifact-feeding section produced, one `Vec` per file.
struct SectionRows {
    retrieve: Vec<String>,
    describe: Vec<String>,
    wal: Vec<String>,
    concurrency: Vec<String>,
    churn: Vec<String>,
    obs: Vec<String>,
}

/// Runs every section that feeds the checked artifacts.
fn checked_sections() -> SectionRows {
    let mut rows = SectionRows {
        retrieve: Vec::new(),
        describe: Vec::new(),
        wal: Vec::new(),
        concurrency: Vec::new(),
        churn: Vec::new(),
        obs: Vec::new(),
    };
    p1_full_closure(&mut rows.retrieve);
    p1_bound_query(&mut rows.retrieve);
    j1_join_heavy(&mut rows.retrieve);
    compiled_vs_percall(&mut rows.retrieve);
    t1_retrieve_threads(&mut rows.retrieve);
    p2_sweeps(&mut rows.describe);
    t2_describe_threads(&mut rows.describe);
    e6_family(&mut rows.describe);
    p3_policies(&mut rows.describe);
    w1_durability(&mut rows.wal);
    c1_concurrency(&mut rows.concurrency);
    m1_churn(&mut rows.churn);
    o1_obs_overhead(&mut rows.obs);
    o2_metrics_overhead(&mut rows.obs);
    rows
}

/// One full measure-and-compare pass. Returns `(compared, suspects)`
/// across every artifact, or exits when there is nothing to compare.
fn check_pass(base: &str) -> (usize, Vec<(String, String)>) {
    let rows = checked_sections();
    let (cr, mut suspects) =
        check_against(&rows.retrieve, &format!("{base}/retrieve.json"), "retrieve");
    let (cd, sd) = check_against(&rows.describe, &format!("{base}/describe.json"), "describe");
    let (cw, sw) = check_against(&rows.wal, &format!("{base}/wal.json"), "wal");
    let (cc, sc) = check_against(
        &rows.concurrency,
        &format!("{base}/concurrency.json"),
        "concurrency",
    );
    let (cm, sm) = check_against(&rows.churn, &format!("{base}/churn.json"), "churn");
    let (co, so) = check_against(&rows.obs, &format!("{base}/obs.json"), "obs");
    suspects.extend(sd);
    suspects.extend(sw);
    suspects.extend(sc);
    suspects.extend(sm);
    suspects.extend(so);
    (cr + cd + cw + cc + cm + co, suspects)
}

/// The `--check` regression guard: medians within a 25% tolerance band of
/// the committed baselines pass. Direct medians on a busy box are noisy,
/// so a row only *fails* the check when it exceeds tolerance in two
/// independent measurement passes — a real regression reproduces, noise
/// does not.
fn run_check() {
    let base = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
    let (compared, suspects) = check_pass(base);
    if compared == 0 {
        eprintln!("error: --check compared nothing (missing or empty baselines)");
        std::process::exit(2);
    }
    if suspects.is_empty() {
        eprintln!("bench check passed: no median more than 25% over baseline");
        return;
    }
    eprintln!(
        "\nre-measuring to confirm {} suspect(s)...\n",
        suspects.len()
    );
    let (_, second) = check_pass(base);
    let confirmed: Vec<&(String, String)> =
        suspects.iter().filter(|s| second.contains(s)).collect();
    if confirmed.is_empty() {
        eprintln!("bench check passed: no suspect reproduced on re-measurement");
        return;
    }
    for (row, field) in &confirmed {
        eprintln!("REGRESSION (reproduced twice): {row} {field}");
    }
    eprintln!(
        "bench check FAILED: {} regression(s) beyond 25% in both passes",
        confirmed.len()
    );
    std::process::exit(1);
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    println!("# Experiment report (direct timings; see cargo bench for full statistics)\n");
    let run_id = format!(
        "{:x}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    );
    if check_mode {
        run_check();
        return;
    }
    let rows = checked_sections();
    ablations();
    write_json("BENCH_retrieve.json", &rows.retrieve, &run_id);
    write_json("BENCH_describe.json", &rows.describe, &run_id);
    write_json("BENCH_obs.json", &rows.obs, &run_id);
    write_json("BENCH_wal.json", &rows.wal, &run_id);
    write_json("BENCH_concurrency.json", &rows.concurrency, &run_id);
    write_json("BENCH_churn.json", &rows.churn, &run_id);
}
