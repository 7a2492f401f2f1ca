//! Property tests pinning the index structures to the one thing they must
//! never get wrong: a probe answers exactly what a full scan answers.
//!
//! A random interleaving of `insert` / `remove` / `clear` exercises every
//! maintenance path (append to built indexes, renumbering on compaction,
//! reset), then single-column probes and multi-column `probe_cols` are
//! each checked against a filtered scan of the same relation. The access-path counters are checked for
//! monotonicity along the way — they only move forward, except at
//! `clear`, which documents a reset to zero.
//!
//! A second property pins the storage model itself: under random
//! interleavings of `insert` / `remove` / `remove_batch` / `clone`,
//! applied to the original and to its clones alike,
//! every live relation equals a plain `Vec<Tuple>` model in iteration
//! order (removal filters, re-insertion appends) — stable row ids,
//! tombstones and compaction must never show through — a third does the
//! same for column indexes first built late, after compaction or on a
//! clone, and a fourth bounds what a write after a clone copies.
//!
//! The last two pin the per-column distinct-value estimate the cost model
//! reads: a measurement of at most 1 024 live rows is an exact count, and
//! a relation is measured again only once its live row count has doubled
//! or halved.

use proptest::prelude::*;
use qdk_storage::{Relation, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

const ARITY: usize = 3;

/// Values come from a deliberately tiny pool so removes hit, inserts
/// collide, and index buckets hold several rows.
fn v(n: i64) -> Value {
    Value::Int(n)
}

#[derive(Clone, Debug)]
enum Op {
    Insert([i64; ARITY]),
    Remove([i64; ARITY]),
    Clear,
}

fn arb_vals() -> impl Strategy<Value = [i64; ARITY]> {
    (0i64..3, 0i64..3, 0i64..3).prop_map(|(a, b, c)| [a, b, c])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_vals().prop_map(Op::Insert),
        2 => arb_vals().prop_map(Op::Remove),
        1 => Just(Op::Clear),
    ]
}

fn tuple(vals: &[i64; ARITY]) -> Tuple {
    Tuple::new(vals.iter().map(|&n| v(n)).collect())
}

/// The reference answer: tuples matching every `(col, value)` equality,
/// found by scanning everything.
fn scan_filter(rel: &Relation, pattern: &[(usize, Value)]) -> Vec<Tuple> {
    rel.iter()
        .filter(|t| pattern.iter().all(|(c, pv)| t.get(*c) == Some(pv)))
        .cloned()
        .collect()
}

/// Resolves probe ids through `tuple_at`, preserving id order.
fn resolve(rel: &Relation, ids: &[u32]) -> Vec<Tuple> {
    ids.iter().map(|&id| rel.tuple_at(id).clone()).collect()
}

/// Counter snapshot used for the monotonicity checks. Reading these does
/// not itself probe anything.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Counters {
    probes: u64,
    scans: u64,
}

impl Counters {
    fn of(rel: &Relation) -> Self {
        Counters {
            probes: rel.index_probes(),
            scans: rel.full_scans(),
        }
    }

    fn at_least(self, prev: Counters) -> bool {
        self.probes >= prev.probes && self.scans >= prev.scans
    }
}

/// Every probe path must agree with the scan on the relation's current
/// contents, for every value in the pool (present or absent).
fn check_probes_match_scan(rel: &Relation) -> Result<(), TestCaseError> {
    // Single-column probes, all columns, all pool values (plus one value
    // that never occurs, which must probe to the empty set).
    for col in 0..ARITY {
        for n in 0..4i64 {
            let key = v(n);
            let probed = resolve(rel, rel.probe(col, &key));
            let scanned = scan_filter(rel, &[(col, key)]);
            prop_assert_eq!(&probed, &scanned, "single-column probe col={} v={}", col, n);
        }
    }
    // Multi-column probes over every ascending column pair and the full
    // triple.
    let col_sets: [&[usize]; 4] = [&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
    for cols in col_sets {
        for a in 0..3i64 {
            for b in 0..3i64 {
                let vals: Vec<Value> = match cols.len() {
                    2 => vec![v(a), v(b)],
                    _ => vec![v(a), v(b), v((a + b) % 3)],
                };
                let pattern: Vec<(usize, Value)> =
                    cols.iter().copied().zip(vals.iter().cloned()).collect();
                let scanned = scan_filter(rel, &pattern);
                let borrowed: Vec<(usize, &Value)> =
                    cols.iter().copied().zip(vals.iter()).collect();
                let routed = resolve(rel, &rel.probe_cols(&borrowed));
                prop_assert_eq!(&routed, &scanned, "probe_cols cols={:?}", cols);
            }
        }
    }
    Ok(())
}

proptest! {
    /// After any interleaving of mutations, probes ≡ scans and the
    /// counters never move backwards between observations (clear resets
    /// them to zero, which is part of its contract).
    #[test]
    fn probes_agree_with_scans_after_random_mutations(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut rel = Relation::new("p", ARITY);
        // Build two columns up front so the op sequence exercises
        // maintenance of built indexes — not just build-on-probe.
        rel.probe(0, &v(0));
        rel.probe(1, &v(0));

        let mut prev = Counters::of(&rel);
        for op in &ops {
            match op {
                Op::Insert(vals) => {
                    rel.insert(tuple(vals)).expect("arity matches");
                }
                Op::Remove(vals) => {
                    rel.remove(&tuple(vals));
                }
                Op::Clear => rel.clear(),
            }
            let now = Counters::of(&rel);
            if matches!(op, Op::Clear) {
                prop_assert_eq!(
                    now,
                    Counters { probes: 0, scans: 0 },
                    "clear resets every counter"
                );
            } else {
                prop_assert!(
                    now.at_least(prev),
                    "counters went backwards across {:?}: {:?} -> {:?}",
                    op, prev, now
                );
            }
            prev = now;
        }

        check_probes_match_scan(&rel)?;

        // The checks above probed heavily; the meters must have seen it.
        let after = Counters::of(&rel);
        prop_assert!(after.at_least(prev), "probe checks decreased a counter");
        prop_assert!(after.probes > prev.probes, "probes were metered");

        // Counters survive a remove (they meter access paths, not
        // contents): rebuild-on-remove must carry probe counts over.
        let first = rel.iter().next().cloned();
        if let Some(t) = first {
            rel.remove(&t);
            prop_assert!(
                Counters::of(&rel).at_least(after),
                "remove dropped a counter during index rebuild"
            );
        }
    }
}

/// One step of the storage-model property: a mutation aimed at one of the
/// live relations (`target` is reduced modulo their count).
#[derive(Clone, Debug)]
enum ModelOp {
    Insert(usize, [i64; ARITY]),
    Remove(usize, [i64; ARITY]),
    RemoveBatch(usize, Vec<[i64; ARITY]>),
    Clone(usize),
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        6 => (0usize..8, arb_vals()).prop_map(|(i, v)| ModelOp::Insert(i, v)),
        3 => (0usize..8, arb_vals()).prop_map(|(i, v)| ModelOp::Remove(i, v)),
        1 => (0usize..8, proptest::collection::vec(arb_vals(), 1..6))
            .prop_map(|(i, vs)| ModelOp::RemoveBatch(i, vs)),
        1 => (0usize..8).prop_map(ModelOp::Clone),
    ]
}

/// The relation must read back exactly as its model: same rows, same
/// order, same length, and every live id resolves to the row at its
/// position.
fn check_model(rel: &Relation, model: &[Tuple]) -> Result<(), TestCaseError> {
    let rows: Vec<Tuple> = rel.iter().cloned().collect();
    prop_assert_eq!(&rows, &model.to_vec(), "iteration order");
    prop_assert_eq!(rel.len(), model.len());
    prop_assert!(rel.high_water() >= rel.len(), "high-water mark below len");
    let by_id = resolve(rel, &rel.probe_cols(&[]));
    prop_assert_eq!(&by_id, &model.to_vec(), "live ids in order");
    for t in model {
        prop_assert!(rel.contains(t), "model row {} not contained", t);
    }
    Ok(())
}

proptest! {
    /// Clones are snapshots and the original is a snapshot of its clones:
    /// whichever side a write lands on, every live relation stays equal
    /// to its own `Vec<Tuple>` model, and its probes to its scans.
    #[test]
    fn clones_match_a_vec_model_under_random_interleavings(
        ops in proptest::collection::vec(arb_model_op(), 1..120),
    ) {
        let mut live: Vec<(Relation, Vec<Tuple>)> = vec![(Relation::new("p", ARITY), Vec::new())];
        for op in &ops {
            let n = live.len();
            match op {
                ModelOp::Insert(i, vals) => {
                    let (rel, model) = &mut live[i % n];
                    let t = tuple(vals);
                    let fresh = !model.contains(&t);
                    prop_assert_eq!(rel.insert(t.clone()).expect("arity matches"), fresh);
                    if fresh {
                        model.push(t);
                    }
                }
                ModelOp::Remove(i, vals) => {
                    let (rel, model) = &mut live[i % n];
                    let t = tuple(vals);
                    let present = model.contains(&t);
                    prop_assert_eq!(rel.remove(&t), present);
                    model.retain(|m| *m != t);
                }
                ModelOp::RemoveBatch(i, batch) => {
                    let (rel, model) = &mut live[i % n];
                    let batch: Vec<Tuple> = batch.iter().map(tuple).collect();
                    let hits = model.iter().filter(|m| batch.contains(m)).count();
                    prop_assert_eq!(rel.remove_batch(batch.iter()), hits);
                    model.retain(|m| !batch.contains(m));
                }
                ModelOp::Clone(i) => {
                    if n < 6 {
                        let (rel, model) = &live[i % n];
                        let copy = (rel.clone(), model.clone());
                        live.push(copy);
                    }
                }
            }
            for (rel, model) in &live {
                check_model(rel, model)?;
            }
        }
        for (rel, _) in &live {
            check_probes_match_scan(rel)?;
        }
    }
}

#[derive(Clone, Debug)]
enum LazyOp {
    Insert(usize, [i64; ARITY]),
    RemoveBatch(usize, Vec<[i64; ARITY]>),
    Clear(usize),
    Clone(usize),
    Probe(usize, usize, i64),
}

fn arb_lazy_op() -> impl Strategy<Value = LazyOp> {
    prop_oneof![
        6 => (0usize..8, arb_vals()).prop_map(|(i, v)| LazyOp::Insert(i, v)),
        2 => (0usize..8, proptest::collection::vec(arb_vals(), 1..12))
            .prop_map(|(i, vs)| LazyOp::RemoveBatch(i, vs)),
        1 => (0usize..8).prop_map(LazyOp::Clear),
        1 => (0usize..8).prop_map(LazyOp::Clone),
        3 => (0usize..8, 0usize..ARITY, 0i64..4).prop_map(|(i, c, n)| LazyOp::Probe(i, c, n)),
    ]
}

/// A single-column probe must return exactly the live ids, ascending, of
/// the model rows carrying `n` in column `col`. The live ids come from the
/// id-ordered scan, which no column index serves.
fn check_probe(rel: &Relation, model: &[Tuple], col: usize, n: i64) -> Result<(), TestCaseError> {
    let live = rel.probe_cols(&[]);
    prop_assert_eq!(live.len(), model.len());
    let want: Vec<u32> = live
        .iter()
        .zip(model)
        .filter(|(_, t)| t.get(col) == Some(&v(n)))
        .map(|(&id, _)| id)
        .collect();
    prop_assert_eq!(
        rel.probe(col, &v(n)),
        &want[..],
        "probe col={} v={}",
        col,
        n
    );
    Ok(())
}

proptest! {
    /// Column indexes are built on first probe, and a late build must be
    /// indistinguishable from an index kept since the first insert: under
    /// random inserts, batch removals (which compact once tombstones
    /// dominate), clears and clones, probes of random columns at random
    /// points — so indexes are first built late, after compaction, or on
    /// a clone — always equal the model's ascending ids. Exactly the
    /// columns probed since the last clear are indexed; clones inherit
    /// their original's.
    #[test]
    fn lazily_built_column_indexes_match_a_vec_model(
        ops in proptest::collection::vec(arb_lazy_op(), 1..120),
    ) {
        // (relation, model, columns probed since the last clear)
        let mut live: Vec<(Relation, Vec<Tuple>, Vec<usize>)> =
            vec![(Relation::new("p", ARITY), Vec::new(), Vec::new())];
        for op in &ops {
            let n = live.len();
            match op {
                LazyOp::Insert(i, vals) => {
                    let (rel, model, _) = &mut live[i % n];
                    let t = tuple(vals);
                    let fresh = !model.contains(&t);
                    prop_assert_eq!(rel.insert(t.clone()).expect("arity matches"), fresh);
                    if fresh {
                        model.push(t);
                    }
                }
                LazyOp::RemoveBatch(i, batch) => {
                    let (rel, model, _) = &mut live[i % n];
                    let batch: Vec<Tuple> = batch.iter().map(tuple).collect();
                    let hits = model.iter().filter(|m| batch.contains(m)).count();
                    prop_assert_eq!(rel.remove_batch(batch.iter()), hits);
                    model.retain(|m| !batch.contains(m));
                }
                LazyOp::Clear(i) => {
                    let (rel, model, probed) = &mut live[i % n];
                    rel.clear();
                    model.clear();
                    probed.clear();
                }
                LazyOp::Clone(i) => {
                    if n < 6 {
                        let (rel, model, probed) = &live[i % n];
                        let copy = (rel.clone(), model.clone(), probed.clone());
                        live.push(copy);
                    }
                }
                LazyOp::Probe(i, col, val) => {
                    let (rel, model, probed) = &mut live[i % n];
                    check_probe(rel, model, *col, *val)?;
                    if !probed.contains(col) {
                        probed.push(*col);
                        probed.sort_unstable();
                    }
                }
            }
            for (rel, model, probed) in &live {
                check_model(rel, model)?;
                prop_assert_eq!(&rel.indexed_columns(), probed, "indexed columns");
            }
        }
        for (rel, model, _) in &live {
            for col in 0..ARITY {
                for val in 0..4 {
                    check_probe(rel, model, col, val)?;
                }
            }
        }
    }
}

proptest! {
    // Each case builds a 3 000-row relation: a dozen cases cover the
    // write mixes without dominating the suite's run time.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A write after a clone copies what it touches, not the relation:
    /// after k single-row writes, at most a constant number of pieces per
    /// write (a segment or tombstone bitmap, one presence shard, one shard
    /// per column) differ from the clone's.
    #[test]
    fn a_write_after_a_clone_copies_at_most_a_few_pieces_per_write(
        writes in proptest::collection::vec((0u8..2, 0usize..3_000), 1..40),
    ) {
        let row = |k: i64| Tuple::new(vec![v(k), v(k % 40), v(k % 7)]);
        let mut rel = Relation::new("p", ARITY);
        for k in 0..3_000 {
            rel.insert(row(k)).expect("arity matches");
        }
        for c in 0..ARITY {
            rel.probe(c, &v(0));
        }
        let snap = rel.clone();
        prop_assert_eq!(rel.unshared_pieces(&snap), 0);
        for (j, &(kind, k)) in writes.iter().enumerate() {
            if kind == 0 {
                rel.insert(row(3_000 + j as i64)).expect("arity matches");
            } else {
                rel.remove(&row(k as i64));
            }
        }
        let per_write = 2 + ARITY;
        let copied = rel.unshared_pieces(&snap);
        prop_assert!(
            copied <= per_write * writes.len(),
            "{} pieces copied by {} writes", copied, writes.len()
        );
        prop_assert_eq!(snap.len(), 3_000);
    }
}

/// The exact number of distinct values in each column.
fn distinct_counts(rel: &Relation) -> Vec<u32> {
    (0..rel.arity())
        .map(|c| {
            let values: BTreeSet<String> = rel.iter().map(|t| t.values()[c].to_string()).collect();
            values.len() as u32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Asked after every write of a random insert / remove / clear run
    /// that stays at or below 1 024 live rows, the estimate is measured
    /// again exactly when the write left the live row count at twice or
    /// at most half the count of the last measurement, and every
    /// measurement equals a `BTreeSet` count per column.
    #[test]
    fn a_measurement_at_or_below_1024_rows_is_an_exact_count(
        ops in proptest::collection::vec(
            prop_oneof![
                12 => (0i64..400, 0i64..40, 0i64..3).prop_map(|(a, b, c)| Op::Insert([a, b, c])),
                6 => (0i64..400, 0i64..40, 0i64..3).prop_map(|(a, b, c)| Op::Remove([a, b, c])),
                1 => Just(Op::Clear),
            ],
            1..1_200,
        ),
    ) {
        let mut rel = Relation::new("p", ARITY);
        let mut last = rel.distinct();
        let mut at = 0;
        prop_assert_eq!(&*last, &[0, 0, 0][..]);
        for op in &ops {
            let wrote = match op {
                Op::Insert(vals) => rel.insert(tuple(vals)).expect("arity matches"),
                Op::Remove(vals) => rel.remove(&tuple(vals)),
                Op::Clear => {
                    rel.clear();
                    true
                }
            };
            prop_assert!(rel.len() <= 1_024);
            let n = rel.len();
            let d = rel.distinct();
            let fresh = !Arc::ptr_eq(&d, &last);
            prop_assert_eq!(fresh, wrote && (n >= 2 * at || 2 * n <= at), "{:?} at {} rows", op, n);
            if fresh {
                prop_assert_eq!(&*d, &distinct_counts(&rel)[..], "{:?} at {} rows", op, n);
                at = n;
                last = d;
            }
        }
    }
}

/// A relation grown from empty to 10⁴ rows, asked for its estimate after
/// every insert, is measured once per doubling: at 0, 1, 2, 4, …, 8 192
/// rows. Steady churn at that size — one insert and one remove, 10⁴ times
/// — measures it never again. Above 1 024 rows a measurement reads a
/// 1 024-row sample, and GEE's error stays within its `√(n/r)` factor of
/// the true count.
#[test]
fn distinct_estimates_are_measured_once_per_doubling_and_never_under_churn() {
    let row = |k: i64| Tuple::new(vec![v(k), v(k % 97), v(k % 3)]);
    let mut rel = Relation::new("p", ARITY);
    let mut last = rel.distinct();
    let mut measured = 1;
    for k in 0..10_000 {
        rel.insert(row(k)).expect("arity matches");
        let d = rel.distinct();
        if !Arc::ptr_eq(&d, &last) {
            measured += 1;
            last = d;
        }
    }
    assert_eq!(measured, 15);
    // Measured at 8 192 rows from every eighth row: the unique column's
    // sample holds 1 024 singletons, scaled by √(8192/1024): the truth
    // divided by √8, GEE's worst case. The other columns' values recur.
    assert_eq!(&*last, &[2_896, 97, 3][..]);
    for k in 0..10_000 {
        rel.insert(row(10_000 + k)).expect("arity matches");
        assert!(rel.remove(&row(k)));
        assert!(
            Arc::ptr_eq(&rel.distinct(), &last),
            "re-measured at churn step {k}"
        );
    }
    // Halving is a write like any other: it measures again.
    let doomed: Vec<Tuple> = rel.iter().take(5_904).cloned().collect();
    rel.remove_batch(&doomed);
    assert_eq!(rel.len(), 4_096);
    assert!(!Arc::ptr_eq(&rel.distinct(), &last));
}
