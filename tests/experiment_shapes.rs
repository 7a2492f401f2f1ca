//! The exact answer counts behind EXPERIMENTS.md's "Performance series".
//! The timings in that table are historical and the `benchmark/` package
//! measures the live ones; the counts are claims about what the engine
//! computes, so they are asserted here, one test per row: P2a/P2b
//! (describe theorems over rule towers), E6d (Algorithm 1's unbounded
//! family against Algorithm 2's finite answer), P3 (Algorithm 2's two
//! transformation policies), and the A1/A2 ablations.

use qdk::core::{
    algo1, algo2, describe, Describe, DescribeAnswer, DescribeOptions, TransformPolicy,
};
use qdk::engine::Idb;
use qdk::logic::parser::{parse_atom, parse_body, parse_program};
use qdk::logic::{Atom, Rule, Term};

/// A non-recursive rule tower of the given `depth` and `fanout`:
/// `p0(X) ← p1(X) ∧ e0(X)`, …, with `fanout` alternative rules per level
/// and EDB leaves `e{level}` plus a comparison at the bottom. Derivation
/// trees for `describe p0(X)` grow with both parameters — the P2 sweep.
pub fn tower_idb(depth: usize, fanout: usize) -> Idb {
    let mut idb = Idb::new();
    for level in 0..depth {
        for alt in 0..fanout {
            let head = Atom::new(format!("p{level}").as_str(), vec![Term::var("X")]);
            let mut body = vec![Atom::new(
                format!("e{level}_{alt}").as_str(),
                vec![Term::var("X"), Term::var("V")],
            )];
            if level + 1 < depth {
                body.insert(
                    0,
                    Atom::new(format!("p{}", level + 1).as_str(), vec![Term::var("X")]),
                );
            } else {
                body.push(Atom::new(">", vec![Term::var("V"), Term::num(3.7)]));
            }
            idb.add_rule(Rule::new(head, body)).unwrap();
        }
    }
    idb
}

/// A hypothesis that identifies at the bottom of the tower: the level-
/// `depth-1`, alternative-0 EDB atom.
pub fn tower_hypothesis(depth: usize) -> Vec<qdk_logic::Literal> {
    qdk_logic::parser::parse_body(&format!("e{}_0(X, V), V > 3.7", depth.saturating_sub(1)))
        .unwrap()
}

/// An IDB whose `describe p0(X)` answers are massively redundant: `n`
/// rules differing only in a comparison threshold, so comparison-aware
/// subsumption collapses them to the single weakest rule. The A2
/// ablation's workload.
pub fn redundant_idb(n: usize) -> Idb {
    let mut idb = Idb::new();
    for i in 0..n {
        idb.add_rule(Rule::new(
            Atom::new("p0", vec![Term::var("X")]),
            vec![
                Atom::new("e", vec![Term::var("X"), Term::var("V")]),
                Atom::new(">", vec![Term::var("V"), Term::int(i as i64)]),
            ],
        ))
        .unwrap();
    }
    idb
}

/// Theorems of `describe p0(X)` with the tower's bottom-level hypothesis.
fn tower_theorems(depth: usize, fanout: usize) -> usize {
    let q = Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(depth));
    describe::describe(&tower_idb(depth, fanout), &q, &DescribeOptions::paper())
        .unwrap()
        .len()
}

/// E6's query: `describe prior(X, Y) where prior(databases, Y)`.
fn e6() -> (Idb, Describe) {
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
    (idb, q)
}

#[test]
fn p2a_theorems_quadruple_every_two_levels_of_depth() {
    let theorems = [2, 4, 6, 8].map(|depth| tower_theorems(depth, 2));
    assert_eq!(theorems, [2, 8, 32, 128]);
}

#[test]
fn p2b_theorems_are_fanout_cubed_at_depth_four() {
    let theorems = [1, 2, 3, 4].map(|fanout| tower_theorems(4, fanout));
    assert_eq!(theorems, [1, 8, 27, 64]);
}

#[test]
fn e6d_algorithm1_grows_with_its_depth_bound_and_algorithm2_is_finite() {
    let (idb, q) = e6();
    let answers = [4, 8, 12, 16].map(|depth| {
        let opts = DescribeOptions::paper().with_max_depth(depth);
        algo1::run_unchecked(&idb, &q, &opts).unwrap().len()
    });
    assert_eq!(answers, [5, 9, 13, 17]);
    assert_eq!(
        algo2::run(&idb, &q, &DescribeOptions::paper())
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn p3_both_transformation_policies_give_two_answers() {
    let (idb, q) = e6();
    for policy in [
        TransformPolicy::PreferModified,
        TransformPolicy::AlwaysArtificial,
    ] {
        let opts = DescribeOptions::paper().with_transform(policy);
        assert_eq!(algo2::run(&idb, &q, &opts).unwrap().len(), 2, "{policy:?}");
    }
}

#[test]
fn a1_comparison_post_processing_drops_implied_comparisons() {
    let idb = qdk::datasets::university_extended().idb().clone();
    let q = Describe::new(
        parse_atom("can_ta(X, databases)").unwrap(),
        parse_body("student(X, math, V), V > 3.7").unwrap(),
    );
    let comparisons = |a: &DescribeAnswer| -> usize {
        a.theorems
            .iter()
            .map(|t| t.rule.body.iter().filter(|l| l.is_builtin()).count())
            .sum()
    };
    let on = describe::describe(&idb, &q, &DescribeOptions::paper()).unwrap();
    let mut off_opts = DescribeOptions::paper();
    off_opts.simplify_comparisons = false;
    let off = describe::describe(&idb, &q, &off_opts).unwrap();
    assert_eq!((on.len(), comparisons(&on)), (2, 1));
    assert_eq!((off.len(), comparisons(&off)), (2, 3));
}

#[test]
fn a2_redundancy_elimination_keeps_only_the_weakest_threshold() {
    let idb = redundant_idb(12);
    let q = Describe::new(parse_atom("p0(X)").unwrap(), vec![]);
    let on = describe::describe(&idb, &q, &DescribeOptions::paper()).unwrap();
    let mut off_opts = DescribeOptions::paper();
    off_opts.remove_redundant = false;
    let off = describe::describe(&idb, &q, &off_opts).unwrap();
    assert_eq!(on.len(), 1);
    assert_eq!(off.len(), 12);
}
