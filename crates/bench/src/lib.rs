//! Workload generators for the benchmark harness.
//!
//! Each generator corresponds to a workload named in DESIGN.md §7 /
//! EXPERIMENTS.md: the paper's university database, prerequisite chains
//! and random graphs for the recursive experiments, and synthetic rule
//! towers for the describe-latency sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qdk_engine::Idb;
use qdk_logic::parser::{parse_atom, parse_program};
use qdk_logic::{Atom, Rule, Term};
use qdk_storage::Edb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A prerequisite chain `c1 → c0, c2 → c1, …` of `n` edges.
pub fn chain_edb(n: usize) -> Edb {
    let mut edb = Edb::new();
    edb.declare("prereq", &["Ctitle", "Ptitle"]).unwrap();
    for i in 0..n {
        edb.insert_fact(&parse_atom(&format!("prereq(c{}, c{})", i + 1, i)).unwrap())
            .unwrap();
    }
    edb
}

/// A random directed graph over `nodes` vertices with `edges` edges
/// (duplicates collapse), deterministic per `seed`.
pub fn random_graph_edb(nodes: usize, edges: usize, seed: u64) -> Edb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edb = Edb::new();
    edb.declare("prereq", &["Ctitle", "Ptitle"]).unwrap();
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        edb.insert_fact(&parse_atom(&format!("prereq(c{a}, c{b})")).unwrap())
            .unwrap();
    }
    edb
}

/// The transitive-closure IDB over `prereq` (the paper's `prior`).
pub fn prior_idb() -> Idb {
    Idb::from_rules(
        parse_program(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap()
}

/// A join-heavy IDB over `prereq`: `triangle` closes a directed 3-cycle
/// and `path3` composes three hops. Both rules are multi-literal joins
/// whose cost is dominated by literal order and index choice, so they
/// exercise the selectivity-ordered planner harder than the closure
/// workloads do.
pub fn join_idb() -> Idb {
    Idb::from_rules(
        parse_program(
            "triangle(X, Y, Z) :- prereq(X, Y), prereq(Y, Z), prereq(Z, X).\n\
             path3(X, W) :- prereq(X, Y), prereq(Y, Z), prereq(Z, W).",
        )
        .unwrap()
        .rules,
    )
    .unwrap()
}

/// The paper's Example 8 program: `p` joins the recursive `q` (a
/// left-linear closure over `s` seeded by `r`) with one more `r` step.
pub fn example8_idb() -> Idb {
    Idb::from_rules(
        parse_program(
            "p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).",
        )
        .unwrap()
        .rules,
    )
    .unwrap()
}

/// An EDB for [`example8_idb`]: parallel `r` and `s` chains of `n` edges
/// over the same `n + 1` nodes, so `q` walks the `s` chain from every
/// `r` seed and `p` closes each walk with a final `r` hop.
pub fn example8_edb(n: usize) -> Edb {
    let mut edb = Edb::new();
    edb.declare("r", &["From", "To"]).unwrap();
    edb.declare("s", &["From", "To"]).unwrap();
    for i in 0..n {
        edb.insert_fact(&parse_atom(&format!("r(n{i}, n{})", i + 1)).unwrap())
            .unwrap();
        edb.insert_fact(&parse_atom(&format!("s(n{i}, n{})", i + 1)).unwrap())
            .unwrap();
    }
    edb
}

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

/// The paper's university knowledge base (re-exported for benches).
pub fn university() -> qdk_lang::KnowledgeBase {
    qdk_lang::datasets::university_extended()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_engine::{seminaive, DerivedFacts, EvalOptions, ProgramPlan};

    /// The full semi-naive closure of `idb` over `edb`.
    fn closure(edb: &Edb, idb: &Idb) -> DerivedFacts {
        let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
        seminaive::eval(
            edb,
            idb,
            &plan,
            None,
            DerivedFacts::new(),
            EvalOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn chain_has_n_edges() {
        let edb = chain_edb(10);
        assert_eq!(edb.fact_count(), 10);
    }

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph_edb(10, 20, 7);
        let b = random_graph_edb(10, 20, 7);
        assert_eq!(a.fact_count(), b.fact_count());
    }

    #[test]
    fn chain_closure_size_is_triangular() {
        let edb = chain_edb(8);
        let derived = closure(&edb, &prior_idb());
        assert_eq!(derived.relation("prior").unwrap().len(), 36);
    }

    #[test]
    fn join_idb_finds_triangles_and_three_hop_paths() {
        let mut edb = Edb::new();
        edb.declare("prereq", &["Ctitle", "Ptitle"]).unwrap();
        for (a, b) in [("c0", "c1"), ("c1", "c2"), ("c2", "c0"), ("c2", "c3")] {
            edb.insert_fact(&parse_atom(&format!("prereq({a}, {b})")).unwrap())
                .unwrap();
        }
        let derived = closure(&edb, &join_idb());
        // One 3-cycle, seen from each of its three rotations.
        assert_eq!(derived.relation("triangle").unwrap().len(), 3);
        // c0→c1→c2→{c0,c3}, c1→c2→c0→c1, c2→c0→c1→c2.
        assert_eq!(derived.relation("path3").unwrap().len(), 4);
    }

    #[test]
    fn example8_p_closes_every_s_walk() {
        // Over parallel chains of n edges, q(i, j) holds for every i < j
        // (n(n+1)/2 pairs) and p shifts each pair one r-hop further, so it
        // holds exactly for the pairs at distance ≥ 2 ((n-1)n/2 pairs).
        let derived = closure(&example8_edb(6), &example8_idb());
        assert_eq!(derived.relation("q").unwrap().len(), 21);
        assert_eq!(derived.relation("p").unwrap().len(), 15);
    }

    #[test]
    fn tower_is_nonrecursive_and_describable() {
        let idb = tower_idb(4, 2);
        assert_eq!(idb.len(), 8);
        let q = qdk_core::Describe::new(parse_atom("p0(X)").unwrap(), tower_hypothesis(4));
        let a = qdk_core::describe(&idb, &q, &qdk_core::DescribeOptions::paper()).unwrap();
        assert!(!a.theorems.is_empty());
        // The hypothesis-using derivation reached the bottom of the tower.
        assert!(a.theorems.iter().any(|t| t.uses_hypothesis()));
    }
}
