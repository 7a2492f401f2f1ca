//! Predicate dependency analysis.
//!
//! §2.1 of the paper: given a rule `q ← p₁ ∧ … ∧ pₙ`, the IDB predicate
//! `q` is *directly dependent* on each `pᵢ`; *dependent* is the transitive
//! closure; a rule is *recursive* if its head predicate and at least one
//! body predicate are *mutually* dependent. This module computes the
//! dependency graph and its strongly connected components (Tarjan), from
//! which recursion and evaluation order fall out — including the strata
//! of a program with negation ([`DependencyGraph::strata`]): a program is
//! *stratified* when no predicate depends on itself through a negated
//! literal, and is then evaluated stratum by stratum, each negation read
//! against completed lower strata (closed world).

use crate::error::{EngineError, Result};
use crate::idb::Idb;
use qdk_logic::{FxHashMap, FxHashSet, Rule, Sym};
use std::collections::HashMap;

/// The predicate dependency graph of an IDB.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    /// Node ids by predicate name.
    ids: HashMap<Sym, usize>,
    /// Predicate names by node id.
    names: Vec<Sym>,
    /// Adjacency: `edges[q]` = predicates `q` directly depends on.
    edges: Vec<Vec<usize>>,
    /// SCC id of each node. SCC ids are in reverse topological order of the
    /// condensation (an SCC's dependencies have *smaller* SCC ids).
    scc_of: Vec<usize>,
    /// Members of each SCC.
    scc_members: Vec<Vec<usize>>,
    /// Whether each node has a self-loop (a rule with its own head in the
    /// body) — needed to distinguish a trivial SCC from direct recursion.
    self_loop: Vec<bool>,
}

impl DependencyGraph {
    /// Builds the dependency graph of an IDB. Nodes are created for every
    /// predicate appearing as a rule head or in a positive body literal
    /// (including EDB predicates, which have no outgoing edges); built-ins
    /// are ignored. This is §2.1's *dependent* relation, which the paper
    /// defines over positive bodies.
    pub fn build(idb: &Idb) -> Self {
        Self::build_from(idb, false)
    }

    /// [`Self::build`] with an edge for every negated body literal too:
    /// what evaluating a predicate needs materialised first. A rule
    /// `q ← p ∧ ¬r` cannot be fired before `r` is complete, so a slice cut
    /// along positive edges alone would read `r` as empty. In a stratified
    /// program no cycle passes through a negated literal, so recursion and
    /// SCCs are those of [`Self::build`].
    pub fn for_evaluation(idb: &Idb) -> Self {
        Self::build_from(idb, true)
    }

    fn build_from(idb: &Idb, negated: bool) -> Self {
        let mut g = DependencyGraph {
            ids: HashMap::new(),
            names: Vec::new(),
            edges: Vec::new(),
            scc_of: Vec::new(),
            scc_members: Vec::new(),
            self_loop: Vec::new(),
        };
        for rule in idb.rules() {
            let h = g.intern(&rule.head.pred);
            for lit in &rule.body {
                if lit.is_builtin() || !(lit.positive || negated) {
                    continue;
                }
                let b = g.intern(&lit.atom.pred);
                if !g.edges[h].contains(&b) {
                    g.edges[h].push(b);
                }
                if b == h {
                    g.self_loop[h] = true;
                }
            }
        }
        g.compute_sccs();
        g
    }

    fn intern(&mut self, name: &Sym) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        self.ids.insert(name.clone(), id);
        self.names.push(name.clone());
        self.edges.push(Vec::new());
        self.self_loop.push(false);
        id
    }

    /// Iterative Tarjan SCC.
    fn compute_sccs(&mut self) {
        let n = self.names.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        self.scc_of = vec![usize::MAX; n];
        self.scc_members.clear();

        // Explicit DFS stack: (node, child position).
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
                if *ci == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < self.edges[v].len() {
                    let w = self.edges[v][*ci];
                    *ci += 1;
                    if index[w] == usize::MAX {
                        dfs.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let scc_id = self.scc_members.len();
                        let mut members = Vec::new();
                        // `v` is on the stack, so the pops stop at it.
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            self.scc_of[w] = scc_id;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.scc_members.push(members);
                    }
                    dfs.pop();
                    if let Some(&mut (parent, _)) = dfs.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }

    fn id(&self, pred: &str) -> Option<usize> {
        self.ids.get(pred).copied()
    }

    /// True if `q` is dependent on `p` (transitively; §2.1). A predicate is
    /// not considered dependent on itself unless there is an actual cycle.
    pub fn depends_on(&self, q: &str, p: &str) -> bool {
        let (Some(q), Some(p)) = (self.id(q), self.id(p)) else {
            return false;
        };
        // BFS from q.
        let mut seen = vec![false; self.names.len()];
        let mut work = vec![q];
        while let Some(v) = work.pop() {
            for &w in &self.edges[v] {
                if w == p {
                    return true;
                }
                if !seen[w] {
                    seen[w] = true;
                    work.push(w);
                }
            }
        }
        false
    }

    /// True if `p` and `q` are mutually dependent (each depends on the
    /// other): same non-trivial SCC, or the same predicate with a self-loop.
    pub fn mutually_dependent(&self, p: &str, q: &str) -> bool {
        let (Some(pi), Some(qi)) = (self.id(p), self.id(q)) else {
            return false;
        };
        if pi == qi {
            return self.self_loop[pi] || self.scc_members[self.scc_of[pi]].len() > 1;
        }
        self.scc_of[pi] == self.scc_of[qi]
    }

    /// True if the predicate is recursive: it heads at least one recursive
    /// rule, i.e. participates in a dependency cycle.
    pub fn is_recursive(&self, pred: &str) -> bool {
        self.mutually_dependent(pred, pred)
    }

    /// True if the predicate is recursive or depends on a recursive
    /// predicate (the condition that forces Algorithm 2, §4/§5).
    pub fn involves_recursion(&self, pred: &str) -> bool {
        if self.is_recursive(pred) {
            return true;
        }
        let Some(p) = self.id(pred) else {
            return false;
        };
        let mut seen = vec![false; self.names.len()];
        let mut work = vec![p];
        while let Some(v) = work.pop() {
            for &w in &self.edges[v] {
                if !seen[w] {
                    seen[w] = true;
                    if self.is_recursive(self.names[w].as_str()) {
                        return true;
                    }
                    work.push(w);
                }
            }
        }
        false
    }

    /// The predicates reachable from (and including) `pred` in the
    /// dependency graph — the predicates relevant to a query on `pred`.
    pub fn reachable_from(&self, pred: &str) -> Vec<Sym> {
        let Some(p) = self.id(pred) else {
            return Vec::new();
        };
        let mut seen = vec![false; self.names.len()];
        seen[p] = true;
        let mut work = vec![p];
        let mut out = vec![self.names[p].clone()];
        while let Some(v) = work.pop() {
            for &w in &self.edges[v] {
                if !seen[w] {
                    seen[w] = true;
                    out.push(self.names[w].clone());
                    work.push(w);
                }
            }
        }
        out
    }

    /// The predicates whose slice — the predicate itself and everything
    /// reachable from it — contains a predicate satisfying `own`. One pass
    /// over the SCCs in dependency order, so linear in the graph.
    pub fn slices_containing(&self, mut own: impl FnMut(&Sym) -> bool) -> FxHashSet<Sym> {
        // An edge leaves for the same SCC or one with a smaller id, whose
        // verdict is already in; a same-SCC target reads `false` here and
        // is covered by the sweep over the members.
        let mut hit = vec![false; self.scc_members.len()];
        for (scc, members) in self.scc_members.iter().enumerate() {
            hit[scc] = members.iter().any(|&v| {
                own(&self.names[v]) || self.edges[v].iter().any(|&w| hit[self.scc_of[w]])
            });
        }
        self.names
            .iter()
            .zip(&self.scc_of)
            .filter(|(_, &scc)| hit[scc])
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The SCC of `pred`, numbered in dependency order: an SCC's
    /// dependencies have smaller numbers (Tarjan emits an SCC only after
    /// everything it depends on).
    pub fn component(&self, pred: &str) -> Option<usize> {
        self.id(pred).map(|v| self.scc_of[v])
    }

    /// The strata of `idb`, whose evaluation graph this must be
    /// ([`Self::for_evaluation`]), in one pass over the SCCs in
    /// dependency order: an SCC's stratum is the largest stratum its rule
    /// bodies read in another SCC, plus 1 across a negated literal (stored
    /// predicates are stratum 0). A negated literal inside its head's own
    /// SCC makes the program unstratified; the error names the head of
    /// the first such rule in rule order.
    pub fn strata(&self, idb: &Idb) -> Result<Strata> {
        if let Some(rule) = idb.rules().iter().find(|r| {
            let own = self.component(r.head.pred.as_str());
            self.reads(idb, r).any(|read| read == (own, false))
        }) {
            return Err(EngineError::NotStratified(rule.head.pred.to_string()));
        }
        let mut level = vec![0usize; self.scc_members.len()];
        for (c, members) in self.scc_members.iter().enumerate() {
            for rule in members
                .iter()
                .flat_map(|&v| idb.rules_for(self.names[v].as_str()))
            {
                for (d, positive) in self.reads(idb, rule) {
                    if let Some(d) = d.filter(|&d| d != c) {
                        level[c] = level[c].max(level[d] + usize::from(!positive));
                    }
                }
            }
        }
        let preds = idb.predicates();
        let stratum = |p: &Sym| self.component(p.as_str()).map_or(0, |c| level[c]);
        let len = preds.iter().map(stratum).max().map_or(0, |top| top + 1);
        let mut strata = Strata {
            stratum_of: FxHashMap::default(),
            predicates: vec![Vec::new(); len],
            rules: vec![Vec::new(); len],
        };
        for p in preds {
            let s = stratum(&p);
            strata.predicates[s].push(p.clone());
            strata.stratum_of.insert(p, s);
        }
        for (r, rule) in idb.rules().iter().enumerate() {
            strata.rules[strata.stratum_of[&rule.head.pred]].push(r);
        }
        Ok(strata)
    }

    /// The SCC and polarity of every IDB predicate `rule`'s body reads.
    fn reads<'a>(
        &'a self,
        idb: &'a Idb,
        rule: &'a Rule,
    ) -> impl Iterator<Item = (Option<usize>, bool)> + 'a {
        rule.body
            .iter()
            .filter(move |l| !l.is_builtin() && idb.defines(l.atom.pred.as_str()))
            .map(|l| (self.component(l.atom.pred.as_str()), l.positive))
    }
}

/// A stratification: the stratum of every IDB predicate, and per stratum
/// its predicates (in `Idb::predicates()` order) and the rules that derive
/// them (positions in `Idb::rules()`, ascending). Strata are numbered in
/// evaluation order, and none is empty.
#[derive(Clone, Debug)]
pub struct Strata {
    stratum_of: FxHashMap<Sym, usize>,
    predicates: Vec<Vec<Sym>>,
    rules: Vec<Vec<usize>>,
}

impl Strata {
    /// The stratum of an IDB predicate (stored predicates are stratum 0
    /// and are not listed).
    pub fn stratum_of(&self, pred: &str) -> Option<usize> {
        self.stratum_of.get(pred).copied()
    }

    /// The IDB predicates of each stratum.
    pub fn predicates(&self) -> &[Vec<Sym>] {
        &self.predicates
    }

    /// The rules of each stratum, by position in `Idb::rules()` — also
    /// their position in the compiled `ProgramPlan`.
    pub fn rules(&self) -> &[Vec<usize>] {
        &self.rules
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no IDB predicates.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_program;

    fn graph(src: &str) -> DependencyGraph {
        let p = parse_program(src).unwrap();
        DependencyGraph::build(&Idb::from_rules(p.rules).unwrap())
    }

    #[test]
    fn paper_idb_dependencies() {
        let g = graph(
            "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
        );
        assert!(g.depends_on("can_ta", "student"));
        assert!(g.depends_on("can_ta", "honor"));
        assert!(!g.depends_on("honor", "can_ta"));
        assert!(g.is_recursive("prior"));
        assert!(!g.is_recursive("honor"));
        assert!(!g.is_recursive("can_ta"));
        assert!(!g.involves_recursion("can_ta"));
        assert!(g.involves_recursion("prior"));
    }

    #[test]
    fn example8_idb_involves_recursion_indirectly() {
        // p depends on recursive q (Example 8 of the paper).
        let g = graph(
            "p(X, Y) :- q(X, Z), r(Z, Y).\n\
             q(X, Y) :- q(X, Z), s(Z, Y).\n\
             q(X, Y) :- r(X, Y).",
        );
        assert!(!g.is_recursive("p"));
        assert!(g.is_recursive("q"));
        assert!(g.involves_recursion("p"));
        assert!(!g.involves_recursion("r"));
    }

    #[test]
    fn mutual_recursion_detected() {
        let g = graph(
            "even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).",
        );
        assert!(g.is_recursive("even"));
        assert!(g.is_recursive("odd"));
        assert!(g.mutually_dependent("even", "odd"));
        assert!(!g.mutually_dependent("even", "zero"));
    }

    #[test]
    fn self_loop_vs_trivial_scc() {
        let g = graph("p(X) :- p(X).\nq(X) :- r(X).");
        assert!(g.is_recursive("p"));
        assert!(!g.is_recursive("q"));
        assert!(!g.is_recursive("r"));
    }

    #[test]
    fn components_in_dependency_order() {
        let g = graph(
            "a(X) :- b(X).\n\
             b(X) :- c(X), b(X).\n\
             c(X) :- d(X).",
        );
        let pos = |p: &str| g.component(p).unwrap();
        assert!(pos("d") < pos("c"));
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
        assert_eq!(g.component("ghost"), None);
    }

    #[test]
    fn reachable_from_restricts_to_relevant() {
        let g = graph(
            "a(X) :- b(X).\n\
             b(X) :- c(X).\n\
             unrelated(X) :- d(X).",
        );
        let reach: Vec<String> = g
            .reachable_from("a")
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(reach.contains(&"a".to_string()));
        assert!(reach.contains(&"b".to_string()));
        assert!(reach.contains(&"c".to_string()));
        assert!(!reach.contains(&"unrelated".to_string()));
        assert!(!reach.contains(&"d".to_string()));
    }

    #[test]
    fn evaluation_graph_follows_negated_literals() {
        let src = "ordinary(X) :- student(X, Y, Z), not honor(X).\n\
                   honor(X) :- student(X, Y, Z), Z > 3.7.";
        let names = |g: &DependencyGraph| -> Vec<String> {
            let mut n: Vec<String> = g
                .reachable_from("ordinary")
                .iter()
                .map(ToString::to_string)
                .collect();
            n.sort();
            n
        };
        assert_eq!(names(&graph(src)), ["ordinary", "student"]);
        let p = parse_program(src).unwrap();
        let g = DependencyGraph::for_evaluation(&Idb::from_rules(p.rules).unwrap());
        assert_eq!(names(&g), ["honor", "ordinary", "student"]);
        assert!(!g.is_recursive("ordinary"));
    }

    #[test]
    fn slices_containing_propagates_up_the_dependency_order() {
        let g = graph(
            "top(X) :- mid(X), e(X).\n\
             mid(X) :- tc(X, Y).\n\
             tc(X, Y) :- e2(X, Y).\n\
             tc(X, Y) :- e2(X, Z), tc(Z, Y).\n\
             flat(X) :- e(X).",
        );
        let rec = g.slices_containing(|p| g.is_recursive(p.as_str()));
        let mut names: Vec<&str> = rec.iter().map(Sym::as_str).collect();
        names.sort_unstable();
        assert_eq!(names, ["mid", "tc", "top"]);
    }

    #[test]
    fn unknown_predicates_are_harmless() {
        let g = graph("p(X) :- q(X).");
        assert!(!g.depends_on("ghost", "q"));
        assert!(!g.is_recursive("ghost"));
        assert!(g.reachable_from("ghost").is_empty());
    }

    fn strata(src: &str) -> Result<Strata> {
        let idb = Idb::from_rules(parse_program(src).unwrap().rules).unwrap();
        DependencyGraph::for_evaluation(&idb).strata(&idb)
    }

    #[test]
    fn positive_program_is_single_stratum() {
        let s = strata(
            "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum_of("honor"), Some(0));
        assert_eq!(s.stratum_of("prior"), Some(0));
        assert_eq!(s.stratum_of("prereq"), None);
        assert_eq!(s.rules(), [vec![0, 1, 2]]);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let s = strata(
            "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             ordinary(X) :- student(X, Y, Z), not honor(X).",
        )
        .unwrap();
        assert_eq!(s.stratum_of("honor"), Some(0));
        assert_eq!(s.stratum_of("ordinary"), Some(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn chained_negation_stacks_strata() {
        let s = strata(
            "c(X) :- e(X), not b(X).\n\
             a(X) :- e(X).\n\
             b(X) :- e(X), not a(X).",
        )
        .unwrap();
        assert_eq!(s.stratum_of("a"), Some(0));
        assert_eq!(s.stratum_of("b"), Some(1));
        assert_eq!(s.stratum_of("c"), Some(2));
        assert_eq!(s.rules(), [vec![1], vec![2], vec![0]]);
    }

    #[test]
    fn negative_cycle_is_rejected_naming_the_first_rule_on_it() {
        let err = strata(
            "win(X) :- move(X, Y), not win(Y).\n\
             move(X, Y) :- edge(X, Y), win(X).",
        )
        .unwrap_err();
        assert_eq!(err, EngineError::NotStratified("win".into()));
        let err = strata(
            "ok(X) :- e(X), not b(X).\n\
             b(X) :- e(X), a(X).\n\
             a(X) :- e(X), not b(X).",
        )
        .unwrap_err();
        assert_eq!(err, EngineError::NotStratified("a".into()));
    }

    #[test]
    fn positive_recursion_with_negation_below_is_fine() {
        let s = strata(
            "base(X) :- e(X), not excluded(X).\n\
             excluded(X) :- f(X).\n\
             closure(X) :- base(X).\n\
             closure(X) :- g(X, Y), closure(Y).",
        )
        .unwrap();
        assert_eq!(s.stratum_of("excluded"), Some(0));
        assert_eq!(s.stratum_of("base"), Some(1));
        assert_eq!(s.stratum_of("closure"), Some(1));
        assert_eq!(s.predicates()[1], ["base", "closure"].map(Sym::new));
    }

    #[test]
    fn empty_idb_has_no_strata() {
        let idb = Idb::new();
        assert!(DependencyGraph::for_evaluation(&idb)
            .strata(&idb)
            .unwrap()
            .is_empty());
    }

    /// The least-fixpoint definition of strata, for the proptest below:
    /// raise each head to the stratum its body needs until nothing moves.
    /// A stratified program settles within `n` rounds (a stratum counts
    /// the negated literals on a simple path); still moving after `n + 1`
    /// means a cycle through negation.
    fn oracle(idb: &Idb) -> Option<HashMap<Sym, usize>> {
        let preds = idb.predicates();
        let mut stratum: HashMap<Sym, usize> = preds.iter().map(|p| (p.clone(), 0)).collect();
        for _ in 0..=preds.len() {
            let mut changed = false;
            for rule in idb.rules() {
                let head = stratum[&rule.head.pred];
                let needed = rule
                    .body
                    .iter()
                    .filter_map(|l| Some(stratum.get(&l.atom.pred)? + usize::from(!l.positive)))
                    .fold(head, usize::max);
                if needed > head {
                    stratum.insert(rule.head.pred.clone(), needed);
                    changed = true;
                }
            }
            if !changed {
                return Some(stratum);
            }
        }
        None
    }

    use proptest::prelude::*;
    use qdk_logic::{Atom, Literal, Term};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random programs over `p0`..`p4` — positive (mode 0),
        /// stratified by construction (mode 1: a literal names a `p` of
        /// no higher index than the head, and a negated one a lower
        /// index) and unrestricted (mode 2, often unstratified) — get the
        /// oracle's verdict, stratum numbers and per-stratum lists.
        #[test]
        fn strata_match_the_least_fixpoint(
            mode in 0u8..3,
            specs in proptest::collection::vec(
                (0usize..5, proptest::collection::vec((0usize..7, 0u8..3), 1..4)),
                1..9,
            ),
        ) {
            let rules = specs.iter().map(|(head, body)| {
                let atom = |name: String| Atom::new(name.as_str(), vec![Term::var("X")]);
                let mut lits = vec![Literal::pos(atom("e0".into()))];
                for &(pred, sign) in body {
                    let negated = mode > 0 && sign == 0;
                    let name = match pred.checked_sub(2) {
                        Some(j) if mode < 2 && (j > *head || (negated && j == *head)) => "e1".into(),
                        Some(j) => format!("p{j}"),
                        None => format!("e{pred}"),
                    };
                    lits.push(if negated { Literal::neg(atom(name)) } else { Literal::pos(atom(name)) });
                }
                Rule::with_literals(atom(format!("p{head}")), lits)
            });
            let idb = Idb::from_rules(rules).unwrap();
            let got = DependencyGraph::for_evaluation(&idb).strata(&idb);
            let Some(want) = oracle(&idb) else {
                prop_assert!(matches!(got, Err(EngineError::NotStratified(_))), "{:?}", idb.rules());
                prop_assert_eq!(mode, 2);
                return Ok(());
            };
            let got = got.unwrap();
            let mut lists: Vec<Vec<Sym>> = vec![Vec::new(); got.len()];
            for p in idb.predicates() {
                prop_assert_eq!(got.stratum_of(p.as_str()), Some(want[&p]));
                lists.get_mut(want[&p]).unwrap().push(p);
            }
            prop_assert_eq!(got.predicates(), &lists[..]);
            prop_assert!(mode > 0 || got.len() == 1);
            for (s, rules) in got.rules().iter().enumerate() {
                let expected: Vec<usize> = (0..idb.len())
                    .filter(|&r| want[&idb.rules()[r].head.pred] == s)
                    .collect();
                prop_assert_eq!(rules, &expected);
            }
        }
    }
}
