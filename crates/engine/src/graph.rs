//! Predicate dependency analysis.
//!
//! §2.1 of the paper: given a rule `q ← p₁ ∧ … ∧ pₙ`, the IDB predicate
//! `q` is *directly dependent* on each `pᵢ`; *dependent* is the transitive
//! closure; a rule is *recursive* if its head predicate and at least one
//! body predicate are *mutually* dependent. This module computes the
//! dependency graph and its strongly connected components (Tarjan), from
//! which recursion and evaluation order fall out.

use crate::idb::Idb;
use qdk_logic::{FxHashSet, Sym};
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

    /// SCCs in dependency order (every SCC's dependencies precede it):
    /// evaluation strata for bottom-up computation.
    pub fn sccs_in_order(&self) -> Vec<Vec<Sym>> {
        // Tarjan emits SCCs in reverse topological order of the
        // condensation: an SCC is emitted only after everything it depends
        // on. So scc_members is already in dependency order.
        self.scc_members
            .iter()
            .map(|m| m.iter().map(|&v| self.names[v].clone()).collect())
            .collect()
    }

    /// All known predicate names.
    pub fn predicates(&self) -> &[Sym] {
        &self.names
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
    fn sccs_in_dependency_order() {
        let g = graph(
            "a(X) :- b(X).\n\
             b(X) :- c(X), b(X).\n\
             c(X) :- d(X).",
        );
        let order = g.sccs_in_order();
        let pos = |p: &str| {
            order
                .iter()
                .position(|scc| scc.iter().any(|s| s.as_str() == p))
                .unwrap()
        };
        assert!(pos("d") < pos("c"));
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
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
}
