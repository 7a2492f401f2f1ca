//! Redundancy-free answers (§3.2).
//!
//! "An answer to a knowledge query is *free of redundancies* if none of
//! its formulas is a logical consequence of any of its other formulas."
//! Plain θ-subsumption catches most redundancies; two refinements close
//! gaps the paper itself points out (§6, first research direction):
//!
//! * **comparison-aware subsumption** — `p ← q(X,Z) ∧ (Z > 3)` subsumes
//!   `p ← q(X,Z) ∧ (Z > 4)` because `(Z > 4) ⊨ (Z > 3)`, though the atoms
//!   differ syntactically;
//! * **transitivity-aware subsumption** — after the §5.2 transformation,
//!   step predicates (and modified recursive predicates) are transitively
//!   closed by construction, so `p ← t(a,b) ∧ t(b,c)` is a consequence of
//!   `p ← t(a,c)`; the body of the more specific rule is closed under the
//!   transitivity rule before the subsumption test.

use crate::constraints::{self, Comparison};
use crate::Theorem;
use qdk_logic::{match_atom, standardize, Atom, Bindings, Literal, Rule, Sym};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;

/// A literal's shape: predicate, arity, polarity. A general literal can
/// only map onto a specific literal of the same shape, so shape sets give
/// a subsumption prefilter that never changes the decision.
type Shape = (Sym, usize, bool);

/// The shapes of `lits`' database literals, sorted and deduplicated.
fn shapes<'a>(lits: impl Iterator<Item = &'a Literal>) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = lits
        .filter(|l| !l.is_builtin())
        .map(|l| (l.atom.pred.clone(), l.atom.arity(), l.positive))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

/// True if every shape of `a` is one of `b`'s; both sorted.
fn is_subset(a: &[Shape], b: &[Shape]) -> bool {
    let mut b = b.iter();
    a.iter().all(|x| b.any(|y| y == x))
}

/// Closes a body's non-builtin atoms under transitivity of the given
/// predicates: for `q ∈ trans`, `q(ā, b̄) ∧ q(b̄, c̄)` (splitting the
/// argument list in half) adds `q(ā, c̄)`. Bounded fixpoint. A body with
/// no atom of a transitive predicate is its own closure, and is borrowed.
fn transitive_closure<'b>(body: &'b [Literal], trans: &[Sym]) -> Cow<'b, [Literal]> {
    if !body
        .iter()
        .any(|l| l.positive && !l.is_builtin() && trans.contains(&l.atom.pred))
    {
        return Cow::Borrowed(body);
    }
    let mut atoms: Vec<Literal> = body.to_vec();
    loop {
        let mut added = false;
        let snapshot: Vec<Atom> = atoms
            .iter()
            .filter(|l| l.positive && !l.is_builtin())
            .map(|l| l.atom.clone())
            .collect();
        for a in &snapshot {
            if !trans.contains(&a.pred) || a.arity() % 2 != 0 {
                continue;
            }
            let m = a.arity() / 2;
            for b in &snapshot {
                if b.pred != a.pred || a.args[m..] != b.args[..m] {
                    continue;
                }
                let composed = Atom::new(
                    a.pred.clone(),
                    a.args[..m].iter().chain(&b.args[m..]).cloned().collect(),
                );
                let lit = Literal::pos(composed);
                if !atoms.contains(&lit) {
                    atoms.push(lit);
                    added = true;
                }
            }
        }
        if !added || atoms.len() > 64 {
            return Cow::Owned(atoms);
        }
    }
}

/// The general side of a subsumption test, preprocessed. Its shapes are
/// read off the rule as given: standardizing apart renames variables
/// only, so the shapes are the same. The standardized rule itself, with
/// its body partitioned into database and comparison literals, is built
/// by the first test that gets past the shape prefilter — most tests do
/// not, and standardizing allocates a name per variable. N×N subsumption
/// sweeps prepare each rule once instead of once per pair.
pub struct PreparedGeneral<'r> {
    rule: &'r Rule,
    /// Shapes of the body's database literals — must be a subset of the
    /// specific side's [`PreparedSpecific::shapes`] for subsumption to be
    /// possible.
    shapes: Vec<Shape>,
    standardized: OnceCell<Standardized>,
}

/// A general side standardized apart, its body partitioned.
struct Standardized {
    head: Atom,
    db_lits: Vec<Literal>,
    cmp_lits: Vec<Literal>,
}

impl PreparedGeneral<'_> {
    fn standardized(&self) -> &Standardized {
        self.standardized.get_or_init(|| {
            let std = standardize(self.rule, "_sem");
            let (db_lits, cmp_lits) = std.body.into_iter().partition(|l| !l.is_builtin());
            Standardized {
                head: std.head,
                db_lits,
                cmp_lits,
            }
        })
    }
}

/// The specific side of a subsumption test, preprocessed: the body closed
/// under transitivity with its comparisons extracted. Pure function of the
/// rule and `trans`.
pub struct PreparedSpecific<'r> {
    head: &'r Atom,
    closed: Cow<'r, [Literal]>,
    comps: Vec<Comparison>,
    /// Shapes of the closed body's database literals.
    shapes: Vec<Shape>,
}

/// Preprocesses a rule for use as the general side of [`subsumes_prepared`].
pub fn prepare_general(rule: &Rule) -> PreparedGeneral<'_> {
    PreparedGeneral {
        rule,
        shapes: shapes(rule.body.iter()),
        standardized: OnceCell::new(),
    }
}

/// Preprocesses a rule for use as the specific side of [`subsumes_prepared`].
pub fn prepare_specific<'r>(rule: &'r Rule, trans: &[Sym]) -> PreparedSpecific<'r> {
    let closed = transitive_closure(&rule.body, trans);
    let comps = constraints::comparisons(closed.iter());
    let shapes = shapes(closed.iter());
    PreparedSpecific {
        head: &rule.head,
        closed,
        comps,
        shapes,
    }
}

/// Semantic θ-subsumption: `general` subsumes `specific` when a
/// substitution σ (binding only `general`'s variables) maps its head onto
/// `specific`'s head, maps every non-builtin body literal onto some
/// literal of `specific`'s (transitively closed) body, and makes every
/// comparison literal either ground-true or entailed by some comparison
/// of `specific`'s body.
pub fn semantic_subsumes(general: &Rule, specific: &Rule, trans: &[Sym]) -> bool {
    subsumes_prepared(
        &prepare_general(general),
        &prepare_specific(specific, trans),
    )
}

/// [`semantic_subsumes`] over preprocessed sides — the form the reduction
/// passes call.
pub fn subsumes_prepared(general: &PreparedGeneral, specific: &PreparedSpecific) -> bool {
    // Shape prefilter: every general literal needs a same-shape target, so
    // a missing shape refutes the test before any matching. Equivalent to
    // (but much cheaper than) discovering an empty candidate list below.
    if !is_subset(&general.shapes, &specific.shapes) {
        return false;
    }
    let general = general.standardized();
    let mut s = Bindings::new();
    if !match_atom(&general.head, specific.head, &mut s) {
        return false;
    }
    // Resolve each general literal's candidate targets (same predicate,
    // sign, and arity) up front: an empty candidate list refutes the test
    // without any backtracking, and trying the most-constrained literal
    // first prunes the search. Neither changes the decision — a match the
    // full scan would have found is found here and vice versa.
    let mut cands: Vec<(&Literal, Vec<&Literal>)> = Vec::with_capacity(general.db_lits.len());
    for g in &general.db_lits {
        let c: Vec<&Literal> = specific
            .closed
            .iter()
            .filter(|l| {
                l.positive == g.positive
                    && !l.is_builtin()
                    && l.atom.pred == g.atom.pred
                    && l.atom.arity() == g.atom.arity()
            })
            .collect();
        if c.is_empty() {
            return false;
        }
        cands.push((g, c));
    }
    cands.sort_by_key(|(_, c)| c.len());
    // Each comparison is checked once the head and the literals mapped so
    // far bind its variables: later literals cannot change its verdict,
    // and a failed comparison then prunes every mapping of the rest.
    let mut due: Vec<(usize, &Literal)> =
        general.cmp_lits.iter().map(|c| (cands.len(), c)).collect();
    if !due.is_empty() {
        let mut bound = Vec::new();
        general.head.collect_vars(&mut bound);
        for (k, (g, _)) in cands.iter().enumerate() {
            for (d, c) in &mut due {
                let args = &c.atom.args;
                if *d > k
                    && args
                        .iter()
                        .all(|t| t.as_var().is_none_or(|v| bound.contains(v)))
                {
                    *d = k;
                }
            }
            g.atom.collect_vars(&mut bound);
        }
    }
    map_db_literals(&cands, 0, &mut s, &due, &specific.comps)
}

/// Maps the general database literals in `remaining`, `mapped` of them
/// mapped already. Each comparison of `due` is checked once as many
/// literals as its number are mapped.
fn map_db_literals(
    remaining: &[(&Literal, Vec<&Literal>)],
    mapped: usize,
    s: &mut Bindings,
    due: &[(usize, &Literal)],
    specific_comps: &[Comparison],
) -> bool {
    let now = due.iter().filter(|(d, _)| *d == mapped).map(|(_, l)| *l);
    if !comparisons_follow(now, s, specific_comps) {
        return false;
    }
    let Some(((first, cands), rest)) = remaining.split_first() else {
        return true;
    };
    for lit in cands {
        let mark = s.mark();
        if match_atom(&first.atom, &lit.atom, s)
            && map_db_literals(rest, mapped + 1, s, due, specific_comps)
        {
            return true;
        }
        s.undo_to(mark);
    }
    false
}

/// True if each comparison literal of a general side, under `s`, is
/// ground-true or entailed by a comparison of the specific side.
pub(crate) fn comparisons_follow<'l>(
    comparisons: impl IntoIterator<Item = &'l Literal>,
    s: &Bindings,
    specific_comps: &[Comparison],
) -> bool {
    comparisons
        .into_iter()
        .all(|l| match Comparison::from_atom(&s.apply_atom(&l.atom)) {
            Some(Comparison::Ground(Some(true))) | Some(Comparison::SameVar(true)) => l.positive,
            Some(c) if l.positive => specific_comps.iter().any(|sc| constraints::implies(sc, &c)),
            _ => false,
        })
}

/// Saturates a body under the IDB rules (bounded forward chaining at the
/// term level): whenever a rule's database literals map into the body —
/// with its comparison literals entailed by the body's comparisons — the
/// instantiated head is added. Used for *subsumption modulo definitions*:
/// `p ← student(X,Y,Z) ∧ (Z > 3.7) ∧ …` is a consequence of
/// `p ← honor(X) ∧ …` because saturation derives `honor(X)` in the first
/// body.
pub fn saturate_body(body: &[Literal], idb: &qdk_engine::Idb, rounds: usize) -> Vec<Literal> {
    let mut lits: Vec<Literal> = body.to_vec();
    for _ in 0..rounds {
        let mut added = false;
        for rule in idb.rules() {
            let std_rule = standardize(rule, "_sem");
            let comps = constraints::comparisons(&lits);
            let (db, cmp): (Vec<&Literal>, Vec<&Literal>) =
                std_rule.body.iter().partition(|l| !l.is_builtin());
            let mut heads = Vec::new();
            collect_heads(
                &std_rule.head,
                &db,
                &lits,
                &mut Bindings::new(),
                &cmp,
                &comps,
                &mut heads,
            );
            for head in heads {
                let lit = Literal::pos(head);
                if !lits.contains(&lit) {
                    lits.push(lit);
                    added = true;
                }
            }
            if lits.len() > 96 {
                return lits;
            }
        }
        if !added {
            break;
        }
    }
    lits
}

/// Like [`map_db_literals`], but collecting `head` under every successful
/// match.
fn collect_heads(
    head: &Atom,
    remaining: &[&Literal],
    specific: &[Literal],
    s: &mut Bindings,
    comparisons: &[&Literal],
    specific_comps: &[Comparison],
    out: &mut Vec<Atom>,
) {
    let Some((first, rest)) = remaining.split_first() else {
        if comparisons_follow(comparisons.iter().copied(), s, specific_comps) {
            out.push(s.apply_atom(head));
        }
        return;
    };
    for lit in specific {
        if lit.positive != first.positive || lit.is_builtin() {
            continue;
        }
        let mark = s.mark();
        if match_atom(&first.atom, &lit.atom, s) {
            collect_heads(head, rest, specific, s, comparisons, specific_comps, out);
            s.undo_to(mark);
        }
    }
}

/// Semantic subsumption *modulo the IDB's definitions*: the specific body
/// is saturated under the rules before the subsumption test, so a concept
/// and its unfolding are interchangeable.
pub fn subsumes_modulo_idb(
    general: &Rule,
    specific: &Rule,
    idb: &qdk_engine::Idb,
    trans: &[Sym],
) -> bool {
    let saturated =
        Rule::with_literals(specific.head.clone(), saturate_body(&specific.body, idb, 3));
    semantic_subsumes(general, &saturated, trans)
}

/// Removes redundant theorems: any theorem semantically subsumed by
/// another is dropped (first of an equivalent pair wins). `trans` lists
/// transitively-closed predicates (step predicates and modified recursive
/// predicates).
///
/// Theorems are bucketed by head signature (predicate and arity):
/// subsumption in either direction starts by matching the heads, so only
/// same-bucket pairs are ever compared — with mixed-subject answer sets
/// (tagged/typed transforms emit several head predicates) the quadratic
/// sweep shrinks to the sum of squared bucket sizes. Within a bucket the
/// shape prefilter in [`subsumes_prepared`] rejects most pairs without a
/// matching attempt. Survivors keep arrival order exactly like the
/// unbucketed sweep did.
pub fn remove_redundant(theorems: Vec<Theorem>, trans: &[Sym]) -> Vec<Theorem> {
    struct Entry<'r> {
        arrival: usize,
        general: PreparedGeneral<'r>,
        specific: PreparedSpecific<'r>,
    }
    let mut kept = vec![false; theorems.len()];
    let mut buckets: HashMap<(&Sym, usize), Vec<Entry<'_>>> = HashMap::new();
    'outer: for (arrival, t) in theorems.iter().enumerate() {
        let specific = prepare_specific(&t.rule, trans);
        let bucket = buckets
            .entry((&t.rule.head.pred, t.rule.head.arity()))
            .or_default();
        for k in bucket.iter() {
            if subsumes_prepared(&k.general, &specific) {
                continue 'outer;
            }
        }
        let general = prepare_general(&t.rule);
        bucket.retain(|k| !subsumes_prepared(&general, &k.specific));
        bucket.push(Entry {
            arrival,
            general,
            specific,
        });
    }
    for e in buckets.values().flatten() {
        kept[e.arrival] = true;
    }
    // The entries borrow the theorems.
    drop(buckets);
    theorems
        .into_iter()
        .zip(kept)
        .filter_map(|(t, kept)| kept.then_some(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_rule;
    use std::collections::BTreeSet;

    fn r(src: &str) -> Rule {
        parse_rule(src).unwrap()
    }

    fn theorem(src: &str) -> Theorem {
        Theorem {
            rule: r(src),
            used_hypothesis: BTreeSet::new(),
            root_rule: None,
            one_level: false,
            derivation: Default::default(),
        }
    }

    #[test]
    fn plain_subsumption_still_works() {
        assert!(semantic_subsumes(
            &r("p(X) :- q(X, Y)."),
            &r("p(X) :- q(X, databases)."),
            &[],
        ));
        assert!(!semantic_subsumes(
            &r("p(X) :- q(X, databases)."),
            &r("p(X) :- q(X, Y)."),
            &[],
        ));
    }

    #[test]
    fn comparison_aware_subsumption() {
        // (Z > 4) ⊨ (Z > 3): the tighter rule is redundant.
        let general = r("p(X) :- q(X, Z), Z > 3.");
        let specific = r("p(X) :- q(X, Z), Z > 4.");
        assert!(semantic_subsumes(&general, &specific, &[]));
        assert!(!semantic_subsumes(&specific, &general, &[]));
    }

    #[test]
    fn ground_true_comparison_is_free() {
        let general = r("p(X) :- q(X), 3 < 4.");
        let specific = r("p(X) :- q(X).");
        assert!(semantic_subsumes(&general, &specific, &[]));
    }

    #[test]
    fn comparison_must_be_entailed_not_merely_present() {
        let general = r("p(X) :- q(X, Z), Z > 5.");
        let specific = r("p(X) :- q(X, Z), Z > 3.");
        // (Z > 3) does not entail (Z > 5).
        assert!(!semantic_subsumes(&general, &specific, &[]));
    }

    #[test]
    fn transitivity_aware_subsumption() {
        // prior is transitively closed: prior(X, db) subsumes the chain
        // prior(X, Z) ∧ prior(Z, db).
        let trans = [Sym::new("prior")];
        let general = r("p(X, Y) :- prior(X, databases).");
        let specific = r("p(X, Y) :- prior(X, Z), prior(Z, databases).");
        assert!(semantic_subsumes(&general, &specific, &trans));
        // Without the transitivity declaration it is not subsumed.
        assert!(!semantic_subsumes(&general, &specific, &[]));
    }

    #[test]
    fn transitivity_with_arity_four_step_predicate() {
        let trans = [Sym::new("t_acc")];
        let general = r("p(X) :- t_acc(A, B, E, F).");
        let specific = r("p(X) :- t_acc(A, B, C, D), t_acc(C, D, E, F).");
        assert!(semantic_subsumes(&general, &specific, &trans));
    }

    #[test]
    fn remove_redundant_prefers_general() {
        let out = remove_redundant(
            vec![
                theorem("p(X) :- q(X, Z), Z > 4."),
                theorem("p(X) :- q(X, Z), Z > 3."),
                theorem("p(X) :- r(X)."),
            ],
            &[],
        );
        let rendered: Vec<String> = out.iter().map(|t| t.rule.to_string()).collect();
        assert_eq!(rendered, vec!["p(X) :- q(X, Z), (Z > 3).", "p(X) :- r(X)."]);
    }

    #[test]
    fn general_with_fewer_literals_still_subsumes() {
        // {q} ⊂ {q, r}: the shape prefilter must admit strict-subset
        // generals, not just equal-shape pairs.
        assert!(semantic_subsumes(
            &r("p(X) :- q(X, Y)."),
            &r("p(X) :- q(X, databases), r(X)."),
            &[],
        ));
    }

    #[test]
    fn mixed_head_signatures_reduce_per_bucket_and_keep_order() {
        let out = remove_redundant(
            vec![
                theorem("p(X) :- q(X, Z), Z > 4."),
                theorem("s(X) :- q(X, Y)."),
                theorem("p(X) :- q(X, Z), Z > 3."),
                // Same predicate, different arity: its own bucket.
                theorem("p(X, Y) :- q(X, Y)."),
                // Variant of the s-theorem: dropped, first wins.
                theorem("s(A) :- q(A, B)."),
            ],
            &[],
        );
        let rendered: Vec<String> = out.iter().map(|t| t.rule.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "s(X) :- q(X, Y).",
                "p(X) :- q(X, Z), (Z > 3).",
                "p(X, Y) :- q(X, Y).",
            ]
        );
    }

    #[test]
    fn equivalent_theorems_keep_first() {
        let out = remove_redundant(
            vec![theorem("p(X) :- q(X, Y)."), theorem("p(A) :- q(A, B).")],
            &[],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule.to_string(), "p(X) :- q(X, Y).");
    }

    #[test]
    fn negative_literals_respected() {
        let a = r("p(X) :- q(X), not r(X).");
        let b = r("p(X) :- q(X).");
        assert!(!semantic_subsumes(&a, &b, &[]));
        assert!(semantic_subsumes(&b, &a, &[]));
    }
}
