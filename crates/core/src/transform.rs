//! The rule transformation of §5.2.
//!
//! Algorithm 1 applied to a recursive subject either generates infinitely
//! many answers, hangs, or (with type-violating substitutions) produces
//! unsound answers (§5.1, Examples 6–8). The fix restructures every
//! recursive predicate using a transformation due to Imielinski: the set
//! `C` of strongly linear, typed recursive rules with head `p` is replaced
//! by
//!
//! * one *transformed* rule `r_T`: `p(x̄) ← p(ȳ) ∧ t(z̄, x̄_α)` — the
//!   recursion rotated through a fresh *step* predicate `t` of arity `2m`,
//!   where `α` (|α| = m) is the set of argument positions that change
//!   through the recursion or are shared with the non-recursive part `wᵢ`;
//! * one *initialization* rule `r_I` per original recursive rule:
//!   `t(ā, c̄) ← wᵢ` — one step of the recursion;
//! * one *continuation* rule `r_C`: `t(x̄, z̄) ← t(x̄, ȳ) ∧ t(ȳ, z̄)` —
//!   `t` is transitively closed.
//!
//! The transformation preserves the extension of `p` (shown in the paper's
//! reference \[4\]; verified here by property tests against bottom-up
//! evaluation). Its value for `describe` is structural: after it, the tag
//! discipline of Algorithm 2 can bound the number of recursive-rule
//! applications without losing answers (Figure 2).
//!
//! §5.3 also exhibits a *modified* transformation that avoids the
//! artificial predicate when the recursion is a plain transitive closure
//! (`p(A,B) ← q(A,B)` plus `p(A,B) ← q(A,C) ∧ p(C,B)`): the recursive rule
//! is replaced by the doubling rule `p(A,B) ← p(A,C) ∧ p(C,B)`, giving
//! answers phrased in terms of `p` itself — "clearly preferable" since
//! mechanically named predicates "tend to have little significance".

use crate::config::TransformPolicy;
use crate::error::{DescribeError, Result};
use qdk_engine::analysis::{classify_rule, RuleShape};
use qdk_engine::graph::DependencyGraph;
use qdk_engine::{Idb, ProgramPlan};
use qdk_logic::{Atom, Rule, Sym, Term, Var};
use std::collections::HashMap;

/// How a rule of the (possibly transformed) IDB behaves under Algorithm
/// 2's tag discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// A non-recursive rule (or one whose recursion the subject cannot
    /// reach): applied freely; children stay untagged.
    Ordinary,
    /// A transformed rule `r_T`: applicable only to nodes not tagged 0.
    /// The `t`-child is tagged 2, the same-predicate child 0.
    Transform {
        /// The step predicate introduced for this rule's head predicate.
        step_pred: Sym,
    },
    /// A continuation rule `r_C`: applicable only to nodes not tagged 0;
    /// children are tagged (1, 0) under a 2-tag and (0, 0) under a 1-tag.
    Continuation,
    /// The modified transformation's doubling rule `p ← p ∧ p`: the same
    /// tag discipline as `r_T`/`r_C` combined, with the second recursive
    /// child playing the `t` role.
    Modified,
    /// An untyped strongly-linear recursive rule of the §6 "certain
    /// structure": left untransformed; its applications per branch are
    /// counted and capped instead.
    UntypedControlled,
}

/// A set of predicates of one [`TransformedIdb`]: a bitset over the dense
/// ids its compiled program's interner gives them.
#[derive(Clone, Debug)]
pub(crate) struct PredSet(Vec<u64>);

/// Per rule, every predicate its body reaches through the rules: its own
/// body predicates (negated literals included) and, transitively, those
/// of every rule that can expand them. A tree under the rule can only
/// ever hold formulas of these predicates.
#[derive(Clone, Debug)]
struct ReachTable {
    /// Bitset words per rule.
    words: usize,
    /// Rule `ri`'s bitset is `bits[ri * words..][..words]`.
    bits: Vec<u64>,
}

impl ReachTable {
    /// A fixpoint: a rule reaches its body predicates and whatever the
    /// rules of those predicates reach.
    fn build(program: &ProgramPlan) -> ReachTable {
        let preds = program.interner().len();
        let words = preds.div_ceil(64);
        let slot = |i: usize| i * words..(i + 1) * words;
        let plans = program.plans();
        let mut bits = vec![0u64; plans.len() * words];
        // What the rules of each predicate reach.
        let mut below = vec![0u64; preds * words];
        loop {
            let mut grew = false;
            // Backwards, because rule bases tend to define a concept
            // before the concepts it uses: a layered base then settles in
            // two passes.
            for (ri, plan) in plans.iter().enumerate().rev() {
                let rule = &plan.compiled;
                let reach = &mut bits[slot(ri)];
                for (lit, ir) in rule.source.body.iter().zip(&rule.body) {
                    if lit.is_builtin() {
                        continue;
                    }
                    let q = ir.atom.pred_id.index();
                    let bit = 1 << (q % 64);
                    grew |= reach[q / 64] & bit == 0;
                    reach[q / 64] |= bit;
                    grew |= union_into(reach, &below[slot(q)]);
                }
                grew |= union_into(&mut below[slot(rule.head.pred_id.index())], reach);
            }
            if !grew {
                return ReachTable { words, bits };
            }
        }
    }
}

/// Adds `from`'s members to `into`; true if that added anything.
fn union_into(into: &mut [u64], from: &[u64]) -> bool {
    let mut grew = false;
    for (mine, theirs) in into.iter_mut().zip(from) {
        grew |= *theirs & !*mine != 0;
        *mine |= *theirs;
    }
    grew
}

/// The rule list the tree enumerator runs: an IDB rewritten by the §5.2
/// transformation (or left as is), each rule tagged with its [`RuleKind`],
/// compiled once and indexed by head predicate. Built by [`transform_idb`];
/// [`crate::PreparedIdb`] holds one per rules generation so describes do
/// not rebuild it.
#[derive(Clone, Debug)]
pub struct TransformedIdb {
    /// The rewritten IDB.
    pub idb: Idb,
    /// Kind of each rule, parallel to `idb.rules()`.
    pub kinds: Vec<RuleKind>,
    /// Step predicates introduced: recursive predicate → its `t`.
    pub step_preds: HashMap<Sym, Sym>,
    /// Recursive predicates that received the modified transformation.
    pub modified: Vec<Sym>,
    /// The rewritten IDB compiled once — the same program representation
    /// the `retrieve` executor runs. The tree enumerator reuses its
    /// per-rule head/body slot maps to standardize rules apart and to
    /// decide which tree formulas are expandable (leaf identification),
    /// instead of re-deriving both from the textual rules at every node.
    pub program: ProgramPlan,
    /// Rule indexes grouped by head predicate, derived from the compiled
    /// heads (parallel to `idb.rules()` / `program.plans()` order).
    by_head: HashMap<Sym, Vec<usize>>,
    reach: ReachTable,
}

impl TransformedIdb {
    /// Wraps an IDB with no transformation (Algorithm 1 / policy None):
    /// every rule is Ordinary and recursion is unrestricted.
    pub fn untransformed(idb: &Idb) -> TransformedIdb {
        TransformedIdb::assemble(
            idb.clone(),
            vec![RuleKind::Ordinary; idb.len()],
            HashMap::new(),
            Vec::new(),
        )
    }

    /// Compiles the (possibly rewritten) IDB, indexes its rules by
    /// compiled head predicate and builds the reach table.
    fn assemble(
        idb: Idb,
        kinds: Vec<RuleKind>,
        step_preds: HashMap<Sym, Sym>,
        modified: Vec<Sym>,
    ) -> TransformedIdb {
        let program = ProgramPlan::compile(&idb);
        let mut by_head: HashMap<Sym, Vec<usize>> = HashMap::new();
        for (i, plan) in program.plans().iter().enumerate() {
            by_head
                .entry(plan.compiled.head.pred.clone())
                .or_default()
                .push(i);
        }
        let reach = ReachTable::build(&program);
        TransformedIdb {
            idb,
            kinds,
            step_preds,
            modified,
            program,
            by_head,
            reach,
        }
    }

    /// Indexes of the rules whose head predicate is `pred`, in source
    /// order — read off the compiled program, not recomputed by scanning
    /// the rule list.
    pub fn rule_indexes_for(&self, pred: &Sym) -> &[usize] {
        self.by_head.get(pred).map_or(&[], Vec::as_slice)
    }

    /// `preds` as a set to test rules' reach against. A predicate no rule
    /// mentions is reached by none, so it is left out.
    pub(crate) fn pred_set<'p>(&self, preds: impl IntoIterator<Item = &'p Sym>) -> PredSet {
        let interner = self.program.interner();
        let mut set = vec![0u64; self.reach.words];
        for id in preds
            .into_iter()
            .filter_map(|p| interner.lookup(p.as_str()))
        {
            set[id.index() / 64] |= 1 << (id.index() % 64);
        }
        PredSet(set)
    }

    /// True if a tree under rule `ri` can hold a formula of a predicate in
    /// `preds`.
    pub(crate) fn reaches(&self, ri: usize, preds: &PredSet) -> bool {
        let words = self.reach.words;
        self.reach.bits[ri * words..][..words]
            .iter()
            .zip(&preds.0)
            .any(|(a, b)| a & b != 0)
    }
}

/// The name of the step predicate for `p`. A leading digit-free, `%`-free
/// scheme the parser cannot produce would be invisible to users, but the
/// paper stresses that these names surface in answers — so the name stays
/// readable: `t_p`.
fn step_name(p: &str) -> Sym {
    Sym::new(&format!("t_{p}"))
}

/// Checks whether a recursive predicate is a plain binary transitive
/// closure eligible for the modified transformation: every recursive rule
/// is `p(A,B) ← q(A,C) ∧ p(C,B)` or `p(A,B) ← p(A,C) ∧ q(C,B)` for a
/// single non-recursive step atom `q`, and some exit rule is
/// `p(A,B) ← q(A,B)` with the same `q`.
fn modified_applicable(pred: &str, recursive: &[&Rule], exits: &[&Rule]) -> bool {
    for rule in recursive {
        if rule.head.arity() != 2 || rule.body.len() != 2 {
            return false;
        }
        let (h0, h1) = match (&rule.head.args[0], &rule.head.args[1]) {
            (Term::Var(a), Term::Var(b)) if a != b => (a, b),
            _ => return false,
        };
        let p_atom = rule.body.iter().map(|l| &l.atom).find(|a| a.pred == pred);
        let q_atom = rule.body.iter().map(|l| &l.atom).find(|a| a.pred != pred);
        let (Some(p_atom), Some(q_atom)) = (p_atom, q_atom) else {
            return false;
        };
        if q_atom.is_builtin() || q_atom.arity() != 2 {
            return false;
        }
        // Shape 1: q(A, C) ∧ p(C, B);  Shape 2: p(A, C) ∧ q(C, B).
        let shape1 = q_atom.args[0] == Term::Var(h0.clone())
            && p_atom.args[1] == Term::Var(h1.clone())
            && q_atom.args[1] == p_atom.args[0]
            && matches!(&q_atom.args[1], Term::Var(c) if c != h0 && c != h1);
        let shape2 = p_atom.args[0] == Term::Var(h0.clone())
            && q_atom.args[1] == Term::Var(h1.clone())
            && p_atom.args[1] == q_atom.args[0]
            && matches!(&p_atom.args[1], Term::Var(c) if c != h0 && c != h1);
        if !(shape1 || shape2) {
            return false;
        }
        // An exit rule p(A,B) ← q(A,B) with the same step predicate.
        let has_exit = exits.iter().any(|e| {
            e.body.len() == 1
                && e.body[0].atom.pred == q_atom.pred
                && e.body[0].atom.args == e.head.args
                && e.head.args.iter().all(|t| matches!(t, Term::Var(_)))
        });
        if !has_exit {
            return false;
        }
    }
    !recursive.is_empty()
}

/// True if a strongly-linear recursive rule has the §6 "certain structure"
/// that is handled by application counting instead of transformation:
/// `p(x̄) ← p(ȳ)` possibly conjoined with atoms not dependent on `p`.
fn untyped_controllable(rule: &Rule, graph: &DependencyGraph) -> bool {
    let head = rule.head.pred.as_str();
    rule.body_db_atoms()
        .all(|a| a.pred == rule.head.pred || !graph.depends_on(a.pred.as_str(), head))
}

/// Applies the §5.2 transformation (per `policy`) to every recursive
/// predicate of the IDB, returning the rewritten IDB with rule kinds.
///
/// Requirements (§2.1): recursive rules must be strongly linear; typed
/// recursive rules are transformed, untyped ones must have the controllable
/// structure above. Violations yield [`DescribeError::UnsupportedIdb`].
///
/// This is the stateless form: it analyses and compiles the whole IDB on
/// every call. [`crate::PreparedIdb`] keeps the result (and the analysis)
/// for reuse across describes.
pub fn transform_idb(idb: &Idb, policy: TransformPolicy) -> Result<TransformedIdb> {
    transform_with(idb, policy, &DependencyGraph::build(idb))
}

/// [`transform_idb`] over an already-built dependency graph of `idb`.
pub(crate) fn transform_with(
    idb: &Idb,
    policy: TransformPolicy,
    graph: &DependencyGraph,
) -> Result<TransformedIdb> {
    if policy == TransformPolicy::None {
        return Ok(TransformedIdb::untransformed(idb));
    }
    let mut out_rules: Vec<(Rule, RuleKind)> = Vec::new();
    let mut step_preds = HashMap::new();
    let mut modified = Vec::new();

    // Group rules by head predicate, preserving order of first appearance.
    let preds = idb.predicates();
    for pred in &preds {
        let rules: Vec<&Rule> = idb.rules_for(pred.as_str()).collect();
        if !graph.is_recursive(pred.as_str()) {
            for r in rules {
                out_rules.push(((*r).clone(), RuleKind::Ordinary));
            }
            continue;
        }
        let (recursive, exits): (Vec<&Rule>, Vec<&Rule>) = rules
            .into_iter()
            .partition(|r| classify_rule(r, graph) != RuleShape::NonRecursive);

        // Validate strong linearity.
        for r in &recursive {
            match classify_rule(r, graph) {
                RuleShape::StronglyLinear => {}
                shape => {
                    return Err(DescribeError::UnsupportedIdb(format!(
                        "recursive rule must be strongly linear (found {shape:?}): {r}"
                    )))
                }
            }
        }

        let (typed, untyped): (Vec<&Rule>, Vec<&Rule>) = recursive
            .iter()
            .partition(|r| r.is_typed_wrt(pred.as_str()));

        for r in &untyped {
            if !untyped_controllable(r, graph) {
                return Err(DescribeError::UnsupportedIdb(format!(
                    "untyped recursive rule is not of the controllable structure: {r}"
                )));
            }
        }

        // Exit rules pass through unchanged.
        for r in &exits {
            out_rules.push(((*r).clone(), RuleKind::Ordinary));
        }
        // Untyped rules are kept but application-counted.
        for r in &untyped {
            out_rules.push(((*r).clone(), RuleKind::UntypedControlled));
        }
        if typed.is_empty() {
            continue;
        }

        if policy == TransformPolicy::PreferModified
            && modified_applicable(pred.as_str(), &typed, &exits)
        {
            // Modified transformation: a single doubling rule.
            let doubling = Rule::new(
                Atom::new(pred.clone(), vec![Term::var("A"), Term::var("B")]),
                vec![
                    Atom::new(pred.clone(), vec![Term::var("A"), Term::var("C")]),
                    Atom::new(pred.clone(), vec![Term::var("C"), Term::var("B")]),
                ],
            );
            out_rules.push((doubling, RuleKind::Modified));
            modified.push(pred.clone());
            continue;
        }

        // Imielinski transformation with an artificial step predicate.
        let (rules, t) = imielinski(pred, &typed)?;
        step_preds.insert(pred.clone(), t.clone());
        for (r, k) in rules {
            out_rules.push((r, k));
        }
    }

    let mut idb_out = Idb::new();
    let mut kinds = Vec::with_capacity(out_rules.len());
    for (r, k) in out_rules {
        idb_out.add_rule(r).map_err(DescribeError::from)?;
        kinds.push(k);
    }
    Ok(TransformedIdb::assemble(
        idb_out, kinds, step_preds, modified,
    ))
}

/// The Imielinski transformation proper, for one predicate's typed,
/// strongly-linear recursive rules. Returns the replacement rules
/// (`r_T`, the `r_I`s, `r_C`) and the step predicate's name.
fn imielinski(pred: &Sym, recursive: &[&Rule]) -> Result<(Vec<(Rule, RuleKind)>, Sym)> {
    let n = recursive[0].head.arity();
    let t = step_name(pred.as_str());

    // Per rule: head variables, body-occurrence variables, and w.
    struct Parts<'a> {
        head_vars: Vec<Var>,
        body_vars: Vec<Var>,
        w: Vec<&'a qdk_logic::Literal>,
    }
    let mut parts: Vec<Parts<'_>> = Vec::with_capacity(recursive.len());
    for rule in recursive {
        if rule.head.arity() != n {
            return Err(DescribeError::UnsupportedIdb(format!(
                "inconsistent arity for {pred}: {rule}"
            )));
        }
        let head_vars = all_vars(&rule.head)?;
        let mut body_vars = None;
        let mut w = Vec::new();
        for lit in &rule.body {
            if lit.positive && lit.atom.pred == *pred && body_vars.is_none() {
                body_vars = Some(all_vars(&lit.atom)?);
            } else {
                w.push(lit);
            }
        }
        let body_vars = body_vars.ok_or_else(|| {
            DescribeError::UnsupportedIdb(format!(
                "recursive rule lacks a {pred} body atom: {rule}"
            ))
        })?;
        parts.push(Parts {
            head_vars,
            body_vars,
            w,
        });
    }

    // α: positions that change through the recursion or are shared with w.
    let mut alpha: Vec<usize> = Vec::new();
    for p in &parts {
        let w_vars: Vec<Var> = {
            let mut vs = Vec::new();
            for lit in &p.w {
                lit.atom.collect_vars(&mut vs);
            }
            vs
        };
        for i in 0..n {
            let in_alpha = p.head_vars[i] != p.body_vars[i]
                || w_vars.contains(&p.head_vars[i])
                || w_vars.contains(&p.body_vars[i]);
            if in_alpha && !alpha.contains(&i) {
                alpha.push(i);
            }
        }
    }
    alpha.sort_unstable();
    if alpha.is_empty() {
        return Err(DescribeError::UnsupportedIdb(format!(
            "degenerate recursion for {pred}: no argument position changes"
        )));
    }

    let mut out = Vec::new();

    // r_T: p(X̄) ← p(Ȳ) ∧ t(Z̄, X̄_α), where Yᵢ = Xᵢ off α and Zᵢ on α.
    let xs: Vec<Var> = (0..n).map(|i| Var::new(&format!("X{i}"))).collect();
    let zs: Vec<Var> = alpha.iter().map(|i| Var::new(&format!("Z{i}"))).collect();
    let head = Atom::new(pred.clone(), xs.iter().cloned().map(Term::Var).collect());
    let body_p = Atom::new(
        pred.clone(),
        (0..n)
            .map(|i| {
                if let Some(k) = alpha.iter().position(|&a| a == i) {
                    Term::Var(zs[k].clone())
                } else {
                    Term::Var(xs[i].clone())
                }
            })
            .collect(),
    );
    let t_atom = Atom::new(
        t.clone(),
        zs.iter()
            .cloned()
            .map(Term::Var)
            .chain(alpha.iter().map(|&i| Term::Var(xs[i].clone())))
            .collect(),
    );
    out.push((
        Rule::new(head, vec![body_p, t_atom]),
        RuleKind::Transform {
            step_pred: t.clone(),
        },
    ));

    // r_I per original recursive rule: t(b̄_α, h̄_α) ← wᵢ.
    for p in &parts {
        let t_head = Atom::new(
            t.clone(),
            alpha
                .iter()
                .map(|&i| Term::Var(p.body_vars[i].clone()))
                .chain(alpha.iter().map(|&i| Term::Var(p.head_vars[i].clone())))
                .collect(),
        );
        out.push((
            Rule::with_literals(t_head, p.w.iter().map(|&l| l.clone()).collect()),
            RuleKind::Ordinary,
        ));
    }

    // r_C: t(Ū, W̄) ← t(Ū, V̄) ∧ t(V̄, W̄).
    let m = alpha.len();
    let us: Vec<Term> = (0..m).map(|i| Term::var(&format!("U{i}"))).collect();
    let vs: Vec<Term> = (0..m).map(|i| Term::var(&format!("V{i}"))).collect();
    let ws: Vec<Term> = (0..m).map(|i| Term::var(&format!("W{i}"))).collect();
    out.push((
        Rule::new(
            Atom::new(t.clone(), us.iter().chain(&ws).cloned().collect()),
            vec![
                Atom::new(t.clone(), us.iter().chain(&vs).cloned().collect()),
                Atom::new(t.clone(), vs.iter().chain(&ws).cloned().collect()),
            ],
        ),
        RuleKind::Continuation,
    ));

    Ok((out, t))
}

/// Extracts the arguments of a `p`-occurrence as variables, rejecting
/// constants (the transformation's variable bookkeeping requires them).
fn all_vars(atom: &Atom) -> Result<Vec<Var>> {
    atom.args
        .iter()
        .map(|tm| match tm {
            Term::Var(v) => Ok(v.clone()),
            Term::Const(_) => Err(DescribeError::UnsupportedIdb(format!(
                "recursive-predicate occurrence has a constant argument: {atom}"
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_program;

    fn idb(src: &str) -> Idb {
        Idb::from_rules(parse_program(src).unwrap().rules).unwrap()
    }

    fn prior_src() -> &'static str {
        "prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y)."
    }

    #[test]
    fn prior_artificial_transformation_matches_paper() {
        let t = transform_idb(&idb(prior_src()), TransformPolicy::AlwaysArtificial).unwrap();
        let rendered: Vec<String> = t.idb.rules().iter().map(ToString::to_string).collect();
        // Paper §5.2 (modulo variable names and step-predicate name):
        //   prior(X, Y) ← prereq(X, Y)
        //   prior(X, Y) ← prior(Z, Y) ∧ t(Z, X)
        //   t(Z, X) ← prereq(X, Z)
        //   t(X, Y) ← t(X, Z) ∧ t(Z, Y)
        assert_eq!(
            rendered,
            vec![
                "prior(X, Y) :- prereq(X, Y).",
                "prior(X0, X1) :- prior(Z0, X1), t_prior(Z0, X0).",
                "t_prior(Z, X) :- prereq(X, Z).",
                "t_prior(U0, W0) :- t_prior(U0, V0), t_prior(V0, W0).",
            ]
        );
        assert_eq!(t.kinds.len(), 4);
        assert!(matches!(t.kinds[1], RuleKind::Transform { .. }));
        assert_eq!(t.kinds[3], RuleKind::Continuation);
        assert_eq!(t.step_preds.get("prior").unwrap().as_str(), "t_prior");
    }

    #[test]
    fn prior_modified_transformation_matches_paper() {
        let t = transform_idb(&idb(prior_src()), TransformPolicy::PreferModified).unwrap();
        let rendered: Vec<String> = t.idb.rules().iter().map(ToString::to_string).collect();
        // Paper §5.3: prior ← prereq unchanged; recursion becomes doubling.
        assert_eq!(
            rendered,
            vec![
                "prior(X, Y) :- prereq(X, Y).",
                "prior(A, B) :- prior(A, C), prior(C, B).",
            ]
        );
        assert_eq!(t.kinds[1], RuleKind::Modified);
        assert_eq!(t.modified, vec![qdk_logic::Sym::new("prior")]);
        assert!(t.step_preds.is_empty());
    }

    #[test]
    fn right_step_transitive_closure_also_modified() {
        let src = "path(X, Y) :- edge(X, Y).\n\
                   path(X, Y) :- path(X, Z), edge(Z, Y).";
        let t = transform_idb(&idb(src), TransformPolicy::PreferModified).unwrap();
        assert_eq!(t.modified.len(), 1);
    }

    #[test]
    fn example8_q_is_transformed() {
        let src = "p(X, Y) :- q(X, Z), r(Z, Y).\n\
                   q(X, Y) :- q(X, Z), s(Z, Y).\n\
                   q(X, Y) :- r(X, Y).";
        // q's step uses s, its exit uses r — not a plain closure, so even
        // PreferModified must fall back to the artificial transformation.
        let t = transform_idb(&idb(src), TransformPolicy::PreferModified).unwrap();
        assert!(t.step_preds.contains_key("q"));
        let rendered: Vec<String> = t.idb.rules().iter().map(ToString::to_string).collect();
        assert!(
            rendered.contains(&"t_q(Z, Y) :- s(Z, Y).".to_string()),
            "{rendered:?}"
        );
    }

    #[test]
    fn alpha_covers_changing_positions_only() {
        // Three-place recursion where only position 1 changes.
        let src = "acc(A, N, B) :- base(A, N, B).\n\
                   acc(A, N, B) :- step(N, M), acc(A, M, B).";
        let t = transform_idb(&idb(src), TransformPolicy::AlwaysArtificial).unwrap();
        let rt = t
            .idb
            .rules()
            .iter()
            .find(|r| r.head.pred == "acc" && r.body.len() == 2 && r.body[1].atom.pred == "t_acc")
            .expect("r_T present");
        // t has arity 2 (m = 1): only the changing position participates.
        assert_eq!(rt.body[1].atom.arity(), 2);
    }

    #[test]
    fn untyped_controllable_rule_is_kept_counted() {
        let src = "reach(X, Y) :- edge(X, Y).\n\
                   reach(X, Y) :- reach(Y, X).";
        let t = transform_idb(&idb(src), TransformPolicy::PreferModified).unwrap();
        let kinds: Vec<&RuleKind> = t.kinds.iter().collect();
        assert!(kinds.contains(&&RuleKind::UntypedControlled));
        // The rule itself is unchanged.
        assert!(t
            .idb
            .rules()
            .iter()
            .any(|r| r.to_string() == "reach(X, Y) :- reach(Y, X)."));
    }

    #[test]
    fn nonlinear_recursion_is_rejected() {
        let src = "p(X, Y) :- e(X, Y).\n\
                   p(X, Y) :- p(X, Z), p(Z, Y).";
        let err = transform_idb(&idb(src), TransformPolicy::AlwaysArtificial).unwrap_err();
        assert!(matches!(err, DescribeError::UnsupportedIdb(_)));
    }

    #[test]
    fn policy_none_is_identity() {
        let t = transform_idb(&idb(prior_src()), TransformPolicy::None).unwrap();
        assert_eq!(t.idb.len(), 2);
        assert!(t.kinds.iter().all(|k| *k == RuleKind::Ordinary));
    }

    #[test]
    fn nonrecursive_idb_passes_through() {
        let src = "honor(X) :- student(X, Y, Z), Z > 3.7.";
        let t = transform_idb(&idb(src), TransformPolicy::PreferModified).unwrap();
        assert_eq!(t.idb.len(), 1);
        assert_eq!(t.kinds, vec![RuleKind::Ordinary]);
    }

    #[test]
    fn reach_follows_the_transformed_rules_transitively() {
        let src = "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                   prior(X, Y) :- prereq(X, Y).\n\
                   prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
                   late(X) :- prior(X, Y), not honor(Y).";
        let t = transform_idb(&idb(src), TransformPolicy::AlwaysArtificial).unwrap();
        let reaches = |ri: usize, pred: &str| t.reaches(ri, &t.pred_set([&Sym::new(pred)]));
        let rule = |head: &str| t.rule_indexes_for(&Sym::new(head))[0];
        let honor = rule("honor");
        assert!(reaches(honor, "student"));
        assert!(!reaches(honor, "honor") && !reaches(honor, ">"));
        // r_T reaches the step predicate, and through it r_I's prereq.
        let r_t = t
            .kinds
            .iter()
            .position(|k| matches!(k, RuleKind::Transform { .. }))
            .unwrap();
        for pred in ["prior", "t_prior", "prereq"] {
            assert!(reaches(r_t, pred), "{pred}");
        }
        // Negated literals count: the tree walks them too.
        let late = rule("late");
        for pred in ["prior", "t_prior", "prereq", "honor", "student"] {
            assert!(reaches(late, pred), "{pred}");
        }
        assert!(!reaches(late, "late"));
        // A predicate no rule mentions is reached by none.
        assert!(!reaches(late, "ghost"));
    }

    #[test]
    fn constant_in_recursive_occurrence_rejected() {
        let src = "p(X, Y) :- e(X, Y).\n\
                   p(X, c) :- e(X, Z), p(Z, c).";
        let err = transform_idb(&idb(src), TransformPolicy::AlwaysArtificial).unwrap_err();
        assert!(matches!(err, DescribeError::UnsupportedIdb(_)));
    }
}
