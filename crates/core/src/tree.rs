//! Derivation-tree enumeration: the engine shared by Algorithms 1 and 2.
//!
//! Figure 1's flowchart is a pointer machine walking one derivation tree
//! with in-place state saving (`hyp(q)`, `rule(q)`, `prev`/`next`). This
//! module realizes the same search as a recursive enumeration of
//! *branches*: at every tree formula the algorithm's three possibilities
//! are explored —
//!
//! 1. **identify** the formula with a hypothesis formula (boxes 2–5): the
//!    unifier applies to the whole tree, so it is threaded as one global
//!    substitution per branch;
//! 2. **leave** the formula as a leaf: it becomes a conjunct of the answer
//!    body (the identification "failure" path, boxes 6–7 — an unidentified
//!    sibling does not abort the rule);
//! 3. **expand** the formula with a rule whose head unifies with it
//!    (boxes 8–9), *productively*: a subtree that contains no hypothesis
//!    leaf is cut off below its root (§4 — "answers use the most general
//!    concepts possible"), which the enumeration realizes by discarding
//!    expansion branches whose subtree identified nothing (possibility 2
//!    already covers the collapsed form). A rule whose body reaches no
//!    hypothesis predicate (the transformed rules' reach table) is not
//!    applied at all: identification needs the hypothesis formula's
//!    predicate, so every branch under it would be cut.
//!
//! Algorithm 2's additions (Figure 3, boxes 9a–9e) are handled in the same
//! walk: every recursive-rule application is gated by the node's *tag* and
//! assigns children tags per the paper's table, and identification
//! substitutions must *preserve typing* — a substitution that makes some
//! predicate's occurrences hold one variable in two different argument
//! positions (where they did not before) is disqualified.
//!
//! The output of enumeration is a set of [`RawAnswer`]s — substitution,
//! unidentified leaves, used hypothesis indexes, root provenance — which
//! the driver assembles into theorems.

use crate::answer::DerivationStep;
use crate::config::DescribeOptions;
use crate::transform::{PredSet, RuleKind, TransformedIdb};
use qdk_logic::governor::{Exhausted, Governor, Resource};
use qdk_logic::{unify_atoms, Atom, Subst, Term, Var, VarGen};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Algorithm 2's node tags (§5.3): `None` is untagged; tag 0 prohibits
/// applying a recursive rule to the node; tags 1 and 2 permit it and bound
/// how far continuation rules may nest (Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tag {
    Untagged,
    Zero,
    One,
    Two,
}

/// Work counters accumulated during one enumeration, reported through the
/// observability layer (`trees_expanded`, `leaves_identified`, `cuts`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EnumStats {
    /// Successful rule applications (a tree formula expanded, boxes 8–9).
    pub trees_expanded: u64,
    /// Successful identifications with a hypothesis formula (boxes 2–5).
    pub leaves_identified: u64,
    /// Expansion branches discarded by the §4 productivity cut.
    pub cuts: u64,
}

/// One enumerated derivation: everything the driver needs to assemble a
/// theorem.
#[derive(Clone, Debug)]
pub(crate) struct RawAnswer {
    /// The accumulated global substitution of the branch.
    pub subst: Arc<Subst>,
    /// Unidentified leaf formulas (un-substituted; apply `subst`).
    pub leaves: Vec<Atom>,
    /// Hypothesis indexes identified somewhere in the tree.
    pub used: BTreeSet<usize>,
    /// Rule applied at the root (`None` = the subject itself was
    /// identified with a hypothesis formula).
    pub root_rule: Option<usize>,
    /// The derivation steps, in application order — the derivation tree
    /// of Figure 1, flattened depth-first.
    pub trace: Chain<DerivationStep>,
    /// The formulas of the derivation tree below its root (inner nodes
    /// and leaves), un-substituted, are `tree`'s items from `tree_from`
    /// on. Used by the negated-hypothesis generalization: a theorem whose
    /// tree mentions a forbidden concept depends on it. Recorded only
    /// when the enumerator was asked to (see [`Enumerator::new`]).
    pub tree: Chain<Atom>,
    pub tree_from: usize,
}

impl RawAnswer {
    /// The recorded formulas of the derivation tree below its root (the
    /// root is the subject).
    pub fn tree_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.tree.items_from(self.tree_from)
    }
}

/// A persistent append-only sequence. Extending hands back a new tail
/// node `Arc`-linked to the previous chain, so cloning a [`Branch`] is a
/// few reference-count bumps instead of a deep copy of every atom and
/// step accumulated so far. Those deep copies dominated enumeration: each
/// visited node clones its context two or more times, and the copies grow
/// linearly with depth.
#[derive(Debug)]
pub(crate) struct Chain<T>(Option<Arc<ChainNode<T>>>);

#[derive(Debug)]
struct ChainNode<T> {
    items: Items<T>,
    parent: Chain<T>,
    /// Items in the whole chain up to and including this node.
    len: usize,
}

/// A node's items: one held inline (a push, the common case), or several.
#[derive(Debug)]
enum Items<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Items<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Items::One(item) => std::slice::from_ref(item),
            Items::Many(items) => items,
        }
    }
}

impl<T> Default for Chain<T> {
    fn default() -> Self {
        Chain(None)
    }
}

impl<T> Chain<T> {
    pub(crate) fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    fn append(&self, items: Items<T>) -> Self {
        Chain(Some(Arc::new(ChainNode {
            len: self.len() + items.as_slice().len(),
            items,
            parent: self.clone(),
        })))
    }

    /// Appends `items`, returning the extended chain (`self` unchanged).
    pub(crate) fn extend(&self, items: Vec<T>) -> Self {
        if items.is_empty() {
            return self.clone();
        }
        self.append(Items::Many(items))
    }

    /// Appends `item`, returning the extended chain (`self` unchanged).
    pub(crate) fn push(&self, item: T) -> Self {
        self.append(Items::One(item))
    }

    /// The items from index `from` onward, in append order.
    pub(crate) fn items_from(&self, from: usize) -> impl Iterator<Item = &T> {
        let mut segs: Vec<&[T]> = Vec::new();
        let mut cur = self;
        let base = loop {
            match cur.0.as_deref() {
                Some(n) if n.len > from => {
                    segs.push(n.items.as_slice());
                    cur = &n.parent;
                }
                node => break node.map_or(0, |n| n.len),
            }
        };
        // `from` may fall inside the earliest collected node.
        segs.into_iter().rev().flatten().skip(from - base)
    }
}

impl<T> Clone for Chain<T> {
    fn clone(&self) -> Self {
        Chain(self.0.clone())
    }
}

impl<T> Drop for ChainNode<T> {
    fn drop(&mut self) {
        // Unroll the tail-recursive drop of a uniquely owned parent chain
        // so guard-length derivations cannot overflow the stack.
        let mut parent = std::mem::take(&mut self.parent);
        while let Some(arc) = parent.0.take() {
            match Arc::try_unwrap(arc) {
                Ok(mut node) => parent = std::mem::take(&mut node.parent),
                Err(_) => break,
            }
        }
    }
}

/// One branch state during enumeration. Every field is shared with the
/// branch it grew from, so the three possibilities at a tree formula
/// start from the same context without copying it.
#[derive(Clone, Debug)]
struct Branch {
    subst: Arc<Subst>,
    /// Every atom occurrence created so far in the whole tree (plus the
    /// subject and hypothesis), un-substituted — the "formulas of the
    /// tree" that typing preservation quantifies over. Recorded only when
    /// typing is checked or the driver needs the tree's formulas.
    occurrences: Chain<Atom>,
    /// One item per application of an untyped-controlled rule on this
    /// branch: its rule index.
    untyped_uses: Chain<usize>,
    /// The tree's unidentified leaves so far, left to right.
    leaves: Chain<Atom>,
    /// One item per identification on this branch: the hypothesis index.
    /// A subtree identified something exactly when it lengthened this.
    used: Chain<usize>,
    /// Derivation steps along this branch.
    trace: Chain<DerivationStep>,
}

impl Branch {
    /// This branch with `node` left as an unidentified leaf.
    fn with_leaf(&self, node: &Atom) -> Branch {
        Branch {
            subst: Arc::clone(&self.subst),
            occurrences: self.occurrences.clone(),
            untyped_uses: self.untyped_uses.clone(),
            leaves: self.leaves.push(node.clone()),
            used: self.used.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// The enumerator.
pub(crate) struct Enumerator<'a> {
    tidb: &'a TransformedIdb,
    /// Non-comparison hypothesis atoms with their original indexes.
    hyp_atoms: Vec<(usize, Atom)>,
    /// The predicates of `hyp_atoms`: the only ones a tree formula can be
    /// identified on.
    hyp_preds: PredSet,
    /// Whether typing preservation is enforced (Algorithm 2).
    check_typing: bool,
    /// Whether branches record the tree's formulas: typing preservation
    /// reads them, and so does the driver's filter for a negated
    /// hypothesis literal. Nothing else does.
    record_tree: bool,
    /// Exhaustive mode (completeness audits): the §4 productivity cut is
    /// disabled, so unproductive expansions are enumerated too.
    exhaustive: bool,
    /// Whether a rule whose reach misses `hyp_preds` is skipped instead
    /// of applied. Off in exhaustive mode, which keeps the branches such
    /// a rule yields.
    cone: bool,
    opts: &'a DescribeOptions,
    gen: VarGen,
    /// Resource accountant for this enumeration. Budget, deadline, fact
    /// and cancellation trips are *hard*: enumeration soft-stops (loops
    /// drain, incomplete subtrees are discarded) and the sticky diagnostic
    /// is reported through [`Enumerator::truncation`].
    gov: Governor,
    /// Depth pruning is *soft*: a branch that reaches the depth bound is
    /// cut (exactly as before), the walk continues elsewhere, and the
    /// first prune is recorded here so the driver can tag the answer
    /// `Truncated` instead of silently under-reporting.
    depth_trunc: Option<Exhausted>,
    /// Set when the *built-in* recursion guard (not a user-configured
    /// `max_depth`) cut the walk: the subject is genuinely divergent and
    /// the guard-length chain answers are pathological — post-processing
    /// must be skipped on them.
    guard_prune: bool,
    /// Observability counters for this enumeration.
    stats: EnumStats,
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator over a (possibly transformed) IDB and the
    /// hypothesis conjunction. Only positive non-comparison literals take
    /// part in identification (comparisons per §4; negative literals per
    /// the §6 generalization are handled by the driver's post-filter, for
    /// which the raw answers then carry their trees' formulas).
    pub fn new(
        tidb: &'a TransformedIdb,
        hypothesis: &[qdk_logic::Literal],
        check_typing: bool,
        opts: &'a DescribeOptions,
    ) -> Self {
        let hyp_atoms: Vec<(usize, Atom)> = hypothesis
            .iter()
            .enumerate()
            .filter(|(_, l)| l.positive && !l.is_builtin())
            .map(|(i, l)| (i, l.atom.clone()))
            .collect();
        Enumerator {
            tidb,
            hyp_preds: tidb.pred_set(hyp_atoms.iter().map(|(_, a)| &a.pred)),
            hyp_atoms,
            check_typing,
            record_tree: check_typing || hypothesis.iter().any(|l| !l.positive),
            exhaustive: false,
            cone: true,
            opts,
            gen: VarGen::new(),
            gov: opts.governor(),
            depth_trunc: None,
            guard_prune: false,
            stats: EnumStats::default(),
        }
    }

    /// Switches the enumerator to exhaustive mode (no productivity cut).
    pub fn exhaustive(mut self) -> Self {
        self.exhaustive = true;
        self.cone = false;
        self
    }

    /// Applies every rule, including those whose reach misses the
    /// hypothesis: the reference the cone-pruned walk is tested against.
    #[cfg(test)]
    pub fn unpruned(mut self) -> Self {
        self.cone = false;
        self
    }

    /// True unless rule `ri` is skipped: no tree under it can identify a
    /// hypothesis formula, so each of its branches would be cut.
    fn applies(&self, ri: usize) -> bool {
        !self.cone || self.tidb.reaches(ri, &self.hyp_preds)
    }

    /// Records one unit of work. The governor's trip (if any) is sticky,
    /// so the error is dropped here and observed via [`Self::stopped`].
    fn tick(&mut self) {
        let _ = self.gov.tick();
    }

    /// True once a hard limit (budget, deadline, facts, cancellation) has
    /// tripped; enumeration loops drain when this turns true.
    fn stopped(&self) -> bool {
        self.gov.tripped().is_some()
    }

    /// Records a branch cut at the depth bound (first prune wins).
    fn prune_depth(&mut self, depth: usize, limit: usize) {
        if self.depth_trunc.is_none() {
            self.depth_trunc = Some(Exhausted {
                resource: Resource::Depth,
                spent: depth as u64,
                limit: limit as u64,
            });
        }
    }

    /// The diagnostic to attach to the answer, if enumeration was cut
    /// short anywhere: a hard governor trip takes precedence over soft
    /// depth pruning.
    pub fn truncation(&self) -> Option<Exhausted> {
        self.gov.tripped().or(self.depth_trunc)
    }

    /// True when the driver must skip the O(n²) post-processing passes:
    /// either a hard resource trip (the evaluation is already over its
    /// allowance) or the built-in recursion guard fired (the walk is
    /// divergent and its guard-length chain bodies make θ-subsumption
    /// intractable). User-configured `max_depth` prunes are *not* hard:
    /// the bounded walk completed and its answer prefix is post-processed
    /// exactly.
    pub fn hard_stop(&self) -> bool {
        self.gov.tripped().is_some() || self.guard_prune
    }

    /// Number of tree operations performed (work metric for experiments;
    /// also reported as the governor spend at truncation).
    pub fn ops(&self) -> u64 {
        self.gov.work_spent()
    }

    /// Observability counters accumulated so far (coordinator totals).
    pub fn stats(&self) -> EnumStats {
        self.stats
    }

    /// Enumerates all derivations for `subject`. Also returns the set of
    /// root-rule indexes that produced at least one hypothesis-using
    /// derivation (for the one-level fallback logic).
    ///
    /// Never errors: when a resource limit trips, the derivations
    /// completed so far are returned and [`Self::truncation`] reports the
    /// diagnostic.
    pub fn enumerate(&mut self, subject: &Atom) -> (Vec<RawAnswer>, BTreeSet<usize>) {
        let mut answers = Vec::new();
        let mut productive_rules = BTreeSet::new();
        // A cancellation or an expired deadline is observed even when the
        // cone leaves nothing to tick on. The trip is sticky.
        let _ = self.gov.poll();

        let base_chain = if self.record_tree {
            Chain::default().extend(
                std::iter::once(subject.clone())
                    .chain(self.hyp_atoms.iter().map(|(_, a)| a.clone()))
                    .collect(),
            )
        } else {
            Chain::default()
        };
        let base_len = base_chain.len();

        // Root identification with a hypothesis formula (Example 6's
        // `prior(X, Y) ← (X = databases)` answers).
        for k in 0..self.hyp_atoms.len() {
            self.tick();
            if self.stopped() {
                break;
            }
            let (i, h) = &self.hyp_atoms[k];
            if let Some(mgu) = unify_atoms(subject, h) {
                if self.typing_ok(&base_chain, &Subst::new(), &mgu) {
                    let used = [*i].into();
                    let step = DerivationStep::Identified {
                        depth: 0,
                        node: subject.clone(),
                        hypothesis: h.clone(),
                    };
                    self.stats.leaves_identified += 1;
                    answers.push(RawAnswer {
                        subst: Arc::new(mgu),
                        leaves: Vec::new(),
                        used,
                        root_rule: None,
                        trace: Chain::default().push(step),
                        tree: Chain::default(),
                        tree_from: 0,
                    });
                }
            }
        }

        // Root expansions, one per rule of the subject's predicate (read off
        // the compiled rules' head index) that can reach the hypothesis,
        // in rule order. Each starts a fresh `VarGen`: fresh-variable names
        // need only be distinct within one derivation, and every rendering
        // canonicalizes them.
        let base = Branch {
            subst: Arc::new(Subst::new()),
            occurrences: base_chain,
            untyped_uses: Chain::default(),
            leaves: Chain::default(),
            used: Chain::default(),
            trace: Chain::default(),
        };
        let tidb = self.tidb;
        for &ri in tidb.rule_indexes_for(&subject.pred) {
            if !self.applies(ri) {
                continue;
            }
            self.gen = VarGen::new();
            for b in self.apply_rule(subject, ri, Tag::Untagged, &base, 0) {
                let productive = b.used.len() > 0;
                if !productive && !self.exhaustive {
                    // Tracked separately: the rule's unproductive branches
                    // are represented by its one-level answer (driver).
                    self.stats.cuts += 1;
                    continue;
                }
                if productive {
                    productive_rules.insert(ri);
                }
                answers.push(RawAnswer {
                    subst: b.subst,
                    leaves: b.leaves.items_from(0).cloned().collect(),
                    used: b.used.items_from(0).copied().collect(),
                    root_rule: Some(ri),
                    trace: b.trace,
                    tree: b.occurrences,
                    tree_from: base_len,
                });
            }
        }
        (answers, productive_rules)
    }

    /// Applies rule `ri` to `node` (boxes 8–9 / 9a–9e): unify the renamed
    /// rule head with the node, then enumerate the children left to right,
    /// threading the branch state. The branches come back with `ctx`'s
    /// leaves, identifications and steps followed by the subtree's own.
    fn apply_rule(
        &mut self,
        node: &Atom,
        ri: usize,
        node_tag: Tag,
        ctx: &Branch,
        depth: usize,
    ) -> Vec<Branch> {
        self.tick();
        if self.stopped() {
            return Vec::new();
        }
        // Hard recursion guard: a derivation this deep only arises from a
        // divergent (untransformed recursive) enumeration; cut the branch
        // instead of overflowing the stack. Both the configured bound and
        // the guard record the prune so the driver reports `Truncated`
        // rather than silently under-answering.
        const MAX_TREE_DEPTH: usize = 128;
        let depth_cap = self
            .opts
            .limits
            .max_depth
            .map_or(MAX_TREE_DEPTH, |m| m.min(MAX_TREE_DEPTH));
        if depth >= depth_cap {
            if self
                .opts
                .limits
                .max_depth
                .is_none_or(|m| m > MAX_TREE_DEPTH)
            {
                self.guard_prune = true;
            }
            self.prune_depth(depth, depth_cap);
            return Vec::new();
        }
        let kind = &self.tidb.kinds[ri];
        match kind {
            RuleKind::Transform { .. } | RuleKind::Continuation | RuleKind::Modified => {
                if node_tag == Tag::Zero {
                    return Vec::new();
                }
            }
            RuleKind::UntypedControlled => {
                let uses = ctx.untyped_uses.items_from(0).filter(|&&u| u == ri);
                if uses.count() >= self.opts.untyped_rule_limit {
                    return Vec::new();
                }
            }
            RuleKind::Ordinary => {}
        }

        // Standardize apart through the compiled rule's slot maps — the
        // same per-rule metadata the retrieve executor runs — instead of
        // re-collecting variables from the textual rule.
        let tidb = self.tidb;
        let renamed = tidb.compiled[ri].rename_apart(&mut self.gen);
        let node_now = ctx.subst.apply_atom(node);
        let Some(mgu) = unify_atoms(&node_now, &renamed.head) else {
            return Vec::new();
        };

        // Child tags per Figure 3 box 9e.
        let children: Vec<&Atom> = renamed.body.iter().map(|l| &l.atom).collect();
        let child_tags = self.child_tags(kind, node_tag, &children);

        self.stats.trees_expanded += 1;
        let occurrences = if self.record_tree {
            ctx.occurrences
                .extend(children.iter().map(|a| (*a).clone()).collect())
        } else {
            ctx.occurrences.clone()
        };
        let untyped_uses = if *kind == RuleKind::UntypedControlled {
            ctx.untyped_uses.push(ri)
        } else {
            ctx.untyped_uses.clone()
        };
        let start = Branch {
            subst: Arc::new(ctx.subst.compose(&mgu)),
            occurrences,
            untyped_uses,
            leaves: ctx.leaves.clone(),
            used: ctx.used.clone(),
            trace: ctx.trace.push(DerivationStep::Expanded {
                depth,
                node: node_now,
                rule: ri,
                text: tidb.rule_text(ri),
            }),
        };

        // Enumerate children sequentially (sibling results thread the
        // global substitution exactly like the flowchart's left-to-right
        // walk).
        let mut frontier = vec![start];
        for (child, tag) in children.iter().zip(child_tags) {
            let mut next = Vec::new();
            for b in &frontier {
                next.extend(self.visit(child, tag, b, depth + 1));
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        // A hard trip mid-children leaves the frontier's branches without
        // their remaining siblings' leaves — discard them rather than
        // return derivations with missing conjuncts.
        if self.stopped() {
            return Vec::new();
        }
        frontier
    }

    fn child_tags(&self, kind: &RuleKind, node_tag: Tag, children: &[&Atom]) -> Vec<Tag> {
        match kind {
            RuleKind::Ordinary | RuleKind::UntypedControlled => {
                vec![Tag::Untagged; children.len()]
            }
            RuleKind::Transform { step_pred } => children
                .iter()
                .map(|a| {
                    if a.pred == *step_pred {
                        Tag::Two
                    } else {
                        Tag::Zero
                    }
                })
                .collect(),
            RuleKind::Continuation => {
                // Children tags (1, 0) under tag 2; (0, 0) under tag 1.
                // An untagged t-node (queried directly) behaves like tag 2.
                let first = match node_tag {
                    Tag::Two | Tag::Untagged => Tag::One,
                    _ => Tag::Zero,
                };
                let mut tags = vec![Tag::Zero; children.len()];
                if let Some(t) = tags.first_mut() {
                    *t = first;
                }
                tags
            }
            RuleKind::Modified => {
                // The doubling rule plays both r_T and r_C: the second
                // recursive child may nest (tag 2 → 1 → 0), the first may
                // not.
                let second = match node_tag {
                    Tag::Untagged | Tag::Two => Tag::One,
                    _ => Tag::Zero,
                };
                let mut tags = vec![Tag::Zero; children.len()];
                if let Some(t) = tags.last_mut() {
                    *t = second;
                }
                tags
            }
        }
    }

    /// Visits one tree formula: identification, leaf, or productive
    /// expansion by the rules that can reach the hypothesis.
    fn visit(&mut self, node: &Atom, tag: Tag, ctx: &Branch, depth: usize) -> Vec<Branch> {
        self.tick();
        if self.stopped() {
            return Vec::new();
        }

        // Comparisons are never identified and never expanded (§4).
        if node.is_builtin() {
            return vec![ctx.with_leaf(node)];
        }
        let mut out = Vec::new();

        // (1) Identify with a hypothesis formula. Unification needs the
        // predicate and arity to agree, which no substitution changes, so
        // a candidate of another signature is passed over unsubstituted.
        let mut node_now: Option<Atom> = None;
        for k in 0..self.hyp_atoms.len() {
            self.tick();
            if self.stopped() {
                return Vec::new();
            }
            let (i, h) = &self.hyp_atoms[k];
            if !node.same_signature(h) {
                continue;
            }
            let i = *i;
            let h_now = ctx.subst.apply_atom(h);
            let node_now = node_now.get_or_insert_with(|| ctx.subst.apply_atom(node));
            if let Some(mgu) = unify_atoms(node_now, &h_now) {
                if self.typing_ok(&ctx.occurrences, &ctx.subst, &mgu) {
                    self.stats.leaves_identified += 1;
                    out.push(Branch {
                        subst: Arc::new(ctx.subst.compose(&mgu)),
                        occurrences: ctx.occurrences.clone(),
                        untyped_uses: ctx.untyped_uses.clone(),
                        leaves: ctx.leaves.clone(),
                        used: ctx.used.push(i),
                        trace: ctx.trace.push(DerivationStep::Identified {
                            depth,
                            node: node_now.clone(),
                            hypothesis: h_now,
                        }),
                    });
                }
            }
        }

        // (2) Leave as an unidentified leaf.
        out.push(ctx.with_leaf(node));

        // (3) Expand with each rule of the node's predicate, keeping only
        // subtrees that identified something (the cut of §4). A formula
        // whose predicate has no entry in the compiled head index is
        // necessarily a leaf — no rule scan needed to decide — and a rule
        // that cannot reach the hypothesis is not applied: the cut would
        // discard everything it yields.
        let tidb = self.tidb;
        for &ri in tidb.rule_indexes_for(&node.pred) {
            if self.stopped() {
                return Vec::new();
            }
            if !self.applies(ri) {
                continue;
            }
            for b in self.apply_rule(node, ri, tag, ctx, depth) {
                // The §4 cut tests exactly the subtree's identifications:
                // those it added to the context's.
                if b.used.len() == ctx.used.len() && !self.exhaustive {
                    self.stats.cuts += 1;
                    continue;
                }
                out.push(b);
            }
        }

        out
    }

    /// Typing preservation (Algorithm 2, box 4 refinement): a substitution
    /// is disqualified if applying it to the tree's formulas *newly* makes
    /// some predicate hold one variable in two different argument
    /// positions. Pre-existing position conflicts (e.g. the chained
    /// `prereq(X, Z₁) ∧ prereq(Z₁, Z₂)` shape that linear recursion
    /// legitimately builds) are tolerated; only conflicts the candidate
    /// substitution *introduces* disqualify it.
    fn typing_ok(&self, occurrences: &Chain<Atom>, before: &Subst, mgu: &Subst) -> bool {
        if !self.check_typing {
            return true;
        }
        let after = before.compose(mgu);
        let conflicts_before = conflicts(occurrences.items_from(0), before);
        let conflicts_after = conflicts(occurrences.items_from(0), &after);
        conflicts_after.is_subset(&conflicts_before)
    }
}

/// The set of (predicate, variable) pairs where the variable occurs at two
/// or more distinct argument positions across the substituted occurrences.
fn conflicts<'a>(
    occurrences: impl Iterator<Item = &'a Atom>,
    subst: &Subst,
) -> BTreeSet<(String, Var)> {
    let mut position_of: HashMap<(String, Var), usize> = HashMap::new();
    let mut bad = BTreeSet::new();
    for atom in occurrences {
        let a = subst.apply_atom(atom);
        for (i, t) in a.args.iter().enumerate() {
            if let Term::Var(v) = t {
                let key = (a.pred.to_string(), v.clone());
                match position_of.get(&key) {
                    Some(&p) if p != i => {
                        bad.insert(key);
                    }
                    Some(_) => {}
                    None => {
                        position_of.insert(key, i);
                    }
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformPolicy;
    use crate::transform::transform_idb;
    use qdk_engine::Idb;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn tidb(src: &str, policy: TransformPolicy) -> TransformedIdb {
        let idb = Idb::from_rules(parse_program(src).unwrap().rules).unwrap();
        transform_idb(&idb, policy).unwrap()
    }

    fn university_src() -> &'static str {
        "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
         can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
         can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0)."
    }

    #[test]
    fn no_hypothesis_yields_no_deep_answers() {
        // With an empty hypothesis nothing can identify: all rules are
        // unproductive and enumeration returns no raw answers (the driver
        // supplies the one-level answers).
        let t = tidb(university_src(), TransformPolicy::PreferModified);
        let opts = DescribeOptions::default();
        let mut e = Enumerator::new(&t, &[], false, &opts);
        let (answers, productive) = e.enumerate(&parse_atom("honor(X)").unwrap());
        assert!(answers.is_empty());
        assert!(productive.is_empty());
        assert_eq!(e.truncation(), None);
    }

    #[test]
    fn identification_inside_expansion() {
        // describe can_ta(X, Y) where honor(X): rule bodies' honor(X)
        // leaves identify; both rules are productive.
        let t = tidb(university_src(), TransformPolicy::PreferModified);
        let opts = DescribeOptions::default();
        let hyp = parse_body("honor(H)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, productive) = e.enumerate(&parse_atom("can_ta(X, Y)").unwrap());
        assert_eq!(productive.len(), 2);
        // Each rule yields exactly one hypothesis-using derivation (honor
        // identified), since nothing else matches.
        assert_eq!(answers.len(), 2);
        for a in &answers {
            assert_eq!(a.used.len(), 1);
            assert!(a.root_rule.is_some());
            // honor does not appear among the leaves (it was identified).
            assert!(a.leaves.iter().all(|l| l.pred != "honor"));
        }
    }

    #[test]
    fn unproductive_subtree_is_cut() {
        // describe can_ta(X, Y) where student(S, M, G): honor's expansion
        // (student ∧ gpa) can identify the student atom — the subtree IS
        // productive. But with a hypothesis matching nothing inside honor,
        // honor must stay an unexpanded leaf.
        let t = tidb(university_src(), TransformPolicy::PreferModified);
        let opts = DescribeOptions::default();
        let hyp = parse_body("teach(susan, C)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, _) = e.enumerate(&parse_atom("can_ta(X, Y)").unwrap());
        // Only rule 1 mentions teach; its derivation keeps honor as a leaf
        // (never expanded — expanding it would identify nothing).
        assert_eq!(answers.len(), 1);
        let a = &answers[0];
        assert!(a.leaves.iter().any(|l| l.pred == "honor"));
        assert!(a.leaves.iter().all(|l| l.pred != "student"));
        assert!(a.leaves.iter().all(|l| l.pred != "teach"));
    }

    #[test]
    fn nested_identification_through_expansion() {
        // describe can_ta(X, databases) where student(X, math, V), V > 3.7
        // (Example 3): honor expands, its student leaf identifies, its
        // comparison becomes a leaf.
        let t = tidb(university_src(), TransformPolicy::PreferModified);
        let opts = DescribeOptions::default();
        let hyp = parse_body("student(X, math, V), V > 3.7").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, productive) = e.enumerate(&parse_atom("can_ta(X, databases)").unwrap());
        assert_eq!(productive.len(), 2);
        // Every answer identified the student hypothesis (index 0).
        assert!(answers.iter().all(|a| a.used.contains(&0)));
        // Some answer from rule 0 contains the (Z > 3.7) comparison leaf
        // from honor's definition.
        assert!(answers
            .iter()
            .any(|a| a.leaves.iter().any(|l| l.pred == ">")));
    }

    #[test]
    fn tags_bound_recursive_applications() {
        let t = tidb(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            TransformPolicy::AlwaysArtificial,
        );
        let opts = DescribeOptions::default();
        let hyp = parse_body("prior(databases, Y)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, true, &opts);
        // Terminates (no budget needed) — the whole point of Algorithm 2.
        let (answers, _) = e.enumerate(&parse_atom("prior(X, Y)").unwrap());
        assert!(!answers.is_empty());
        // Root identification is among them.
        assert!(answers.iter().any(|a| a.root_rule.is_none()));
        // No limit tripped: the transformed enumeration is complete.
        assert_eq!(e.truncation(), None);
    }

    #[test]
    fn untransformed_recursion_soft_stops_at_budget() {
        let t = tidb(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            TransformPolicy::None,
        );
        // Small enough to trip before the walk exhausts the built-in
        // recursion guard (the guarded walk itself is finite).
        let opts = DescribeOptions::default().with_work_budget(500);
        let hyp = parse_body("prior(databases, Y)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        // The divergent walk no longer errors: it drains and reports.
        let (_, _) = e.enumerate(&parse_atom("prior(X, Y)").unwrap());
        let trunc = e.truncation().expect("budget must trip");
        assert_eq!(trunc.resource, Resource::WorkBudget);
        assert_eq!(trunc.limit, 500);
        assert!(trunc.spent > trunc.limit);
        assert!(e.hard_stop());
    }

    #[test]
    fn untransformed_recursion_with_depth_bound_shows_chain_family() {
        let t = tidb(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            TransformPolicy::None,
        );
        let opts = DescribeOptions::default().with_max_depth(6);
        let hyp = parse_body("prior(databases, Y)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, _) = e.enumerate(&parse_atom("prior(X, Y)").unwrap());
        // One chain answer per depth: prereq(X, db); prereq(X,Z1) ∧
        // prereq(Z1, db); … — the deeper the bound, the more answers.
        let chain_answers = answers.iter().filter(|a| a.root_rule.is_some()).count();
        assert!(chain_answers >= 3, "got {chain_answers}");
        // The depth prune is reported, not silent — but a configured bound
        // is not a hard stop: post-processing still runs on the prefix.
        let trunc = e.truncation().expect("depth prune must be recorded");
        assert_eq!(trunc.resource, Resource::Depth);
        assert_eq!(trunc.limit, 6);
        assert!(!e.hard_stop());
    }

    #[test]
    fn typing_check_blocks_example7_loops() {
        let t = tidb(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            TransformPolicy::None,
        );
        // Hypothesis prior(X, databases) — Example 7. With typing checks
        // and a depth bound, no prereq-loop answers appear.
        let opts = DescribeOptions::default().with_max_depth(6);
        let hyp = parse_body("prior(X, databases)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, true, &opts);
        let (answers, _) = e.enumerate(&parse_atom("prior(X, Y)").unwrap());
        for a in &answers {
            // No leaf may be a prereq atom whose two arguments were forced
            // to the same variable, or that closes a loop back to X.
            for l in &a.leaves {
                let l = a.subst.apply_atom(l);
                if l.pred == "prereq" {
                    assert_ne!(l.args[0], l.args[1], "unsound loop: {l}");
                }
            }
        }
        // The root identification (Y = databases rendering) survives.
        assert!(answers.iter().any(|a| a.root_rule.is_none()));
    }

    #[test]
    fn without_typing_check_example7_loops_appear() {
        let t = tidb(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            TransformPolicy::None,
        );
        let opts = DescribeOptions::default().with_max_depth(6);
        let hyp = parse_body("prior(X, databases)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, _) = e.enumerate(&parse_atom("prior(X, Y)").unwrap());
        let mut found_loop = false;
        for a in &answers {
            for l in &a.leaves {
                let l = a.subst.apply_atom(l);
                if l.pred == "prereq" && l.args[0] == l.args[1] {
                    found_loop = true;
                }
            }
        }
        assert!(found_loop, "expected the paper's unsound prereq(X, X) leaf");
    }

    #[test]
    fn untyped_rule_application_is_capped() {
        let t = tidb(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- reach(Y, X).",
            TransformPolicy::PreferModified,
        );
        let opts = DescribeOptions::default(); // limit 1
        let hyp = parse_body("reach(B, A)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, true, &opts);
        // Terminates despite the symmetric rule; finds the derivation that
        // applies it once and identifies the flipped hypothesis.
        let (answers, _) = e.enumerate(&parse_atom("reach(A, B)").unwrap());
        assert!(answers
            .iter()
            .any(|a| a.root_rule.is_some() && a.leaves.is_empty() && !a.used.is_empty()));
    }

    #[test]
    fn budget_counts_work() {
        let t = tidb(university_src(), TransformPolicy::PreferModified);
        let opts = DescribeOptions::default();
        let hyp = parse_body("honor(H)").unwrap();
        let mut e = Enumerator::new(&t, &hyp, false, &opts);
        e.enumerate(&parse_atom("can_ta(X, Y)").unwrap());
        assert!(e.ops() > 0);
    }

    #[test]
    fn same_hypothesis_index_identifies_in_two_sibling_subtrees() {
        // Regression: productivity of an expansion is judged on the
        // subtree's own identifications — a subtree re-identifying an
        // index an earlier sibling already used must not be cut.
        let t = tidb(
            "p(X) :- a(X), b(X).\n\
             a(X) :- e(X), f(X).\n\
             b(X) :- e(X), g(X).",
            TransformPolicy::PreferModified,
        );
        let opts = DescribeOptions::default();
        let hyp = parse_body("e(H)").unwrap();
        let mut en = Enumerator::new(&t, &hyp, false, &opts);
        let (answers, _) = en.enumerate(&parse_atom("p(X)").unwrap());
        // The both-expanded derivation exists: leaves f and g only.
        assert!(
            answers.iter().any(|a| {
                let preds: Vec<&str> = a.leaves.iter().map(|l| l.pred.as_str()).collect();
                preds == ["f", "g"]
            }),
            "missing double-identification derivation"
        );
    }
}
