//! Describe-engine configuration.

use qdk_logic::governor::{CancelToken, Governor, ResourceLimits};
use qdk_logic::obs::ObsSink;
use qdk_logic::Parallelism;
use std::time::Duration;

/// When are one-level answers (plain IDB definitions) emitted?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Figure 1's flag discipline, taken per rule: a root rule that
    /// produced no hypothesis-using theorem contributes its definition as
    /// a one-level answer (box 19). Faithful to the flowchart.
    #[default]
    PerRule,
    /// One-level answers are emitted only when *no* root rule (and no root
    /// identification) produced a hypothesis-using theorem — the behaviour
    /// the paper's printed examples exhibit (Example 6 lists no
    /// `prior ← prereq` answer). See EXPERIMENTS.md for the discrepancy
    /// discussion.
    Global,
}

/// Which rule transformation Algorithm 2 applies to recursive predicates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransformPolicy {
    /// Use the paper's *modified* transformation (reusing the recursive
    /// predicate itself, `p(X,Y) ← p(X,Z) ∧ p(Z,Y)`) whenever the
    /// recursion's shape permits it, falling back to the Imielinski
    /// transformation with an artificial `t` predicate otherwise. This
    /// yields the paper's "clearly preferable" answers (§5.3).
    #[default]
    PreferModified,
    /// Always use the Imielinski transformation (artificial predicate).
    AlwaysArtificial,
    /// Do not transform at all — Algorithm 1 behaviour, which on recursive
    /// subjects diverges (Examples 6–8); combine with a budget to
    /// demonstrate.
    None,
}

/// Options controlling `describe` evaluation.
#[derive(Clone, Debug)]
pub struct DescribeOptions {
    /// One-level-answer policy.
    pub fallback: FallbackPolicy,
    /// Transformation policy for recursive predicates.
    pub transform: TransformPolicy,
    /// Maximum applications of an *untyped* recursive rule per branch
    /// (§6: such rules are not transformed; their application count is
    /// controlled instead). Default 1: enough for the symmetric-
    /// reachability query of the introduction.
    pub untyped_rule_limit: usize,
    /// Unified resource limits (wall-clock deadline, work budget, tree
    /// depth, fact count) enforced by the shared [`Governor`]. With
    /// conforming IDBs every algorithm terminates; the limits bound
    /// Algorithm 1's divergence on recursive subjects (Examples 6–8) and
    /// runaway workloads generally. When a limit trips, `describe` returns
    /// the answers found so far tagged
    /// [`crate::Completeness::Truncated`] instead of erroring.
    pub limits: ResourceLimits,
    /// Cooperative cancellation token, checkable from another thread.
    pub cancel: Option<CancelToken>,
    /// Apply the comparison post-processing of §4 (drop implied
    /// comparisons, discard contradicted answers). Disabled only by the A1
    /// ablation benchmark.
    pub simplify_comparisons: bool,
    /// Remove θ-subsumed answers (§3.2's redundancy freedom). Disabled
    /// only by the A2 ablation benchmark.
    pub remove_redundant: bool,
    /// Worker count for a `retrieve` served under these options (the
    /// knowledge base hands it to the engine; `Default` =
    /// [`Parallelism::SEQUENTIAL`], so parallel rounds are opt-in). The
    /// describe family ignores it: derivation-tree enumeration
    /// runs on the calling thread, because a computed describe costs tens
    /// of microseconds, about what spawning threads for it would add.
    pub parallelism: Parallelism,
    /// Observability sink; Algorithm 1/2 spans and counters are emitted
    /// here (the default disabled sink records nothing and costs one
    /// branch).
    pub sink: ObsSink,
}

impl Default for DescribeOptions {
    fn default() -> Self {
        DescribeOptions {
            fallback: FallbackPolicy::default(),
            transform: TransformPolicy::default(),
            untyped_rule_limit: 1,
            limits: ResourceLimits::default(),
            cancel: None,
            simplify_comparisons: true,
            remove_redundant: true,
            parallelism: Parallelism::default(),
            sink: ObsSink::disabled(),
        }
    }
}

impl DescribeOptions {
    /// Options matching the paper's printed examples (global fallback).
    pub fn paper() -> Self {
        DescribeOptions {
            fallback: FallbackPolicy::Global,
            ..DescribeOptions::default()
        }
    }

    /// Sets the abstract work budget (tree operations).
    pub fn with_work_budget(mut self, budget: u64) -> Self {
        self.limits.work_budget = Some(budget);
        self
    }

    /// Sets a wall-clock deadline for the whole describe evaluation.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.limits.deadline = Some(deadline);
        self
    }

    /// Replaces all resource limits at once.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the transformation policy.
    pub fn with_transform(mut self, policy: TransformPolicy) -> Self {
        self.transform = policy;
        self
    }

    /// Sets the fallback policy.
    pub fn with_fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Sets the maximum derivation-tree depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.limits.max_depth = Some(depth);
        self
    }

    /// Sets the worker count a `retrieve` runs with.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Installs an observability sink.
    #[must_use]
    pub fn with_sink(mut self, sink: ObsSink) -> Self {
        self.sink = sink;
        self
    }

    /// Builds the governor for one describe evaluation.
    pub(crate) fn governor(&self) -> Governor {
        Governor::new(self.limits).with_cancel(self.cancel.clone())
    }
}
