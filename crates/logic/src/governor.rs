//! Unified resource governor shared by every evaluation stack.
//!
//! The paper's own Examples 6–8 show that `describe` on recursive subjects
//! can diverge, and §6 bounds untyped recursion by capping rule
//! applications: resource exhaustion is a *first-class semantic outcome* of
//! querying database knowledge, not an accident. This module replaces the
//! seed's scattered, incompatible guards (tree-operation budgets in
//! `qdk-core`, rule-firing budgets in `qdk-engine`, silent `max_depth`
//! pruning) with one vocabulary:
//!
//! * [`ResourceLimits`] — declarative bounds: wall-clock deadline, abstract
//!   work budget, derivation-tree depth, and derived-fact count;
//! * [`CancelToken`] — cheap cooperative cancellation, flippable from
//!   another thread;
//! * [`Governor`] — the runtime accountant, ticked from evaluation inner
//!   loops, with amortized clock polling (the clock and the cancel flag are
//!   consulted every [`Governor::POLL_INTERVAL`] ticks, not every tick);
//! * [`Exhausted`] — the structured diagnostic every layer reports, naming
//!   the [`Resource`] that ran out, how much was spent, and the limit.
//!
//! The governor lives in `qdk-logic` (the dependency-free base crate) so
//! that both `qdk-engine` and `qdk-core` can share the *same* types; both
//! crates re-export the five types at their roots for facade users.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Declarative bounds on one evaluation. All limits default to `None`
/// (unbounded); combine freely with the builder methods.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock bound for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Abstract work budget: one unit per governor tick (a rule firing in
    /// the engine, a tree operation in describe).
    pub work_budget: Option<u64>,
    /// Maximum derivation-tree depth (describe pipeline only).
    pub max_depth: Option<usize>,
    /// Maximum number of derived facts (bottom-up engine strategies).
    pub max_facts: Option<usize>,
}

impl ResourceLimits {
    /// No limits at all.
    pub const UNBOUNDED: ResourceLimits = ResourceLimits {
        deadline: None,
        work_budget: None,
        max_depth: None,
        max_facts: None,
    };

    /// Set a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set an abstract work budget (rule firings / tree operations).
    #[must_use]
    pub fn with_work_budget(mut self, budget: u64) -> Self {
        self.work_budget = Some(budget);
        self
    }

    /// Set a maximum derivation-tree depth.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Set a maximum derived-fact count.
    #[must_use]
    pub fn with_max_facts(mut self, facts: usize) -> Self {
        self.max_facts = Some(facts);
        self
    }

    /// True when no limit is set (the governor can skip all accounting).
    pub fn is_unbounded(&self) -> bool {
        *self == ResourceLimits::UNBOUNDED
    }
}

/// The resource that ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The abstract work budget was spent.
    WorkBudget,
    /// The derivation-tree depth bound was reached.
    Depth,
    /// The derived-fact bound was reached.
    Facts,
    /// The evaluation was cancelled from another thread.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Resource::Deadline => "deadline",
            Resource::WorkBudget => "work budget",
            Resource::Depth => "depth",
            Resource::Facts => "fact count",
            Resource::Cancelled => "cancellation",
        };
        f.write_str(name)
    }
}

/// Structured exhaustion diagnostic: which resource ran out, how much was
/// spent, and what the limit was. `spent`/`limit` are in the resource's
/// natural unit (milliseconds for [`Resource::Deadline`], ticks for
/// [`Resource::WorkBudget`], levels for [`Resource::Depth`], facts for
/// [`Resource::Facts`]; both are 0 for [`Resource::Cancelled`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Exhausted {
    /// The resource that ran out.
    pub resource: Resource,
    /// How much of it was consumed when the limit tripped.
    pub spent: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "evaluation cancelled"),
            Resource::Deadline => write!(
                f,
                "deadline exhausted: {}ms spent of {}ms allowed",
                self.spent, self.limit
            ),
            r => write!(
                f,
                "{r} exhausted: {} spent of {} allowed",
                self.spent, self.limit
            ),
        }
    }
}

impl std::error::Error for Exhausted {}

/// Cooperative cancellation flag, cheaply clonable and checkable from any
/// thread. Cancelling is sticky: once set, every governor sharing the token
/// trips with [`Resource::Cancelled`] at its next poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation of every evaluation holding a clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Runtime resource accountant. Construct one per evaluation, call
/// [`Governor::tick`] from inner loops, and report the returned
/// [`Exhausted`] diagnostic. The first trip wins and is sticky: after any
/// limit trips, every subsequent check returns the same diagnostic.
///
/// Governors are *share-safe*: the counters and the sticky trip live in
/// atomics behind an `Arc`, so `Clone` hands out another handle onto the
/// **same** accounting. Clones within one statement share one set of
/// accounts — one deadline, one work budget and one fact bound — and the
/// first trip any clone observes is the diagnostic all of them report
/// (`spent` in the diagnostic is the statement's total).
#[derive(Clone, Debug)]
pub struct Governor {
    limits: ResourceLimits,
    cancel: Option<CancelToken>,
    start: Instant,
    shared: Arc<GovernorState>,
}

/// The cross-thread accounting cell shared by every clone of a governor.
#[derive(Debug, Default)]
struct GovernorState {
    ticks: AtomicU64,
    facts: AtomicU64,
    tripped: OnceLock<Exhausted>,
}

impl Governor {
    /// The clock and cancel flag are polled once per this many ticks;
    /// work-budget and fact limits are exact.
    pub const POLL_INTERVAL: u64 = 256;

    /// Governor enforcing `limits`, with the clock starting now.
    pub fn new(limits: ResourceLimits) -> Self {
        Governor {
            limits,
            cancel: None,
            start: Instant::now(),
            shared: Arc::new(GovernorState::default()),
        }
    }

    /// An unbounded governor (all accounting is skipped).
    pub fn unbounded() -> Self {
        Governor::new(ResourceLimits::UNBOUNDED)
    }

    /// Attach a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The limits this governor enforces.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// Units of work spent so far (across every clone of this governor).
    pub fn work_spent(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// The first limit that tripped, if any.
    pub fn tripped(&self) -> Option<Exhausted> {
        self.shared.tripped.get().copied()
    }

    /// Record one unit of work. Returns the sticky exhaustion diagnostic if
    /// any limit has tripped. Cheap: the work counter is exact, while the
    /// clock and cancel flag are consulted only every
    /// [`Governor::POLL_INTERVAL`] ticks.
    pub fn tick(&self) -> Result<(), Exhausted> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        let ticks = self.shared.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.limits.work_budget {
            if ticks > budget {
                return Err(self.trip(Resource::WorkBudget, ticks, budget));
            }
        }
        // Poll on the first tick (so pre-expired deadlines and already
        // cancelled tokens are caught immediately) and then once per
        // interval.
        if ticks % Self::POLL_INTERVAL == 1 {
            self.poll()?;
        }
        Ok(())
    }

    /// Record `n` newly derived facts. Returns the sticky diagnostic if the
    /// fact limit (or a previously tripped limit) is exceeded.
    pub fn add_facts(&self, n: usize) -> Result<(), Exhausted> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        let facts = self.shared.facts.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        if let Some(max) = self.limits.max_facts {
            if facts > max as u64 {
                return Err(self.trip(Resource::Facts, facts, max as u64));
            }
        }
        Ok(())
    }

    /// Check a derivation-tree depth against the depth limit without
    /// recording work. Returns the diagnostic the *caller* should attach if
    /// `depth` is at or beyond the bound (the governor also records it as
    /// its sticky trip so the truncation is reported, not silent).
    pub fn check_depth(&self, depth: usize) -> Result<(), Exhausted> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        if let Some(max) = self.limits.max_depth {
            if depth >= max {
                return Err(self.trip(Resource::Depth, depth as u64, max as u64));
            }
        }
        Ok(())
    }

    /// Force the clock/cancellation poll regardless of tick phase. Useful
    /// before expensive non-tick work (e.g. a post-processing pass) and
    /// inside one long firing, which observes a deadline or cancel
    /// promptly without spending work ticks.
    pub fn poll(&self) -> Result<(), Exhausted> {
        if let Some(e) = self.tripped() {
            return Err(e);
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.trip(Resource::Cancelled, 0, 0));
            }
        }
        if let Some(deadline) = self.limits.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(self.trip(
                    Resource::Deadline,
                    elapsed.as_millis() as u64,
                    deadline.as_millis() as u64,
                ));
            }
        }
        Ok(())
    }

    fn trip(&self, resource: Resource, spent: u64, limit: u64) -> Exhausted {
        let e = Exhausted {
            resource,
            spent,
            limit,
        };
        // First trip wins, racing clones included: if another thread has
        // already tripped, its diagnostic is the sticky one.
        let _ = self.shared.tripped.set(e);
        *self.shared.tripped.get().unwrap_or(&e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_never_trips() {
        let g = Governor::unbounded();
        for _ in 0..100_000 {
            g.tick().unwrap();
        }
        g.add_facts(1_000_000).unwrap();
        assert_eq!(g.tripped(), None);
    }

    #[test]
    fn work_budget_is_exact_and_sticky() {
        let g = Governor::new(ResourceLimits::default().with_work_budget(10));
        for _ in 0..10 {
            g.tick().unwrap();
        }
        let e = g.tick().unwrap_err();
        assert_eq!(e.resource, Resource::WorkBudget);
        assert_eq!(e.spent, 11);
        assert_eq!(e.limit, 10);
        // Sticky: the same diagnostic comes back, and other checks fail too.
        assert_eq!(g.tick().unwrap_err(), e);
        assert_eq!(g.add_facts(1).unwrap_err(), e);
        assert_eq!(g.tripped(), Some(e));
    }

    #[test]
    fn deadline_trips_via_amortized_poll() {
        let g = Governor::new(ResourceLimits::default().with_deadline(Duration::from_millis(1)));
        thread::sleep(Duration::from_millis(5));
        // The first tick polls, so an already-expired deadline is caught
        // immediately.
        let e = g.tick().unwrap_err();
        assert_eq!(e.resource, Resource::Deadline);
        assert!(e.spent >= e.limit);
        assert_eq!(e.limit, 1);
    }

    #[test]
    fn deadline_polling_is_amortized() {
        let g = Governor::new(ResourceLimits::default().with_deadline(Duration::from_secs(3600)));
        // Ticks between poll boundaries must not consult the clock; this
        // just exercises the fast path for a large tick count.
        for _ in 0..10_000 {
            g.tick().unwrap();
        }
        assert_eq!(g.work_spent(), 10_000);
    }

    #[test]
    fn fact_limit_trips() {
        let g = Governor::new(ResourceLimits::default().with_max_facts(100));
        g.add_facts(60).unwrap();
        let e = g.add_facts(60).unwrap_err();
        assert_eq!(e.resource, Resource::Facts);
        assert_eq!(e.spent, 120);
        assert_eq!(e.limit, 100);
    }

    #[test]
    fn depth_check_trips_at_bound() {
        let g = Governor::new(ResourceLimits::default().with_max_depth(4));
        g.check_depth(3).unwrap();
        let e = g.check_depth(4).unwrap_err();
        assert_eq!(e.resource, Resource::Depth);
        assert_eq!(e.limit, 4);
    }

    #[test]
    fn cancel_token_observed_cross_thread() {
        let token = CancelToken::new();
        let g = Governor::new(ResourceLimits::default()).with_cancel(Some(token.clone()));
        let handle = thread::spawn(move || token.cancel());
        handle.join().unwrap();
        let e = g.poll().unwrap_err();
        assert_eq!(e.resource, Resource::Cancelled);
    }

    #[test]
    fn clones_share_accounting_across_threads() {
        // One budget governs every clone: clones aggregate spend, and the
        // first trip is the sticky diagnostic for every clone.
        let g = Governor::new(ResourceLimits::default().with_work_budget(1000));
        let workers: Vec<_> = (0..4).map(|_| g.clone()).collect();
        thread::scope(|s| {
            for w in &workers {
                s.spawn(move || {
                    for _ in 0..300 {
                        if w.tick().is_err() {
                            return;
                        }
                    }
                });
            }
        });
        // 4 × 300 = 1200 attempted ticks against a budget of 1000.
        let e = g.tick().unwrap_err();
        assert_eq!(e.resource, Resource::WorkBudget);
        assert_eq!(e.limit, 1000);
        assert!(e.spent > 1000);
        for w in &workers {
            assert_eq!(w.tripped(), Some(e));
        }
    }

    #[test]
    fn clones_share_fact_accounting() {
        let g = Governor::new(ResourceLimits::default().with_max_facts(10));
        let h = g.clone();
        g.add_facts(6).unwrap();
        let e = h.add_facts(6).unwrap_err();
        assert_eq!(e.resource, Resource::Facts);
        assert_eq!(e.spent, 12);
        assert_eq!(g.tripped(), Some(e));
    }

    #[test]
    fn display_is_human_readable() {
        let e = Exhausted {
            resource: Resource::WorkBudget,
            spent: 11,
            limit: 10,
        };
        assert_eq!(
            e.to_string(),
            "work budget exhausted: 11 spent of 10 allowed"
        );
        let d = Exhausted {
            resource: Resource::Deadline,
            spent: 55,
            limit: 50,
        };
        assert_eq!(
            d.to_string(),
            "deadline exhausted: 55ms spent of 50ms allowed"
        );
    }
}
