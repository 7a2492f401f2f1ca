//! The knowledge base facade: one coherent instrument for data and
//! knowledge.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::answer::Answer;
use crate::ast::Statement;
use crate::error::Result;
use crate::parser::{parse_script, parse_statement};
use qdk_core::{
    compare, extensions, redundancy, Describe, DescribeCache, DescribeOptions, PreparedIdb,
};
use qdk_durability::{
    CheckpointData, DurabilityMetrics, DurabilityOptions, Durable, Lsn, Opened, RecoveryReport,
    RelationSnapshot, WalOp,
};
use qdk_engine::graph::DependencyGraph;
use qdk_engine::maintain::Doomed;
use qdk_engine::{
    query, AutoChoice, Downgrade, Idb, MaintainStats, MaintainedStore, ProgramPlan, Retraction,
    Retrieve, Strategy,
};
use qdk_logic::metrics::{MetricsHub, MetricsSink, MetricsSnapshot};
use qdk_logic::obs::{Event, FanoutSink, ObsSink};
use qdk_logic::{Constraint, Rule, Sym, Term};
use qdk_storage::{Edb, Tuple};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One value derived from the rules alone, cached under the rules
/// generation it was built for. Interior-mutable so queries — which take
/// `&self`, possibly from several snapshot readers at once — can fill it
/// on first use. Two of these hang off a knowledge base: the compiled
/// program `retrieve` runs ([`ProgramPlan`]) and the rule base prepared
/// for `describe` ([`PreparedIdb`]).
///
/// Fact mutations do **not** touch either: a compiled program depends
/// only on the IDB (rule bodies, literal schedules) plus a cardinality
/// snapshot that steers join *order*, never answers — so fact churn can
/// at worst leave the order mildly stale, and the next rule change or
/// explicit [`KnowledgeBase::invalidate_plan`] refreshes the stats along
/// with the plans — and a preparation never reads the EDB at all. Rule
/// and constraint mutations move the knowledge base to a new generation,
/// which makes the cached entry unreachable.
struct GenCache<T>(Mutex<Option<(u64, Arc<T>)>>);

impl<T> GenCache<T> {
    /// Locks the slot; a poisoned lock only means another thread
    /// panicked mid-access, and the cached value (or `None`) is still
    /// coherent, so recover the guard instead of propagating.
    fn slot(&self) -> MutexGuard<'_, Option<(u64, Arc<T>)>> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The value cached for rules generation `gen` if it `fits` the
    /// request; otherwise `build`s one (under the lock, so concurrent
    /// readers build once) and caches it in the other's place. The flag
    /// reports whether this call was a cache hit (for observability).
    fn get_or_build(
        &self,
        gen: u64,
        fits: impl Fn(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let mut slot = self.slot();
        if let Some((cached_gen, v)) = &*slot {
            if *cached_gen == gen && fits(v) {
                return (Arc::clone(v), true);
            }
        }
        let v = Arc::new(build());
        *slot = Some((gen, Arc::clone(&v)));
        (v, false)
    }

    /// Takes over `other`'s entry when it was built for generation `gen`
    /// and this cache holds nothing for that generation.
    fn adopt(&self, gen: u64, other: &GenCache<T>) {
        let theirs = other.slot().clone();
        let mut slot = self.slot();
        let stale = !matches!(&*slot, Some((g, _)) if *g == gen);
        if stale && matches!(&theirs, Some((g, _)) if *g == gen) {
            *slot = theirs;
        }
    }

    /// Drops the cached value; the next use rebuilds.
    fn invalidate(&self) {
        *self.slot() = None;
    }
}

impl<T> Default for GenCache<T> {
    fn default() -> Self {
        GenCache(Mutex::new(None))
    }
}

impl<T> Clone for GenCache<T> {
    fn clone(&self) -> Self {
        GenCache(Mutex::new(self.slot().clone()))
    }
}

impl<T> std::fmt::Debug for GenCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.slot() {
            Some((gen, _)) => write!(f, "GenCache(generation {gen})"),
            None => write!(f, "GenCache(empty)"),
        }
    }
}

/// Rules generations are unique within the process: two knowledge bases
/// carry the same generation only when one is a clone of the other and
/// neither's rules or constraints have changed since. That is what lets a
/// generation — never an address — identify what a [`GenCache`] entry was
/// built from, also across the clones an epoch publish makes. Generation
/// 0 is the empty rule base every new knowledge base starts from.
fn next_rules_gen() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Only uniqueness matters; the counter publishes no other data.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Downgrades recorded by mutation-side maintenance — an incremental step
/// that fell back to full recomputation, or a maintained store that had
/// to be dropped — queued for the next retrieve's answer so degraded
/// service is never silent. Interior-mutable because retrieves take
/// `&self`.
#[derive(Default)]
struct PendingDowngrades(Mutex<Vec<Downgrade>>);

impl PendingDowngrades {
    fn guard(&self) -> MutexGuard<'_, Vec<Downgrade>> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, d: Downgrade) {
        self.guard().push(d);
    }

    fn drain(&self) -> Vec<Downgrade> {
        std::mem::take(&mut *self.guard())
    }

    fn snapshot(&self) -> Vec<Downgrade> {
        self.guard().clone()
    }
}

impl Clone for PendingDowngrades {
    fn clone(&self) -> Self {
        PendingDowngrades(Mutex::new(self.snapshot()))
    }
}

impl std::fmt::Debug for PendingDowngrades {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingDowngrades({})", self.guard().len())
    }
}

/// The describe-answer cache behind a lock, so knowledge queries — which
/// take `&self` — can record their answers (see [`qdk_core::cache`]).
#[derive(Default)]
struct DescribeCacheCell(Mutex<DescribeCache>);

impl DescribeCacheCell {
    fn guard(&self) -> MutexGuard<'_, DescribeCache> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Clone for DescribeCacheCell {
    fn clone(&self) -> Self {
        DescribeCacheCell(Mutex::new(self.guard().clone()))
    }
}

impl std::fmt::Debug for DescribeCacheCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DescribeCacheCell({} entries)", self.guard().len())
    }
}

/// How a retraction interacts with the maintained store, decided *before*
/// the tuple leaves the EDB (DRed's deletion phase reads the
/// pre-retraction state) and applied after.
enum RetractPlan {
    /// No maintained store, or the fact was not stored: nothing to do.
    Untracked,
    /// Negation over the affected region: fall back to recomputation.
    Recompute(String),
    /// DRed prepared a deletion overestimate (or proved the retraction
    /// touches no derived fact).
    Ready(Retraction),
    /// Preparation failed; the store must be dropped.
    Lost(String),
}

/// A knowledge-rich database: EDB facts, IDB rules, integrity
/// constraints, and the unified query interface over them.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeBase {
    edb: Edb,
    idb: Idb,
    constraints: Vec<Constraint>,
    keys: HashMap<Sym, usize>,
    strategy: Strategy,
    opts: DescribeOptions,
    /// Compiled program shared by every retrieve until the rules change.
    plan: GenCache<ProgramPlan>,
    /// The rule base prepared for the describe family (dependency graph,
    /// §5.2 transformation, compiled rules), shared by every describe
    /// until the rules change. At most one is held: asking under another
    /// [`qdk_core::TransformPolicy`] replaces it.
    prepared: GenCache<PreparedIdb>,
    /// Rules generation ([`next_rules_gen`]): renewed by rule/constraint
    /// mutations, the key of both caches above. Fact mutations leave it
    /// (and the caches) alone.
    rules_gen: u64,
    /// In-flight transaction buffer: while `Some`, logged ops collect
    /// here instead of hitting the WAL, and commit writes them as one
    /// atomic [`WalOp::Batch`] record (see [`Self::transaction`]).
    batch: Option<Vec<WalOp>>,
    /// The durable store, when this KB was opened with
    /// [`Self::open_durable`]; `None` for purely in-memory KBs. Shared
    /// behind an `Arc` so `Clone` keeps working — clones write to the
    /// *same* log, which is the only coherent reading since they also
    /// started from the same persistent state.
    durable: Option<Arc<Mutex<Durable>>>,
    /// Incrementally maintained derived facts (opt-in, built by
    /// [`Self::materialize_maintained`]): while present, every fact or
    /// rule mutation updates the derived state in place and bottom-up
    /// retrieves serve from it without re-running the fixpoint. `None`
    /// keeps the classic evaluate-per-query behaviour.
    maintained: Option<MaintainedStore>,
    /// Maintenance counters accumulated since the last
    /// [`Self::take_maintain_stats`].
    maintain_stats: MaintainStats,
    /// Lifetime maintenance totals — never taken, unlike
    /// `maintain_stats` — the source of the `maintain_*` metrics gauges.
    maintain_total: MaintainStats,
    /// The long-running metrics hub, when [`Self::enable_metrics`] was
    /// called. Shared behind an `Arc` so clones and epoch snapshots all
    /// aggregate into the *same* registry.
    metrics: Option<Arc<MetricsHub>>,
    /// Maintenance downgrades awaiting the next retrieve's answer.
    pending: PendingDowngrades,
    /// Cached complete describe answers, invalidated per predicate
    /// closure on rule/constraint changes.
    describe_cache: DescribeCacheCell,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base with default options (paper-style
    /// answers: global one-level fallback, modified transformation). The
    /// observability sink defaults from the `QDK_TRACE` environment
    /// variable (unset/empty means disabled — see
    /// [`qdk_logic::obs::env_sink`]).
    pub fn new() -> Self {
        KnowledgeBase {
            opts: DescribeOptions::paper().with_sink(qdk_logic::obs::env_sink()),
            ..KnowledgeBase::default()
        }
    }

    /// Sets the retrieve evaluation strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the describe options.
    pub fn with_describe_options(mut self, opts: DescribeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The extensional database.
    pub fn edb(&self) -> &Edb {
        &self.edb
    }

    /// The intensional database.
    pub fn idb(&self) -> &Idb {
        &self.idb
    }

    /// The declared key-prefix lengths.
    pub fn keys(&self) -> &HashMap<Sym, usize> {
        &self.keys
    }

    /// The describe options in effect.
    pub fn describe_options(&self) -> &DescribeOptions {
        &self.opts
    }

    /// The retrieve evaluation strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Opens (creating if absent) a durable knowledge base stored at
    /// `dir` with default durability options, recovering whatever state a
    /// previous process left behind — the latest checkpoint plus the WAL
    /// tail, tolerating a torn final record. Every subsequent mutation is
    /// logged before it is applied.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_durable_with(dir, DurabilityOptions::default())
    }

    /// [`Self::open_durable`] with explicit durability options.
    pub fn open_durable_with(dir: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Self> {
        let Opened {
            durable,
            checkpoint,
            tail,
            report,
        } = Durable::open(dir.as_ref(), opts)?;
        let mut kb = KnowledgeBase::new();
        // Recovery applies through the ordinary mutation paths *before*
        // the durable handle is attached, so replay does not re-log (and
        // indexes, meters and fact-id order are rebuilt exactly as the
        // original mutations built them).
        if let Some(ckp) = checkpoint {
            kb.apply_checkpoint(ckp)?;
        }
        for rec in tail {
            kb.apply_op(rec.op)?;
        }
        // Replay added rules without going through `add_rule`.
        kb.rules_gen = next_rules_gen();
        if kb.opts.sink.enabled()
            && (report.checkpointed + report.replayed > 0 || report.discarded_tail_bytes > 0)
        {
            kb.opts.sink.emit(Event::Recovery {
                replayed: report.checkpointed + report.replayed,
                discarded_bytes: report.discarded_tail_bytes,
            });
        }
        kb.durable = Some(Arc::new(Mutex::new(durable)));
        Ok(kb)
    }

    /// Restores a checkpoint snapshot through the same declaration and
    /// insertion paths live mutations take.
    fn apply_checkpoint(&mut self, ckp: CheckpointData) -> Result<()> {
        for rel in ckp.relations {
            let attrs: Vec<&str> = rel.attrs.iter().map(String::as_str).collect();
            self.edb.declare(&rel.name, &attrs)?;
            if let Some(k) = rel.key {
                self.keys.insert(Sym::new(&rel.name), k);
            }
            for tuple in rel.facts {
                self.edb.insert_tuple(&rel.name, tuple)?;
            }
        }
        for rule in ckp.rules {
            self.idb.add_rule(rule)?;
        }
        self.constraints.extend(ckp.constraints);
        Ok(())
    }

    /// Replays one logged mutation through the same code paths the
    /// original mutation took (so indexes and meters stay consistent).
    fn apply_op(&mut self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Declare { name, attrs, key } => {
                let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                self.edb.declare(&name, &attrs)?;
                if let Some(k) = key {
                    self.keys.insert(Sym::new(&name), k);
                }
            }
            WalOp::AddFact { pred, tuple } => {
                self.edb.insert_tuple(&pred, tuple)?;
            }
            WalOp::AddRule(rule) => self.idb.add_rule(rule)?,
            WalOp::Retract { pred, tuple } => {
                self.edb.remove_tuple(&pred, &tuple)?;
            }
            WalOp::AddConstraint(c) => self.constraints.push(c),
            WalOp::Batch(ops) => {
                for op in ops {
                    self.apply_op(op)?;
                }
            }
        }
        Ok(())
    }

    /// Locks the durable handle, recovering from a poisoned lock (the
    /// store's own state is guarded by its file formats, not the mutex).
    fn durable_guard(d: &Arc<Mutex<Durable>>) -> MutexGuard<'_, Durable> {
        match d.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends `op` to the WAL if this KB is durable. Called *after*
    /// validation and *before* the in-memory apply — the WAL discipline:
    /// an op that reaches the log can no longer fail to apply. Inside a
    /// [`transaction`](Self::transaction) the op is buffered instead and
    /// reaches the WAL as part of the commit's single batch record.
    fn log(&mut self, op: WalOp) -> Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        if let Some(buf) = &mut self.batch {
            buf.push(op);
            return Ok(());
        }
        if let Some(d) = &self.durable {
            let (lsn, bytes) = Self::durable_guard(d).append(&op)?;
            if self.opts.sink.enabled() {
                self.opts.sink.emit(Event::WalAppend { lsn: lsn.0, bytes });
            }
        }
        Ok(())
    }

    /// Takes a checkpoint if the configured op threshold has been
    /// crossed. Called after every applied mutation; a no-op while a
    /// transaction is open (a checkpoint must never capture the applied
    /// half of an uncommitted batch).
    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.batch.is_some() {
            return Ok(());
        }
        let due = match &self.durable {
            Some(d) => Self::durable_guard(d).should_checkpoint(),
            None => false,
        };
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Runs `f` as an atomic batch. Mutations inside the closure apply to
    /// this KB immediately (the closure observes its own writes) but
    /// their WAL ops are buffered and committed as **one**
    /// [`WalOp::Batch`] record when the closure returns `Ok` — the
    /// record-level CRC then makes the batch all-or-nothing on disk, so
    /// recovery replays either the whole transaction or none of it. If
    /// the closure (or the commit append) fails, the KB rolls back to its
    /// pre-transaction state (a cheap copy-on-write clone) and the WAL
    /// receives nothing.
    ///
    /// Nested calls flatten into the outer transaction.
    pub fn transaction<R>(&mut self, f: impl FnOnce(&mut Self) -> Result<R>) -> Result<R> {
        if self.batch.is_some() {
            return f(self);
        }
        let undo = self.clone();
        self.batch = Some(Vec::new());
        match f(self) {
            Ok(value) => {
                let ops = self.batch.take().unwrap_or_default();
                if !ops.is_empty() {
                    if let Err(e) = self.log(WalOp::Batch(ops)) {
                        *self = undo;
                        return Err(e);
                    }
                }
                self.maybe_checkpoint()?;
                Ok(value)
            }
            Err(e) => {
                *self = undo;
                Err(e)
            }
        }
    }

    /// Snapshots the current state and atomically publishes it as the
    /// checkpoint, truncating the WAL. Returns the covered LSN and the
    /// snapshot's size in bytes (`None` for an in-memory KB).
    pub fn checkpoint(&mut self) -> Result<Option<(Lsn, u64)>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let data = self.snapshot();
        let (lsn, bytes) = Self::durable_guard(d).checkpoint(data)?;
        if self.opts.sink.enabled() {
            self.opts.sink.emit(Event::Checkpoint { lsn: lsn.0, bytes });
        }
        Ok(Some((lsn, bytes)))
    }

    /// The full declared state as checkpoint data: schemas (with keys),
    /// facts in per-relation insertion order, rules, constraints.
    fn snapshot(&self) -> CheckpointData {
        let mut relations = Vec::new();
        for schema in self.edb.catalog().iter() {
            let facts = self
                .edb
                .relation(schema.name.as_str())
                .map(|rel| rel.iter().cloned().collect())
                .unwrap_or_default();
            relations.push(RelationSnapshot {
                name: schema.name.as_str().to_string(),
                attrs: schema
                    .attrs
                    .iter()
                    .map(|a| a.as_str().to_string())
                    .collect(),
                key: self.keys.get(&schema.name).copied(),
                facts,
            });
        }
        CheckpointData {
            last_lsn: Lsn(0), // stamped by the durable handle
            relations,
            rules: self.idb.rules().to_vec(),
            constraints: self.constraints.clone(),
        }
    }

    /// True if this KB logs its mutations to a durable store.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What recovery found when this KB was opened (`None` for in-memory
    /// KBs).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable
            .as_ref()
            .map(|d| Self::durable_guard(d).recovery_report().clone())
    }

    /// Lifetime durability counters (`None` for in-memory KBs).
    pub fn durability_metrics(&self) -> Option<DurabilityMetrics> {
        self.durable
            .as_ref()
            .map(|d| Self::durable_guard(d).metrics())
    }

    /// Forces the WAL to stable storage regardless of the fsync policy
    /// (a no-op for in-memory KBs).
    pub fn sync(&mut self) -> Result<()> {
        if let Some(d) = &self.durable {
            Self::durable_guard(d).sync()?;
        }
        Ok(())
    }

    /// Declares an EDB predicate. Validation happens before the
    /// declaration is logged or applied, so a failed declare leaves both
    /// the KB and the WAL untouched. The compiled plan survives — a new
    /// (necessarily empty) predicate cannot change any rule's schedule.
    pub fn declare(&mut self, name: &str, attrs: &[&str], key: Option<usize>) -> Result<()> {
        self.edb.validate_declare(name)?;
        self.log(WalOp::Declare {
            name: name.to_string(),
            attrs: attrs.iter().map(|a| a.to_string()).collect(),
            key,
        })?;
        self.edb.declare(name, attrs)?;
        if let Some(k) = key {
            self.keys.insert(Sym::new(name), k);
        }
        self.maybe_checkpoint()
    }

    /// Adds a fact (ground atom) to the EDB, under the validate → log →
    /// apply discipline: a fact that fails validation leaves the KB and
    /// the WAL untouched. The compiled plan is retained — answers flow
    /// from the live EDB, the plan only fixes the literal schedules (see
    /// `GenCache`).
    pub fn add_fact(&mut self, atom: &qdk_logic::Atom) -> Result<bool> {
        self.edb.validate_fact(atom)?;
        if self.durable.is_some() {
            // Groundness was just validated, so the projection succeeds.
            if let Some(op) = WalOp::add_fact(atom) {
                self.log(op)?;
            }
        }
        let new = self.edb.insert_fact(atom)?;
        if new {
            if let Some(mut store) = self.maintained.take() {
                let obs = self.opts.sink.clone();
                let result = {
                    let _span = obs.span("maintain_insert", 0);
                    store.after_insert(&self.edb, &self.idb, atom.pred.as_str())
                };
                match result {
                    Ok(stats) => {
                        self.absorb_maintenance(&stats);
                        self.maintained = Some(store);
                    }
                    Err(e) => self.maintenance_lost("insert maintenance", e),
                }
            }
        }
        self.maybe_checkpoint()?;
        Ok(new)
    }

    /// Adds a rule to the IDB, under the same validate → log → apply
    /// discipline as [`Self::add_fact`] — plus plan invalidation: rule
    /// changes bump the rules generation, so every retrieve recompiles.
    /// The maintained store (when live) re-derives only the predicates
    /// depending on the new rule's head, and cached describe answers
    /// survive a rule that an existing same-head rule θ-subsumes (it can
    /// contribute no new theorems).
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.idb.validate_rule(&rule)?;
        let head = rule.head.pred.as_str().to_string();
        let redundant = self
            .idb
            .rules_for(&head)
            .any(|existing| redundancy::semantic_subsumes(existing, &rule, &[]));
        if self.durable.is_some() {
            self.log(WalOp::AddRule(rule.clone()))?;
        }
        self.idb.add_rule(rule)?;
        self.rules_gen = next_rules_gen();
        self.opts.sink.counter("rules_invalidated", 1);
        self.describe_cache.guard().rule_added(&head, redundant);
        self.maintain_rules_changed(&head);
        self.maybe_checkpoint()
    }

    /// Retracts a stored fact; returns `true` if it was stored. Same
    /// discipline as [`Self::add_fact`]; the compiled plan is retained.
    /// When the maintained store is live, the retraction runs
    /// delete-and-rederive: doomed derived facts are computed against the
    /// pre-retraction state, removed with the tuple, and the ones with
    /// surviving alternative derivations are put back.
    pub fn retract_fact(&mut self, atom: &qdk_logic::Atom) -> Result<bool> {
        self.edb.validate_fact(atom)?;
        // DRed's deletion phase reads the *pre-retraction* state, so the
        // retraction is prepared before the tuple is logged or removed.
        let plan = self.prepare_retract_maintenance(atom);
        if self.durable.is_some() {
            if let Some(op) = WalOp::retract(atom) {
                self.log(op)?;
            }
        }
        let removed = self.edb.remove_fact(atom)?;
        if removed {
            self.apply_retract_maintenance(plan);
        }
        self.maybe_checkpoint()?;
        Ok(removed)
    }

    /// Decides how the maintained store will absorb retracting `atom`
    /// (see [`RetractPlan`]); read-only, called before the EDB changes.
    fn prepare_retract_maintenance(&self, atom: &qdk_logic::Atom) -> RetractPlan {
        let Some(store) = &self.maintained else {
            return RetractPlan::Untracked;
        };
        let pred = atom.pred.as_str();
        let Some(tuple) = ground_tuple(atom) else {
            return RetractPlan::Untracked;
        };
        if !self.edb.relation(pred).is_some_and(|r| r.contains(&tuple)) {
            return RetractPlan::Untracked;
        }
        if let Some(reason) = store.retract_fallback_reason(&self.edb, &self.idb, pred) {
            return RetractPlan::Recompute(reason);
        }
        match store.prepare_retract(&self.edb, pred, &tuple) {
            Ok(r) => RetractPlan::Ready(r),
            Err(e) => RetractPlan::Lost(e.to_string()),
        }
    }

    /// Applies the prepared retraction plan after the tuple left the EDB.
    fn apply_retract_maintenance(&mut self, plan: RetractPlan) {
        match plan {
            RetractPlan::Untracked | RetractPlan::Ready(Retraction::Clean) => {}
            RetractPlan::Recompute(reason) => {
                let Some(mut store) = self.maintained.take() else {
                    return;
                };
                let obs = self.opts.sink.clone();
                let result = {
                    let _span = obs.span("maintain_retract", 0);
                    store.recompute(&self.edb, &self.idb)
                };
                match result {
                    Ok(()) => {
                        self.absorb_maintenance(&MaintainStats {
                            recompute_reasons: vec![reason],
                            ..MaintainStats::default()
                        });
                        self.maintained = Some(store);
                    }
                    Err(e) => self.maintenance_lost("retract recompute", e),
                }
            }
            RetractPlan::Ready(Retraction::Prepared(doomed)) => {
                let Some(mut store) = self.maintained.take() else {
                    return;
                };
                let obs = self.opts.sink.clone();
                if obs.enabled() {
                    obs.counter("dred_overestimate", doomed.len() as u64);
                }
                let result = {
                    let _span = obs.span("maintain_retract", 0);
                    self.finish_retract(&mut store, doomed)
                };
                match result {
                    Ok(stats) => {
                        self.absorb_maintenance(&stats);
                        self.maintained = Some(store);
                    }
                    Err(e) => self.maintenance_lost("retract maintenance", e),
                }
            }
            RetractPlan::Lost(e) => self.maintenance_lost("retract maintenance", e),
        }
    }

    /// Borrow-splitting shim for DRed phases B/C.
    fn finish_retract(
        &self,
        store: &mut MaintainedStore,
        doomed: Doomed,
    ) -> qdk_engine::Result<MaintainStats> {
        store.finish_retract(&self.edb, &self.idb, doomed)
    }

    /// Adds an integrity constraint (logged like every other mutation —
    /// constraints are part of the durable state `dump()` serializes).
    /// Constraints shape knowledge answers, so they count as a rules
    /// change for plan-cache purposes.
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        if self.durable.is_some() {
            self.log(WalOp::AddConstraint(c.clone()))?;
        }
        let preds: Vec<Sym> = c.body.iter().map(|a| a.pred.clone()).collect();
        self.constraints.push(c);
        self.rules_gen = next_rules_gen();
        self.opts.sink.counter("rules_invalidated", 1);
        // Constraints prune describe answers, so cached entries whose
        // closure reaches a constrained predicate go stale. Retrieve
        // evaluation ignores constraints: the maintained store survives.
        self.describe_cache.guard().constraint_added(&preds);
        self.maybe_checkpoint()
    }

    /// Drops the cached compiled program; the next retrieve recompiles
    /// against a fresh cardinality snapshot. Fact mutations deliberately
    /// keep the plan (only join *order* can go stale, never answers);
    /// call this after bulk loads that change relative relation sizes
    /// enough to matter.
    pub fn invalidate_plan(&self) {
        self.plan.invalidate();
    }

    /// Builds the incrementally maintained derived-fact store if it is
    /// not already live: one full semi-naive evaluation, after which
    /// mutations update the derived state in place and bottom-up
    /// retrieves serve from it without re-running the fixpoint. The
    /// `Session::apply` facade calls this on first mutation; it is also
    /// callable directly for long-lived serving KBs.
    pub fn materialize_maintained(&mut self) -> Result<()> {
        if self.maintained.is_some() {
            return Ok(());
        }
        let plan = self.compiled_plan();
        self.maintained = Some(MaintainedStore::build(&self.edb, &self.idb, plan)?);
        Ok(())
    }

    /// True while the maintained derived-fact store is live.
    pub fn is_maintained(&self) -> bool {
        self.maintained.is_some()
    }

    /// The per-stratum generation counters of the maintained store
    /// (`None` when no store is live). Rule changes bump exactly the
    /// affected strata.
    pub fn stratum_generations(&self) -> Option<&[u64]> {
        self.maintained.as_ref().map(|s| s.stratum_generations())
    }

    /// Takes the maintenance counters accumulated since the last call
    /// (the facade folds these into its mutation reports).
    pub fn take_maintain_stats(&mut self) -> MaintainStats {
        std::mem::take(&mut self.maintain_stats)
    }

    /// Copies of the maintenance downgrades currently queued for the
    /// next retrieve's answer (the queue itself still drains there).
    pub fn pending_downgrades(&self) -> Vec<Downgrade> {
        self.pending.snapshot()
    }

    /// Cumulative describe-cache counters.
    pub fn describe_cache_stats(&self) -> qdk_core::CacheStats {
        self.describe_cache.guard().stats()
    }

    /// Attaches a fresh [`MetricsHub`] to this KB and starts aggregating:
    /// the hub's [`MetricsSink`] is fanned out *alongside* any sink
    /// already configured (a trace collector keeps collecting), so every
    /// span and counter the evaluation stacks already emit feeds the
    /// registry with no new instrumentation points. Returns the hub;
    /// clones and epoch snapshots taken after this call share it.
    pub fn enable_metrics(&mut self) -> Arc<MetricsHub> {
        let hub = Arc::new(MetricsHub::new());
        self.enable_metrics_with(Arc::clone(&hub));
        hub
    }

    /// [`Self::enable_metrics`] aggregating into an existing hub (e.g.
    /// the process-wide [`qdk_logic::metrics::global_hub`], or one shared
    /// across several KBs). A no-op if metrics are already enabled.
    pub fn enable_metrics_with(&mut self, hub: Arc<MetricsHub>) {
        if self.metrics.is_some() {
            return;
        }
        let sink: Arc<dyn qdk_logic::Sink> = Arc::new(MetricsSink::new(Arc::clone(&hub)));
        self.opts.sink = match self.opts.sink.handle() {
            Some(existing) => ObsSink::new(Arc::new(FanoutSink::new(vec![existing, sink]))),
            None => ObsSink::new(sink),
        };
        self.metrics = Some(hub);
    }

    /// The attached metrics hub, if [`Self::enable_metrics`] was called.
    pub fn metrics_hub(&self) -> Option<&Arc<MetricsHub>> {
        self.metrics.as_ref()
    }

    /// Polls the point-in-time subsystem gauges (EDB/IDB sizes, plan and
    /// describe-cache state, maintenance totals, WAL and checkpoint
    /// positions) into the registry, then returns a consistent snapshot
    /// of every aggregate. `None` until [`Self::enable_metrics`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let hub = self.metrics.as_ref()?;
        let reg = hub.registry();
        reg.gauge_set("rules_generation", self.rules_gen);
        reg.gauge_set("edb_facts", self.edb.fact_count() as u64);
        reg.gauge_set("idb_rules", self.idb.rules().len() as u64);
        reg.gauge_set("constraints", self.constraints.len() as u64);
        reg.gauge_set("pending_downgrades", self.pending.snapshot().len() as u64);
        let cache = self.describe_cache_stats();
        reg.gauge_set("describe_cache_hits", cache.hits);
        reg.gauge_set("describe_cache_misses", cache.misses);
        reg.gauge_set("describe_cache_evicted", cache.evicted);
        reg.gauge_set("describe_cache_survived", cache.survived);
        reg.gauge_set(
            "describe_cache_entries",
            self.describe_cache.guard().len() as u64,
        );
        reg.gauge_set("maintained", u64::from(self.maintained.is_some()));
        reg.gauge_set(
            "maintained_facts",
            self.maintained
                .as_ref()
                .map_or(0, |s| s.derived().len() as u64),
        );
        reg.gauge_set(
            "maintain_derived_added",
            self.maintain_total.derived_added as u64,
        );
        reg.gauge_set(
            "maintain_derived_deleted",
            self.maintain_total.derived_deleted as u64,
        );
        reg.gauge_set("maintain_rederived", self.maintain_total.rederived as u64);
        reg.gauge_set(
            "maintain_strata_invalidated",
            self.maintain_total.strata_invalidated as u64,
        );
        reg.gauge_set(
            "maintain_recomputes",
            self.maintain_total.recompute_reasons.len() as u64,
        );
        if let Some(m) = self.durability_metrics() {
            reg.gauge_set("wal_appended", m.wal_appends);
            reg.gauge_set("wal_appended_bytes", m.wal_bytes);
            reg.gauge_set("wal_fsyncs", m.wal_fsyncs);
            reg.gauge_set("wal_last_lsn", m.last_lsn);
            reg.gauge_set("checkpoints_taken", m.checkpoints);
            reg.gauge_set("last_checkpoint_bytes", m.last_checkpoint_bytes);
            reg.gauge_set("checkpoint_lsn_lag", m.checkpoint_lsn_lag());
        }
        if let Some(r) = self.recovery_report() {
            reg.gauge_set("recovery_replayed", r.checkpointed + r.replayed);
            reg.gauge_set("recovery_discarded_bytes", r.discarded_tail_bytes);
        }
        Some(reg.snapshot())
    }

    /// Folds one maintenance operation's counters in, surfacing its
    /// recompute fallbacks as recorded downgrades.
    fn absorb_maintenance(&mut self, stats: &MaintainStats) {
        for reason in &stats.recompute_reasons {
            self.pending.push(Downgrade::maintenance(reason.clone()));
        }
        self.maintain_stats.merge(stats);
        self.maintain_total.merge(stats);
        let obs = &self.opts.sink;
        if obs.enabled() {
            obs.counter("maintain_derived_added", stats.derived_added as u64);
            obs.counter("maintain_derived_deleted", stats.derived_deleted as u64);
            obs.counter("maintain_rederived", stats.rederived as u64);
            obs.counter(
                "maintain_strata_invalidated",
                stats.strata_invalidated as u64,
            );
            obs.counter("maintain_recompute", stats.recompute_reasons.len() as u64);
        }
    }

    /// Records a maintenance failure: the store is dropped (queries fall
    /// back to fixpoint evaluation) and the failure surfaces as a
    /// downgrade on the next answer rather than failing the mutation —
    /// the EDB/IDB change itself has already been validated and logged.
    fn maintenance_lost(&mut self, what: &str, e: impl std::fmt::Display) {
        self.maintained = None;
        let reason = format!("{what}: {e}");
        self.maintain_stats.recompute_reasons.push(reason.clone());
        self.maintain_total.recompute_reasons.push(reason.clone());
        self.pending.push(Downgrade::maintenance(reason));
        self.opts.sink.counter("maintain_lost", 1);
    }

    /// Re-derives the maintained predicates affected by a rule change on
    /// `head`, against the freshly compiled program.
    fn maintain_rules_changed(&mut self, head: &str) {
        let Some(mut store) = self.maintained.take() else {
            return;
        };
        let plan = self.compiled_plan();
        let obs = self.opts.sink.clone();
        let result = {
            let _span = obs.span("maintain_rules", 0);
            store.rules_changed(&self.edb, &self.idb, plan, head)
        };
        match result {
            Ok(stats) => {
                self.absorb_maintenance(&stats);
                self.maintained = Some(store);
            }
            Err(e) => self.maintenance_lost("rule maintenance", e),
        }
    }

    /// The maintained store, when `strategy` can serve from it. Semi-naive
    /// computes exactly the maintained fixpoint, so the stored derived
    /// facts *are* its answer, and `Auto` takes them before it considers
    /// any evaluator (row 1 of its table: nothing beats not evaluating).
    /// A pinned goal-directed strategy keeps its own evaluation.
    fn maintained_for(&self, strategy: Strategy) -> Option<&MaintainedStore> {
        match strategy {
            Strategy::Auto | Strategy::SemiNaive => self.maintained.as_ref(),
            Strategy::TopDown | Strategy::Qsq => None,
        }
    }

    /// Moves queued maintenance downgrades onto `answer`, ahead of any
    /// evaluation downgrades (they happened first).
    fn surface_pending(&self, answer: &mut qdk_engine::DataAnswer, obs: &ObsSink) {
        let drained = self.pending.drain();
        if drained.is_empty() {
            return;
        }
        obs.counter("downgrade", drained.len() as u64);
        answer.downgrades.splice(0..0, drained);
    }

    /// Executes one parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<Answer> {
        match stmt {
            Statement::Declare { name, attrs, key } => {
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                self.declare(name, &attr_refs, *key)?;
                Ok(Answer::Ack(format!("declared {name}/{}", attrs.len())))
            }
            Statement::Clause(rule) => {
                if rule.is_fact() && self.edb.is_edb_predicate(rule.head.pred.as_str()) {
                    let new = self.add_fact(&rule.head)?;
                    Ok(Answer::Ack(if new {
                        format!("stored {}", rule.head)
                    } else {
                        format!("already stored {}", rule.head)
                    }))
                } else {
                    self.add_rule(rule.clone())?;
                    Ok(Answer::Ack(format!("defined rule {rule}")))
                }
            }
            Statement::Constraint(c) => {
                self.add_constraint(c.clone())?;
                Ok(Answer::Ack(format!("added constraint {c}")))
            }
            Statement::Retract(atom) => {
                let removed = self.retract_fact(atom)?;
                Ok(Answer::Ack(if removed {
                    format!("retracted {atom}")
                } else {
                    format!("not stored: {atom}")
                }))
            }
            Statement::Show(kind) => {
                use std::fmt::Write;
                let mut out = String::new();
                // Writing into a String cannot fail; the results are
                // discarded rather than unwrapped.
                match kind {
                    crate::ast::ShowKind::Predicates => {
                        for schema in self.edb.catalog().iter() {
                            let count = self
                                .edb
                                .relation(schema.name.as_str())
                                .map_or(0, |r| r.len());
                            let _ = write!(out, "{schema}");
                            if let Some(k) = self.keys.get(&schema.name) {
                                let _ = write!(out, " key {k}");
                            }
                            let _ = writeln!(out, " — {count} facts");
                        }
                    }
                    crate::ast::ShowKind::Rules => {
                        for rule in self.idb.rules() {
                            let _ = writeln!(out, "{rule}");
                        }
                    }
                    crate::ast::ShowKind::Constraints => {
                        for c in &self.constraints {
                            let _ = writeln!(out, "{c}");
                        }
                    }
                }
                Ok(Answer::Ack(out.trim_end().to_string()))
            }
            Statement::Explain(d) => {
                let answer = self.describe(d)?;
                let mut text = String::new();
                for t in &answer.theorems {
                    text.push_str(&t.explain());
                }
                if answer.hypothesis_contradicts_idb {
                    text.push_str("the hypothesis contradicts the IDB\n");
                }
                if text.is_empty() {
                    text.push_str("no theorems derivable\n");
                }
                Ok(Answer::Ack(text.trim_end().to_string()))
            }
            Statement::Retrieve(r) => Ok(Answer::Data(self.retrieve(r)?)),
            Statement::Describe(d) => Ok(Answer::Knowledge(self.describe(d)?)),
            Statement::DescribeNecessary(d) => Ok(Answer::Knowledge(
                self.prepared(&self.opts)
                    .describe_necessary(d, &self.opts)?,
            )),
            Statement::DescribeDisjunctive { subject, disjuncts } => Ok(Answer::Knowledge(
                self.prepared(&self.opts)
                    .describe_disjunctive(subject, disjuncts, &self.opts)?,
            )),
            Statement::DescribeWithout { subject, negated } => Ok(Answer::Necessity(
                extensions::describe_without(&self.idb, subject, negated, &self.opts)?,
            )),
            Statement::DescribePossible { hypothesis } => {
                Ok(Answer::Possibility(extensions::describe_possible(
                    &self.idb,
                    hypothesis,
                    &self.keys,
                    &self.constraints,
                    &self.opts,
                )?))
            }
            Statement::DescribeWildcard { hypothesis } => Ok(Answer::Wildcard(
                self.prepared(&self.opts)
                    .describe_wildcard(hypothesis, &self.opts)?,
            )),
            Statement::Compare { first, second } => Ok(Answer::Comparison(Box::new(
                compare::compare(&self.idb, first, second, &self.opts)?,
            ))),
        }
    }

    /// Parses and executes one statement.
    pub fn run(&mut self, src: &str) -> Result<Answer> {
        let stmt = parse_statement(src)?;
        self.execute(&stmt)
    }

    /// Parses and executes a script, returning every answer.
    pub fn load(&mut self, src: &str) -> Result<Vec<Answer>> {
        let stmts = parse_script(src)?;
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Evaluates a `retrieve` statement (data query, §3.1). The same
    /// resource limits, cancellation token and worker count that govern
    /// `describe` bound the engine evaluation.
    pub fn retrieve(&self, r: &Retrieve) -> Result<qdk_engine::DataAnswer> {
        let mut eval = qdk_engine::EvalOptions::with_limits(self.opts.limits);
        eval.cancel = self.opts.cancel.clone();
        eval.parallelism = self.opts.parallelism;
        eval.sink = self.opts.sink.clone();
        self.retrieve_with_options(r, self.strategy, eval, None)
    }

    /// [`Self::retrieve`] with per-query strategy and evaluation options
    /// (the hook the `Session` facade's request overrides go through).
    /// When the maintained store is live and the strategy is `Auto` or
    /// semi-naive, the answer is projected straight from the maintained
    /// derived facts — no fixpoint runs.
    ///
    /// `pinned` is the compiled program to evaluate. `None` resolves it
    /// through the plan cache (counting a hit or a miss). `Some` is the
    /// snapshot read path: an epoch snapshot pins the plan next to the
    /// data it was compiled for, so its readers never consult the cache
    /// (or its lock); the caller guarantees the plan was compiled from
    /// this KB's IDB.
    #[doc(hidden)]
    pub fn retrieve_with_options(
        &self,
        r: &Retrieve,
        strategy: Strategy,
        eval: qdk_engine::EvalOptions,
        pinned: Option<&ProgramPlan>,
    ) -> Result<qdk_engine::DataAnswer> {
        let obs = eval.sink.clone();
        if let Some(store) = self.maintained_for(strategy) {
            let _span = obs.span("execute", 0);
            obs.counter("maintained_serve", 1);
            let mut answer = query::retrieve_precomputed(&self.edb, &self.idb, store.derived(), r)?;
            if strategy == Strategy::Auto {
                obs.counter(AutoChoice::Maintained.counter(), 1);
                answer.auto = Some(AutoChoice::Maintained);
            }
            self.surface_pending(&mut answer, &obs);
            return Ok(answer);
        }
        let cached;
        let plan = match pinned {
            Some(plan) => {
                obs.counter("plan_cache_hit", 1);
                plan
            }
            None => {
                let _span = obs.span("plan", 0);
                let (plan, hit) = self.compiled_plan_hit();
                let name = if hit {
                    "plan_cache_hit"
                } else {
                    "plan_cache_miss"
                };
                obs.counter(name, 1);
                cached = plan;
                &*cached
            }
        };
        let _span = obs.span("execute", 0);
        let mut answer = query::retrieve_compiled(&self.edb, &self.idb, plan, r, strategy, eval)?;
        self.surface_pending(&mut answer, &obs);
        Ok(answer)
    }

    /// The compiled program for the current rules generation, filling the
    /// cache if needed (without emitting query counters).
    pub fn compiled_plan(&self) -> Arc<ProgramPlan> {
        self.compiled_plan_hit().0
    }

    /// [`Self::compiled_plan`], compiling against a fresh cardinality
    /// snapshot of the EDB on a miss, with whether the cache hit.
    fn compiled_plan_hit(&self) -> (Arc<ProgramPlan>, bool) {
        self.plan.get_or_build(
            self.rules_gen,
            |_| true,
            || ProgramPlan::compile_with_stats(&self.idb, self.edb.stats()),
        )
    }

    /// The rule base prepared for the describe family under
    /// `opts.transform`, built on first use in each rules generation. The
    /// `transform` span covers the lookup and, on a miss, the build.
    fn prepared(&self, opts: &DescribeOptions) -> Arc<PreparedIdb> {
        let _span = opts.sink.span("transform", 0);
        let (prep, hit) = self.prepared.get_or_build(
            self.rules_gen,
            |p| p.policy() == opts.transform,
            || PreparedIdb::prepare(&self.idb, opts.transform),
        );
        let name = if hit {
            "describe_prep_hit"
        } else {
            "describe_prep_miss"
        };
        opts.sink.counter(name, 1);
        prep
    }

    /// Prepares this KB for an epoch publish and returns the plan the
    /// snapshot should pin: adopt composite-index demand readers
    /// expressed on the previous epoch (`prev`) and, when the rules have
    /// not changed since, the describe preparation a reader of that epoch
    /// built; resolve the compiled plan, prebuild the composite indexes its scans will probe, promote
    /// everything into the lock-free sets, and force the WAL to stable
    /// storage so a published epoch is always durable.
    pub(crate) fn prepare_publish(
        &mut self,
        prev: Option<&KnowledgeBase>,
    ) -> Result<Arc<ProgramPlan>> {
        if let Some(prev) = prev {
            self.edb.adopt_index_demand(prev.edb());
            self.prepared.adopt(self.rules_gen, &prev.prepared);
        }
        let plan = self.compiled_plan();
        for (pred, cols) in plan.composite_requests() {
            // Requests against derived predicates have no stored relation
            // and are skipped inside.
            self.edb.ensure_composite(pred.as_str(), &cols);
        }
        self.edb.promote_indexes();
        self.sync()?;
        Ok(plan)
    }

    /// True if a compiled program for the *current* rules generation is
    /// cached — i.e. the next query will hit, not recompile (test hook).
    #[cfg(test)]
    fn plan_cached(&self) -> bool {
        self.plan
            .slot()
            .as_ref()
            .is_some_and(|(gen, _)| *gen == self.rules_gen)
    }

    /// Evaluates a `describe` statement (knowledge query, §3.2),
    /// respecting declared integrity constraints: theorems whose bodies
    /// the constraints forbid are discarded.
    pub fn describe(&self, d: &Describe) -> Result<qdk_core::DescribeAnswer> {
        self.describe_with_options(d, &self.opts)
    }

    /// [`Self::describe`] with per-query options (the hook the `Session`
    /// facade's request overrides go through). Declared integrity
    /// constraints are still respected. Complete, unbounded answers are
    /// cached by subject signature and survive fact churn untouched (a
    /// describe answer never reads the EDB); rule and constraint changes
    /// evict per predicate closure. An answer that has to be computed
    /// runs over the rule base prepared for the current rules generation
    /// (built by the first describe-family statement that needs it).
    #[doc(hidden)]
    pub fn describe_with_options(
        &self,
        d: &Describe,
        opts: &DescribeOptions,
    ) -> Result<qdk_core::DescribeAnswer> {
        let _span = opts.sink.span("execute", 0);
        let key = describe_cache_key(d, opts);
        if let Some(k) = &key {
            if let Some(hit) = self.describe_cache.guard().get(d.subject.pred.as_str(), k) {
                opts.sink.counter("describe_cache_hit", 1);
                return Ok(hit);
            }
            opts.sink.counter("describe_cache_miss", 1);
        }
        let prep = self.prepared(opts);
        let answer = prep.describe_with_constraints(&self.constraints, d, opts)?;
        if let Some(k) = key {
            if !answer.is_truncated() {
                let closure = describe_closure(prep.graph(), d);
                self.describe_cache.guard().insert(
                    d.subject.pred.as_str(),
                    k,
                    closure,
                    answer.clone(),
                );
            }
        }
        Ok(answer)
    }

    /// The declared integrity constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Serializes the knowledge base as a script that [`Self::load`]
    /// restores exactly: declarations (with keys), stored facts, IDB
    /// rules, and integrity constraints, in that order.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for schema in self.edb.catalog().iter() {
            let _ = write!(out, "predicate {schema}");
            if let Some(k) = self.keys.get(&schema.name) {
                let _ = write!(out, " key {k}");
            }
            out.push_str(".\n");
        }
        for schema in self.edb.catalog().iter() {
            if let Some(rel) = self.edb.relation(schema.name.as_str()) {
                for tuple in rel.iter() {
                    let vals: Vec<String> =
                        tuple.values().iter().map(ToString::to_string).collect();
                    let _ = writeln!(out, "{}({}).", schema.name, vals.join(", "));
                }
            }
        }
        for rule in self.idb.rules() {
            let _ = writeln!(out, "{rule}");
        }
        for c in &self.constraints {
            let _ = writeln!(out, "{c}");
        }
        out
    }
}

/// Every predicate `d`'s answer can depend on: the rule-graph closure
/// of the subject plus of each hypothesis predicate (hypothesis
/// literals surface in theorem bodies, so constraints over them prune
/// answers too).
fn describe_closure(graph: &DependencyGraph, d: &Describe) -> Vec<Sym> {
    let mut closure = vec![d.subject.pred.clone()];
    let mut cover = |preds: Vec<Sym>| {
        for p in preds {
            if !closure.contains(&p) {
                closure.push(p);
            }
        }
    };
    cover(graph.reachable_from(d.subject.pred.as_str()));
    for lit in &d.hypothesis {
        cover(vec![lit.atom.pred.clone()]);
        cover(graph.reachable_from(lit.atom.pred.as_str()));
    }
    closure
}

/// The describe-cache key for `d` under `opts`, `None` when the
/// combination is not cacheable: bounded or cancellable evaluations can
/// be cut short by wall-clock-dependent limits, so their answers never
/// enter the cache.
fn describe_cache_key(d: &Describe, opts: &DescribeOptions) -> Option<String> {
    if opts.cancel.is_some() || opts.limits != qdk_core::ResourceLimits::default() {
        return None;
    }
    Some(format!(
        "{d}|fb={:?}|tr={:?}|untyped={}|simp={}|rr={}",
        opts.fallback,
        opts.transform,
        opts.untyped_rule_limit,
        opts.simplify_comparisons,
        opts.remove_redundant
    ))
}

/// Projects a ground atom onto its stored row; `None` if any argument is
/// a variable (callers validate groundness first).
fn ground_tuple(atom: &qdk_logic::Atom) -> Option<Tuple> {
    let mut values = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            Term::Const(c) => values.push(c.clone()),
            Term::Var(_) => return None,
        }
    }
    Some(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.load(
            "predicate student(Sname, Major, Gpa) key 1.\n\
             predicate enroll(Sname, Ctitle).\n\
             student(ann, math, 3.9).\n\
             student(bob, math, 3.5).\n\
             enroll(ann, databases).\n\
             honor(X) :- student(X, Y, Z), Z > 3.7.",
        )
        .unwrap();
        kb
    }

    #[test]
    fn transaction_commits_or_rolls_back_atomically() {
        let mut kb = mini_kb();
        // Commit: the closure observes its own writes, and they stick.
        let n = kb
            .transaction(|kb| {
                kb.run("student(cara, math, 3.95).")?;
                kb.run("enroll(cara, databases).")?;
                Ok(kb.edb().fact_count())
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(kb.edb().fact_count(), 5);
        // Rollback: an error anywhere undoes every write in the batch,
        // including rule additions.
        let before = kb.dump();
        let err = kb.transaction(|kb| {
            kb.run("student(dan, physics, 2.8).")?;
            kb.run("star(X) :- student(X, M, G), G > 3.8.")?;
            kb.run("this is not a statement.")?;
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(kb.dump(), before);
        assert_eq!(kb.edb().fact_count(), 5);
        assert_eq!(kb.idb().len(), 1);
        // Nested transactions flatten into the outer one.
        kb.transaction(|kb| {
            kb.transaction(|kb| kb.run("enroll(bob, algebra).").map(|_| ()))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(kb.edb().fact_count(), 6);
    }

    #[test]
    fn twin_statements_through_one_instrument() {
        let mut kb = mini_kb();
        // "Retrieve the honor students" — data.
        let data = kb.run("retrieve honor(X).").unwrap();
        let d = data.as_data().unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&["ann"]));
        // "Describe the honor students" — knowledge.
        let knowledge = kb.run("describe honor(X).").unwrap();
        let k = knowledge.as_knowledge().unwrap();
        assert_eq!(
            k.rendered(),
            vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
        );
    }

    #[test]
    fn facts_go_to_edb_rules_to_idb() {
        let kb = mini_kb();
        assert_eq!(kb.edb().fact_count(), 3);
        assert_eq!(kb.idb().len(), 1);
        assert_eq!(kb.keys().get("student"), Some(&1));
    }

    #[test]
    fn ground_idb_fact_is_a_rule() {
        // A ground clause whose predicate is *not* declared becomes an IDB
        // fact-rule rather than an EDB fact.
        let mut kb = mini_kb();
        kb.run("special(ann).").unwrap();
        assert!(kb.idb().defines("special"));
    }

    #[test]
    fn duplicate_fact_acknowledged() {
        let mut kb = mini_kb();
        let a = kb.run("student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("already stored"));
    }

    #[test]
    fn constraints_are_recorded() {
        let mut kb = mini_kb();
        kb.run(":- honor(X), suspended(X).").unwrap();
        assert_eq!(kb.constraints().len(), 1);
    }

    #[test]
    fn retract_show_and_explain() {
        let mut kb = mini_kb();
        // Retract flips the data answer.
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
        let a = kb.run("retract student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("retracted"));
        assert!(kb
            .run("retrieve honor(X).")
            .unwrap()
            .as_data()
            .unwrap()
            .is_empty());
        // Retracting again reports absence.
        let a = kb.run("retract student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("not stored"));

        // Show lists the catalog, the rules and the constraints.
        let preds = kb.run("show predicates.").unwrap().to_string();
        assert!(
            preds.contains("student(Sname, Major, Gpa) key 1"),
            "{preds}"
        );
        assert!(preds.contains("facts"), "{preds}");
        let rules = kb.run("show rules.").unwrap().to_string();
        assert!(rules.contains("honor(X) :-"), "{rules}");
        kb.run(":- honor(X), suspended(X).").unwrap();
        let cons = kb.run("show constraints.").unwrap().to_string();
        assert!(cons.contains("suspended"), "{cons}");

        // Explain renders theorems with their derivations.
        let ex = kb.run("explain honor(X).").unwrap().to_string();
        assert!(ex.contains("honor(X) ←"), "{ex}");
        assert!(ex.contains("definition:"), "{ex}");
    }

    #[test]
    fn dump_load_roundtrip() {
        let mut kb = crate::datasets::university_extended();
        let dumped = kb.dump();
        let mut restored = KnowledgeBase::new();
        restored.load(&dumped).unwrap();
        assert_eq!(restored.edb().fact_count(), kb.edb().fact_count());
        assert_eq!(restored.idb().len(), kb.idb().len());
        assert_eq!(restored.constraints().len(), kb.constraints().len());
        assert_eq!(restored.keys().len(), kb.keys().len());
        // Queries agree on the restored copy.
        let q = "retrieve honor(X) where enroll(X, databases).";
        let a = kb.run(q).unwrap();
        let b = restored.run(q).unwrap();
        assert_eq!(a.as_data().unwrap().sorted(), b.as_data().unwrap().sorted());
        let q = "describe can_ta(X, Y) where honor(X) and teach(susan, Y).";
        let a = kb.run(q).unwrap();
        let b = restored.run(q).unwrap();
        assert_eq!(
            a.as_knowledge().unwrap().rendered(),
            b.as_knowledge().unwrap().rendered()
        );
        // Dump is idempotent.
        assert_eq!(restored.dump(), dumped);
    }

    #[test]
    fn plan_cache_fills_on_query_and_survives_fact_mutations() {
        let mut kb = mini_kb();
        assert!(!kb.plan_cached());
        kb.run("retrieve honor(X).").unwrap();
        assert!(kb.plan_cached());
        // Reads keep the cache.
        kb.run("show rules.").unwrap();
        assert!(kb.plan_cached());
        // Fact-only mutations keep it too: compilation depends on rules,
        // not data, so declares/asserts/retracts never force a recompile.
        kb.run("student(cara, math, 3.95).").unwrap();
        assert!(kb.plan_cached());
        kb.run("retract student(cara, math, 3.95).").unwrap();
        kb.declare("lab", &["name"], None).unwrap();
        assert!(kb.plan_cached());
        // Rule and constraint changes advance the generation: the cached
        // entry is stale and the next query recompiles.
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        assert!(!kb.plan_cached());
        kb.run("retrieve honor(X).").unwrap();
        assert!(kb.plan_cached());
        kb.run("inconsistent :- honor(X), star(X).").unwrap();
        assert!(!kb.plan_cached());
    }

    #[test]
    fn plan_cache_counters_expose_retention() {
        use qdk_logic::obs::{CollectSink, Event, ObsSink};
        let mut kb = mini_kb();
        // Run one traced retrieve and report which plan-cache counter fired.
        let traced = |kb: &KnowledgeBase| {
            let Statement::Retrieve(r) =
                crate::parser::parse_statement("retrieve honor(X).").unwrap()
            else {
                panic!("expected retrieve");
            };
            let collect = Arc::new(CollectSink::new());
            let eval = qdk_engine::EvalOptions {
                sink: ObsSink::new(collect.clone()),
                ..Default::default()
            };
            kb.retrieve_with_options(&r, kb.strategy(), eval, None)
                .unwrap();
            let hits = |wanted: &str| {
                collect
                    .events()
                    .iter()
                    .filter(|e| matches!(e, Event::Counter { name, .. } if *name == wanted))
                    .count()
            };
            (hits("plan_cache_hit"), hits("plan_cache_miss"))
        };
        // First query compiles, second hits.
        assert_eq!(traced(&kb), (0, 1));
        assert_eq!(traced(&kb), (1, 0));
        // A fact write does not spend the cache...
        kb.run("student(cara, math, 3.95).").unwrap();
        assert_eq!(traced(&kb), (1, 0));
        // ...but a rule write does.
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        assert_eq!(traced(&kb), (0, 1));
    }

    #[test]
    fn answers_track_mutations_through_the_cache() {
        let mut kb = mini_kb();
        // Fill the cache, then mutate facts and rules: answers must
        // reflect every change, never a stale compilation.
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
        kb.run("student(cara, math, 3.95).").unwrap();
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            2
        );
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        let stars = kb.run("retrieve star(X).").unwrap();
        let stars = stars.as_data().unwrap();
        assert_eq!(stars.len(), 2);
        assert!(stars.contains_row(&["ann"]) && stars.contains_row(&["cara"]));
        kb.run("retract student(cara, math, 3.95).").unwrap();
        assert_eq!(
            kb.run("retrieve star(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn describe_respects_constraints() {
        let mut kb = KnowledgeBase::new();
        kb.load(
            "predicate demographic(S, N, M) key 1.\n\
             foreign(X) :- demographic(X, N, M), N != usa.\n\
             unmarried(X) :- demographic(X, N, single).\n\
             visa_ok(X) :- foreign(X), unmarried(X).\n\
             visa_ok(X) :- foreign(X), sponsor(X).\n\
             :- foreign(X), unmarried(X).",
        )
        .unwrap();
        let a = kb.run("describe visa_ok(X).").unwrap();
        let k = a.as_knowledge().unwrap();
        // The foreign ∧ unmarried definition is forbidden by the
        // constraint; only the sponsor rule survives.
        assert_eq!(k.len(), 1, "{k}");
        assert!(k.rendered()[0].contains("sponsor"), "{k}");
    }

    #[test]
    fn disjunctive_describe_through_language() {
        let mut kb = mini_kb();
        let a = kb
            .run("describe honor(X) where student(X, math, V) and V > 3.8 or student(X, M, W) and W > 3.9.")
            .unwrap();
        // Both disjuncts entail the GPA bound: the unconditional theorem
        // survives the intersection.
        assert_eq!(a.as_knowledge().unwrap().rendered(), vec!["honor(X)"]);
    }

    #[test]
    fn errors_propagate() {
        let mut kb = mini_kb();
        assert!(kb.run("retrieve honor(X) where").is_err()); // parse
        assert!(kb.run("describe student(X, Y, Z).").is_err()); // not IDB
        assert!(kb.run("enroll(ann).").is_err()); // arity
    }
}
