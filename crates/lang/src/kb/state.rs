//! The knowledge base's state: the struct, the interior-mutable cells
//! that let `&self` readers fill caches, construction, accessors and the
//! metrics gauges. What changes the state is in `mutate.rs`; what answers
//! statements from it is in `serve.rs`.

use qdk_core::{DescribeCache, DescribeOptions, PreparedIdb};
use qdk_durability::{DurabilityMetrics, Durable, RecoveryReport, WalOp};
use qdk_engine::{Downgrade, Idb, MaintainStats, MaintainedStore, ProgramPlan, Strategy};
use qdk_logic::metrics::{MetricsHub, MetricsSink, MetricsSnapshot};
use qdk_logic::obs::{FanoutSink, ObsSink};
use qdk_logic::{Constraint, Sym};
use qdk_storage::{Edb, Relation};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A value behind a mutex whose guard recovers from poisoning: a poisoned
/// lock only means another thread panicked mid-access, and every update
/// made through a [`Cell`] leaves its value coherent at every step (a
/// cache entry swapped whole, a queue pushed or taken, a WAL handle whose
/// state is guarded by its file formats), so readers carry on instead of
/// propagating the panic. Cloning clones the value into a fresh lock.
#[derive(Default)]
pub(super) struct Cell<T>(Mutex<T>);

impl<T> Cell<T> {
    pub(super) fn new(value: T) -> Self {
        Cell(Mutex::new(value))
    }

    pub(super) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone> Clone for Cell<T> {
    fn clone(&self) -> Self {
        Cell::new(self.lock().clone())
    }
}

impl<T> std::fmt::Debug for Cell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cell<{}>", std::any::type_name::<T>())
    }
}

/// Everything a knowledge base knows from its rules and constraints
/// alone, for one rules generation: the rules, the constraints, and what
/// is built from them — the compiled program `retrieve` runs, the rule
/// base prepared for the describe family, and the describe-answer cache.
/// A knowledge base holds its generation behind one `Arc`, so its clones
/// share it: a transaction's undo copy, and every epoch published while
/// the rules stay unchanged. Whatever any of them builds for these rules,
/// the others find built.
///
/// Fact mutations leave the generation alone. A compiled program depends
/// only on the rules plus a cardinality snapshot that steers join
/// *order*, never answers, so fact churn can at worst leave the order
/// mildly stale; a preparation and a describe answer never read the EDB
/// at all. A rule or constraint change starts the next generation (see
/// `KnowledgeBase::next_rules`): of what was built for the old rules it
/// carries over only the describe cache's surviving entries. That is the
/// one place a `RulesGen` is cloned, and it drops the cloned plan and
/// preparation at once.
#[derive(Clone, Debug, Default)]
pub(super) struct RulesGen {
    /// How many rule and constraint changes led from the empty rule base
    /// to this generation: the `rules_generation` gauge.
    pub(super) number: u64,
    pub(super) idb: Idb,
    pub(super) constraints: Vec<Constraint>,
    /// The compiled program, set by the first retrieve (or publish) that
    /// needs it and read without a lock after that.
    pub(super) plan: OnceLock<Arc<ProgramPlan>>,
    /// The rule base prepared for the describe family (dependency graph,
    /// §5.2 transformation, compiled rules), built by the first
    /// describe-family statement that needs it. At most one is held:
    /// asking under another [`qdk_core::TransformPolicy`] replaces it.
    pub(super) prepared: Cell<Option<Arc<PreparedIdb>>>,
    /// Cached complete describe answers (see [`qdk_core::cache`]). A
    /// describe answer reads only rules and constraints, so an answer any
    /// holder of this generation computes is a hit for all of them.
    pub(super) describe_cache: Cell<DescribeCache>,
}

/// Lifetime maintenance totals, the source of the `maintain_*` metrics
/// gauges. Counts only, so cloning a knowledge base — which every
/// transaction and every epoch publish does — copies a few words.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct MaintainTotals {
    pub(super) derived_added: u64,
    pub(super) derived_deleted: u64,
    pub(super) rederived: u64,
    pub(super) strata_invalidated: u64,
    pub(super) recomputes: u64,
    pub(super) retract_checked: u64,
    pub(super) retract_deleted: u64,
}

impl MaintainTotals {
    /// Folds one maintenance operation's counters in.
    pub(super) fn add(&mut self, stats: &MaintainStats) {
        self.derived_added += stats.derived_added as u64;
        self.derived_deleted += stats.derived_deleted as u64;
        self.rederived += stats.rederived as u64;
        self.strata_invalidated += stats.strata_invalidated as u64;
        self.recomputes += stats.recomputes() as u64;
    }

    /// Folds one incremental retraction's backward-check and deletion
    /// counts in (on top of [`Self::add`]).
    pub(super) fn add_retract(&mut self, stats: &MaintainStats) {
        self.retract_checked += stats.checked as u64;
        self.retract_deleted += stats.derived_deleted as u64;
    }
}

/// A knowledge-rich database: EDB facts, IDB rules, integrity
/// constraints, and the unified query interface over them.
///
/// Cloning costs O(relations): the stored relations share their storage
/// with the clone (see [`qdk_storage::Relation`]), the rules generation
/// (rules, constraints, compiled plan, describe preparation and describe
/// cache) and the maintained store's rule-derived parts are each one
/// `Arc`, and everything else is a few words per predicate. Every
/// transaction (its undo copy) and every epoch publish clones, and so
/// shares everything already built for its rules.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeBase {
    pub(super) edb: Edb,
    /// The rules generation: rules, constraints and everything built
    /// from them alone, shared with every clone until a rule or
    /// constraint change starts the next one.
    pub(super) rules: Arc<RulesGen>,
    pub(super) keys: HashMap<Sym, usize>,
    pub(super) strategy: Strategy,
    pub(super) opts: DescribeOptions,
    /// In-flight transaction buffer: while `Some`, logged ops collect
    /// here instead of hitting the WAL, and commit writes them as one
    /// atomic [`WalOp::Batch`] record (see [`Self::transaction`]).
    pub(super) batch: Option<Vec<WalOp>>,
    /// The durable store, when this KB was opened with
    /// [`Self::open_durable`]; `None` for purely in-memory KBs. Shared
    /// behind an `Arc` so `Clone` keeps working — clones write to the
    /// *same* log, which is the only coherent reading since they also
    /// started from the same persistent state.
    pub(super) durable: Option<Arc<Cell<Durable>>>,
    /// Incrementally maintained derived facts (opt-in, built by
    /// [`Self::materialize_maintained`]): while present, every fact or
    /// rule mutation updates the derived state in place and bottom-up
    /// retrieves serve from it without re-running the fixpoint. `None`
    /// keeps the classic evaluate-per-query behaviour.
    pub(super) maintained: Option<MaintainedStore>,
    /// Maintenance counters accumulated since the last
    /// [`Self::take_maintain_stats`].
    pub(super) maintain_stats: MaintainStats,
    /// Lifetime maintenance totals — never taken, unlike
    /// `maintain_stats`.
    pub(super) maintain_total: MaintainTotals,
    /// The long-running metrics hub, when [`Self::enable_metrics`] was
    /// called. Shared behind an `Arc` so clones and epoch snapshots all
    /// aggregate into the *same* registry.
    pub(super) metrics: Option<Arc<MetricsHub>>,
    /// Downgrades recorded by mutation-side maintenance — an incremental
    /// step that fell back to full recomputation, or a maintained store
    /// that had to be dropped — queued for the next retrieve's answer so
    /// degraded service is never silent. Interior-mutable because
    /// retrieves take `&self`.
    pub(super) pending: Cell<Vec<Downgrade>>,
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
        &self.rules.idb
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

    /// True if this KB logs its mutations to a durable store.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What recovery found when this KB was opened (`None` for in-memory
    /// KBs).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable
            .as_ref()
            .map(|d| d.lock().recovery_report().clone())
    }

    /// Lifetime durability counters (`None` for in-memory KBs).
    pub fn durability_metrics(&self) -> Option<DurabilityMetrics> {
        self.durable.as_ref().map(|d| d.lock().metrics())
    }

    /// True while the maintained derived-fact store is live.
    pub fn is_maintained(&self) -> bool {
        self.maintained.is_some()
    }

    /// The maintained store's relation for the derived predicate `pred`
    /// (`None` when no store is live or nothing was derived for `pred`).
    /// Read-only introspection: it shows, for instance, which columns
    /// readers' probes have indexed.
    pub fn maintained_relation(&self, pred: &str) -> Option<&Relation> {
        self.maintained.as_ref()?.derived().relation(pred)
    }

    /// The per-stratum generation counters of the maintained store
    /// (`None` when no store is live). Rule changes bump exactly the
    /// affected strata.
    pub fn stratum_generations(&self) -> Option<&[u64]> {
        self.maintained.as_ref().map(|s| s.stratum_generations())
    }

    /// Copies of the maintenance downgrades currently queued for the
    /// next retrieve's answer (the queue itself still drains there).
    pub fn pending_downgrades(&self) -> Vec<Downgrade> {
        self.pending.lock().clone()
    }

    /// Cumulative counters of this knowledge base's describe cache. The
    /// cache belongs to the rules generation, which the writer shares
    /// with every epoch published while the rules stay unchanged, so hits
    /// and misses count the lookups of all of them; the next generation's
    /// cache carries the counters forward.
    pub fn describe_cache_stats(&self) -> qdk_core::CacheStats {
        self.rules.describe_cache.lock().stats()
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
        reg.gauge_set("rules_generation", self.rules.number);
        reg.gauge_set("edb_facts", self.edb.fact_count() as u64);
        reg.gauge_set("idb_rules", self.rules.idb.rules().len() as u64);
        reg.gauge_set("constraints", self.rules.constraints.len() as u64);
        reg.gauge_set("pending_downgrades", self.pending.lock().len() as u64);
        let cache = self.describe_cache_stats();
        reg.gauge_set("describe_cache_hits", cache.hits);
        reg.gauge_set("describe_cache_misses", cache.misses);
        reg.gauge_set("describe_cache_evicted", cache.evicted);
        reg.gauge_set("describe_cache_survived", cache.survived);
        reg.gauge_set(
            "describe_cache_entries",
            self.rules.describe_cache.lock().len() as u64,
        );
        reg.gauge_set("maintained", u64::from(self.maintained.is_some()));
        reg.gauge_set(
            "maintained_facts",
            self.maintained
                .as_ref()
                .map_or(0, |s| s.derived().len() as u64),
        );
        let totals = self.maintain_total;
        reg.gauge_set("maintain_derived_added", totals.derived_added);
        reg.gauge_set("maintain_derived_deleted", totals.derived_deleted);
        reg.gauge_set("maintain_rederived", totals.rederived);
        reg.gauge_set("maintain_strata_invalidated", totals.strata_invalidated);
        reg.gauge_set("maintain_recomputes", totals.recomputes);
        reg.gauge_set("retract_checked", totals.retract_checked);
        reg.gauge_set("retract_deleted", totals.retract_deleted);
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

    /// The declared integrity constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.rules.constraints
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
        for rule in self.rules.idb.rules() {
            let _ = writeln!(out, "{rule}");
        }
        for c in &self.rules.constraints {
            let _ = writeln!(out, "{c}");
        }
        out
    }
}
