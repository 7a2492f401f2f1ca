//! Everything that changes a knowledge base: recovery, the write-ahead
//! log and transactions, checkpoints, the `add_*` / `retract_fact`
//! mutations with their incremental maintenance, epoch-publish
//! preparation, and `execute` for the statements that mutate.

use super::state::{Cell, RulesGen};
use super::KnowledgeBase;
use crate::answer::Answer;
use crate::ast::Statement;
use crate::error::Result;
use crate::parser::{parse_script, parse_statement};
use qdk_core::redundancy;
use qdk_durability::{
    CheckpointData, CheckpointView, DurabilityOptions, Durable, Lsn, Opened, RelationView, WalOp,
};
use qdk_engine::maintain::Doomed;
use qdk_engine::{Downgrade, MaintainStats, MaintainedStore, Mode, Retraction};
use qdk_logic::obs::Event;
use qdk_logic::{Constraint, Rule, Sym, Term};
use qdk_storage::Tuple;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// How a retraction interacts with the maintained store, decided *before*
/// the tuple leaves the EDB (the first forward step of Backward/Forward
/// reads the pre-retraction state) and applied after.
enum RetractPlan {
    /// No maintained store, or the fact was not stored: nothing to do.
    Untracked,
    /// Negation over the affected region: fall back to recomputation.
    Recompute(String),
    /// The first forward step found the derived facts with a derivation
    /// through the retracted fact (or proved there are none).
    Ready(Retraction),
    /// Preparation failed; the store must be dropped.
    Lost(String),
}

impl KnowledgeBase {
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
        if kb.opts.sink.enabled()
            && (report.checkpointed + report.replayed > 0 || report.discarded_tail_bytes > 0)
        {
            kb.opts.sink.emit(Event::Recovery {
                replayed: report.checkpointed + report.replayed,
                discarded_bytes: report.discarded_tail_bytes,
            });
        }
        kb.durable = Some(Arc::new(Cell::new(durable)));
        Ok(kb)
    }

    /// Restores a checkpoint snapshot through the same declaration and
    /// insertion paths live mutations take.
    fn apply_checkpoint(&mut self, ckp: CheckpointData) -> Result<()> {
        for rel in ckp.relations {
            let attrs: Vec<&str> = rel.attrs.iter().map(Sym::as_str).collect();
            self.edb.declare(rel.name.as_str(), &attrs)?;
            for tuple in rel.facts {
                self.edb.insert_tuple(rel.name.as_str(), tuple)?;
            }
            if let Some(k) = rel.key {
                self.keys.insert(rel.name, k);
            }
        }
        let rules = self.next_rules();
        for rule in ckp.rules {
            rules.idb.add_rule(rule)?;
        }
        rules.constraints.extend(ckp.constraints);
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
            WalOp::AddRule(rule) => self.next_rules().idb.add_rule(rule)?,
            WalOp::Retract { pred, tuple } => {
                self.edb.remove_tuple(&pred, &tuple)?;
            }
            WalOp::AddConstraint(c) => self.next_rules().constraints.push(c),
            WalOp::Batch(ops) => {
                for op in ops {
                    self.apply_op(op)?;
                }
            }
        }
        Ok(())
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
            let (lsn, bytes) = d.lock().append(&op)?;
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
    ///
    /// The mutation that triggered it is already logged and applied, so
    /// a failed checkpoint does not fail it: the WAL stays whole (recovery
    /// replays it), the failure is counted as `checkpoint_failed` and
    /// noted as a downgrade, and the next mutation tries again.
    fn maybe_checkpoint(&mut self) {
        if self.batch.is_some() {
            return;
        }
        let due = match &self.durable {
            Some(d) => d.lock().should_checkpoint(),
            None => false,
        };
        if !due {
            return;
        }
        if let Err(e) = self.checkpoint() {
            self.opts.sink.counter("checkpoint_failed", 1);
            // One pending note per outage: a store that keeps failing
            // must not grow the list by one note per commit.
            let mut pending = self.pending.lock();
            if !pending.iter().any(|d| d.from == Mode::Checkpoint) {
                pending.push(Downgrade::checkpoint(format!("checkpoint: {e}")));
            }
        }
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
                self.maybe_checkpoint();
                Ok(value)
            }
            Err(e) => {
                *self = undo;
                Err(e)
            }
        }
    }

    /// Writes the current state as the checkpoint, atomically, and
    /// truncates the WAL. Returns the covered LSN and the checkpoint's
    /// size in bytes (`None` for an in-memory KB).
    pub fn checkpoint(&mut self) -> Result<Option<(Lsn, u64)>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let (lsn, bytes) = d.lock().checkpoint(&self.checkpoint_view())?;
        if self.opts.sink.enabled() {
            self.opts.sink.emit(Event::Checkpoint { lsn: lsn.0, bytes });
        }
        Ok(Some((lsn, bytes)))
    }

    /// The full declared state as a checkpoint reads it, borrowed:
    /// schemas (with keys), facts in per-relation insertion order, rules,
    /// constraints.
    fn checkpoint_view(&self) -> CheckpointView<'_> {
        // `Edb::declare` makes a schema and its relation together, and
        // neither is ever dropped, so every schema finds its rows.
        let relations = self
            .edb
            .catalog()
            .iter()
            .filter_map(|schema| {
                Some(RelationView {
                    name: &schema.name,
                    attrs: &schema.attrs,
                    key: self.keys.get(&schema.name).copied(),
                    rows: self.edb.relation(schema.name.as_str())?,
                })
            })
            .collect();
        CheckpointView {
            relations,
            rules: self.rules.idb.rules(),
            constraints: &self.rules.constraints,
        }
    }

    /// Forces the WAL to stable storage regardless of the fsync policy
    /// (a no-op for in-memory KBs).
    pub fn sync(&mut self) -> Result<()> {
        if let Some(d) = &self.durable {
            d.lock().sync()?;
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
        self.maybe_checkpoint();
        Ok(())
    }

    /// Adds a fact (ground atom) to the EDB, under the validate → log →
    /// apply discipline: a fact that fails validation leaves the KB and
    /// the WAL untouched. The compiled plan is retained — answers flow
    /// from the live EDB, the plan only fixes the literal schedules (see
    /// `RulesGen`).
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
                    store.after_insert(&self.edb, &self.rules.idb, atom.pred.as_str())
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
        self.maybe_checkpoint();
        Ok(new)
    }

    /// Adds a rule to the IDB, under the same validate → log → apply
    /// discipline as [`Self::add_fact`]. The rule starts the next rules
    /// generation, so the next retrieve compiles and the next describe
    /// prepares afresh. The maintained store (when live) re-derives only
    /// the predicates depending on the new rule's head, and cached
    /// describe answers survive a rule that an existing same-head rule
    /// θ-subsumes (it can contribute no new theorems).
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        let idb = &self.rules.idb;
        idb.validate_rule(&rule)?;
        let head = rule.head.pred.as_str().to_string();
        let redundant = idb
            .rules_for(&head)
            .any(|existing| redundancy::semantic_subsumes(existing, &rule, &[]));
        if self.durable.is_some() {
            self.log(WalOp::AddRule(rule.clone()))?;
        }
        let rules = self.next_rules();
        rules.idb.add_rule(rule)?;
        rules.describe_cache.lock().rule_added(&head, redundant);
        self.opts.sink.counter("rules_invalidated", 1);
        self.maintain_rules_changed(&head);
        self.maybe_checkpoint();
        Ok(())
    }

    /// Retracts a stored fact; returns `true` if it was stored. Same
    /// discipline as [`Self::add_fact`]; the compiled plan is retained.
    /// When the maintained store is live, the retraction runs
    /// Backward/Forward: the derived facts with a derivation through the
    /// tuple are found against the pre-retraction state, and after the
    /// tuple is removed only those with no other derivation are deleted.
    pub fn retract_fact(&mut self, atom: &qdk_logic::Atom) -> Result<bool> {
        self.edb.validate_fact(atom)?;
        // The first forward step reads the *pre-retraction* state, so the
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
        self.maybe_checkpoint();
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
        if let Some(reason) = store.retract_fallback_reason(&self.edb, &self.rules.idb, pred) {
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
                    store.recompute(&self.edb, &self.rules.idb)
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
                let result = {
                    let _span = obs.span("maintain_retract", 0);
                    self.finish_retract(&mut store, doomed)
                };
                match result {
                    Ok(stats) => {
                        if obs.enabled() {
                            obs.counter("retract_checked", stats.checked as u64);
                            obs.counter("retract_deleted", stats.derived_deleted as u64);
                        }
                        self.maintain_total.add_retract(&stats);
                        self.absorb_maintenance(&stats);
                        self.maintained = Some(store);
                    }
                    Err(e) => self.maintenance_lost("retract maintenance", e),
                }
            }
            RetractPlan::Lost(e) => self.maintenance_lost("retract maintenance", e),
        }
    }

    /// Borrow-splitting shim for the Backward/Forward rounds.
    fn finish_retract(
        &self,
        store: &mut MaintainedStore,
        doomed: Doomed,
    ) -> qdk_engine::Result<MaintainStats> {
        store.finish_retract(&self.edb, &self.rules.idb, doomed)
    }

    /// Adds an integrity constraint (logged like every other mutation —
    /// constraints are part of the durable state `dump()` serializes).
    /// Constraints shape knowledge answers, so a constraint starts the
    /// next rules generation like a rule does.
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        if self.durable.is_some() {
            self.log(WalOp::AddConstraint(c.clone()))?;
        }
        let preds: Vec<Sym> = c.body.iter().map(|a| a.pred.clone()).collect();
        let rules = self.next_rules();
        rules.constraints.push(c);
        // Constraints prune describe answers, so cached entries whose
        // closure reaches a constrained predicate go stale. Retrieve
        // evaluation ignores constraints: the maintained store survives.
        rules.describe_cache.lock().constraint_added(&preds);
        self.opts.sink.counter("rules_invalidated", 1);
        self.maybe_checkpoint();
        Ok(())
    }

    /// Starts the next rules generation and returns it for a rule or
    /// constraint change to apply. It starts from this generation's rules,
    /// constraints and describe cache, and nothing built for the old
    /// rules: no plan, no preparation. Every other holder of the old
    /// generation (earlier epochs, a transaction's undo copy) keeps it
    /// whole; when there is none, the old one is reused in place.
    fn next_rules(&mut self) -> &mut RulesGen {
        let rules = Arc::make_mut(&mut self.rules);
        rules.number += 1;
        rules.plan = OnceLock::new();
        rules.prepared = Cell::default();
        rules
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
        self.maintained = Some(MaintainedStore::build(&self.edb, &self.rules.idb, plan)?);
        Ok(())
    }

    /// Takes the maintenance counters accumulated since the last call
    /// (the facade folds these into its mutation reports).
    pub fn take_maintain_stats(&mut self) -> MaintainStats {
        std::mem::take(&mut self.maintain_stats)
    }

    /// Folds one maintenance operation's counters in, surfacing its
    /// recompute fallbacks as recorded downgrades.
    fn absorb_maintenance(&mut self, stats: &MaintainStats) {
        for reason in &stats.recompute_reasons {
            self.pending
                .lock()
                .push(Downgrade::maintenance(reason.clone()));
        }
        self.maintain_stats.merge(stats);
        self.maintain_total.add(stats);
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
        self.maintain_total.recomputes += 1;
        self.pending.lock().push(Downgrade::maintenance(reason));
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
            store.rules_changed(&self.edb, &self.rules.idb, plan, head, &obs)
        };
        match result {
            Ok(stats) => {
                self.absorb_maintenance(&stats);
                self.maintained = Some(store);
            }
            Err(e) => self.maintenance_lost("rule maintenance", e),
        }
    }

    /// Prepares this KB for an epoch publish: adopt the index demand
    /// readers expressed on the previous epoch (`prev`) — in the stored
    /// facts and in the maintained derived facts, so no reader of the new
    /// epoch rebuilds an index a reader of the old one built — build the
    /// compiled plan, so the epoch's readers find it built, and force the
    /// WAL to stable storage so a published epoch is always durable.
    pub(crate) fn prepare_publish(&mut self, prev: Option<&KnowledgeBase>) -> Result<()> {
        if let Some(prev) = prev {
            self.edb.adopt_index_demand(prev.edb());
            if let (Some(mine), Some(theirs)) = (&mut self.maintained, &prev.maintained) {
                mine.adopt_index_demand(theirs);
            }
        }
        self.plan();
        self.sync()
    }

    /// Executes one parsed statement: the statements that change the
    /// knowledge base here, every other through [`Self::serve`] with
    /// this KB's defaults.
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
            _ => self.serve(stmt, self.strategy, &self.opts),
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
