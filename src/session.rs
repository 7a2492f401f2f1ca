//! The unified `Session` facade: both statements, one request shape.
//!
//! The paper's instrument has twin statements that differ only in their
//! initial keyword; this module gives them twin *calls* that differ only
//! in the method name. A [`Session`] wraps a [`KnowledgeBase`]; a
//! [`Request`] carries everything one evaluation needs — subject, optional
//! hypothesis/qualifier, strategy, resource limits, cancellation and
//! worker count — as a builder; a [`Response`] is either data rows or
//! theorems, tagged. Errors consolidate into [`crate::Error`].
//!
//! ```
//! use qdk::{Request, Session};
//!
//! let mut session = Session::new();
//! session.load(
//!     "predicate student(Sname, Major, Gpa) key 1.
//!      student(ann, math, 3.9).
//!      student(bob, math, 3.5).
//!      honor(X) :- student(X, Y, Z), Z > 3.7.",
//! ).unwrap();
//!
//! let data = session.retrieve(Request::subject("honor(X)")).unwrap();
//! assert!(data.as_data().unwrap().contains_row(&["ann"]));
//!
//! let knowledge = session.describe(Request::subject("honor(X)")).unwrap();
//! assert_eq!(
//!     knowledge.as_knowledge().unwrap().rendered(),
//!     vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"],
//! );
//! ```

use crate::error::Result;
use crate::trace::QueryTrace;
use qdk_core::{Describe, DescribeAnswer};
use qdk_engine::{AutoChoice, DataAnswer, Downgrade, EvalOptions, ProgramPlan, Retrieve, Strategy};
use qdk_lang::shared::{KbState, Publisher};
use qdk_lang::{Answer, KnowledgeBase};
use qdk_logic::metrics::{MetricsHub, MetricsSnapshot};
use qdk_logic::obs::{CollectSink, FanoutSink, ObsSink, Sink};
use qdk_logic::parser::{parse_atom, parse_body};
use qdk_logic::{CancelToken, Parallelism, ResourceLimits};
use qdk_storage::{EpochCell, EpochId};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One query, fully specified: the subject, an optional hypothesis (for
/// `describe`) or qualifier (for `retrieve`), and the per-request
/// evaluation knobs. Build with [`Request::subject`] and chain the
/// builder methods; anything left unset inherits the session's defaults.
#[derive(Clone, Debug)]
pub struct Request {
    subject: String,
    hypothesis: Option<String>,
    strategy: Option<Strategy>,
    limits: Option<ResourceLimits>,
    cancel: Option<CancelToken>,
    parallelism: Option<Parallelism>,
    trace: bool,
}

impl Request {
    /// A request for the given subject atom, e.g. `"honor(X)"`.
    pub fn subject(subject: impl Into<String>) -> Self {
        Request {
            subject: subject.into(),
            hypothesis: None,
            strategy: None,
            limits: None,
            cancel: None,
            parallelism: None,
            trace: false,
        }
    }

    /// The `where` conjunction: the hypothesis of a `describe`, the
    /// qualifier of a `retrieve`. E.g. `"student(X, math, V), V > 3.7"`.
    #[must_use]
    pub fn where_clause(mut self, hypothesis: impl Into<String>) -> Self {
        self.hypothesis = Some(hypothesis.into());
        self
    }

    /// Pins the retrieve evaluation strategy (ignored by `describe`).
    /// Unset, the session's strategy applies, which is
    /// [`Strategy::Auto`] unless the knowledge base was built
    /// `with_strategy`.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Resource limits for this request only.
    #[must_use]
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// A cooperative cancellation token for this request only.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Worker count for this request only ([`Parallelism::SEQUENTIAL`]
    /// pins the exact sequential path).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Requests a structured profile of the evaluation: the response's
    /// [`Response::trace`] returns a [`QueryTrace`] with stage timings,
    /// engine counters and any strategy downgrades. Tracing never changes
    /// the answer — only observes it (see DESIGN.md §12).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The parsed `where` conjunction (empty when none was given).
    fn parsed_hypothesis(&self) -> Result<Vec<qdk_logic::Literal>> {
        match &self.hypothesis {
            Some(h) => Ok(parse_body(h)?),
            None => Ok(Vec::new()),
        }
    }
}

/// The answer to one [`Request`]: data rows for `retrieve`, theorems for
/// `describe`, plus the optional [`QueryTrace`] profile when the request
/// asked for one with [`Request::with_trace`].
#[derive(Clone, Debug)]
pub struct Response {
    payload: Payload,
    trace: Option<QueryTrace>,
}

#[derive(Clone, Debug)]
enum Payload {
    Data(DataAnswer),
    Knowledge(DescribeAnswer),
}

impl Response {
    fn data(answer: DataAnswer, trace: Option<QueryTrace>) -> Self {
        Response {
            payload: Payload::Data(answer),
            trace,
        }
    }

    fn knowledge(answer: DescribeAnswer, trace: Option<QueryTrace>) -> Self {
        Response {
            payload: Payload::Knowledge(answer),
            trace,
        }
    }

    /// The data answer, if this was a `retrieve`.
    pub fn as_data(&self) -> Option<&DataAnswer> {
        match &self.payload {
            Payload::Data(d) => Some(d),
            Payload::Knowledge(_) => None,
        }
    }

    /// The knowledge answer, if this was a `describe`.
    pub fn as_knowledge(&self) -> Option<&DescribeAnswer> {
        match &self.payload {
            Payload::Data(_) => None,
            Payload::Knowledge(k) => Some(k),
        }
    }

    /// Consumes the response into its data answer.
    pub fn into_data(self) -> Option<DataAnswer> {
        match self.payload {
            Payload::Data(d) => Some(d),
            Payload::Knowledge(_) => None,
        }
    }

    /// Consumes the response into its knowledge answer.
    pub fn into_knowledge(self) -> Option<DescribeAnswer> {
        match self.payload {
            Payload::Data(_) => None,
            Payload::Knowledge(k) => Some(k),
        }
    }

    /// The structured profile of this evaluation, when the request asked
    /// for one with [`Request::with_trace`].
    pub fn trace(&self) -> Option<&QueryTrace> {
        self.trace.as_ref()
    }

    /// Strategy downgrades recorded while answering: the requested
    /// strategy could not complete and a simpler one produced the answer
    /// (e.g. QSQ degrading to semi-naive when the demanded slice uses
    /// negation). Empty for `describe` answers and for retrieves that ran as
    /// requested — check this to detect silent degradation without
    /// enabling tracing.
    pub fn downgrades(&self) -> &[Downgrade] {
        match &self.payload {
            Payload::Data(d) => &d.downgrades,
            Payload::Knowledge(_) => &[],
        }
    }

    /// What [`Strategy::Auto`] resolved this retrieve to, and by which
    /// row of its decision table. `None` for `describe` answers and for
    /// retrieves that pinned a strategy. Available without tracing; a
    /// trace carries the same value.
    pub fn auto_choice(&self) -> Option<AutoChoice> {
        match &self.payload {
            Payload::Data(d) => d.auto,
            Payload::Knowledge(_) => None,
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Payload::Data(d) => write!(f, "{d}"),
            Payload::Knowledge(k) => write!(f, "{k}"),
        }
    }
}

/// A stateful facade over one [`KnowledgeBase`]: load schema and clauses,
/// then ask either statement with one [`Request`] shape. Session-level
/// defaults (strategy, limits, parallelism) come from the wrapped
/// knowledge base; each request may override any of them.
///
/// For concurrent serving the session doubles as the **single writer** of
/// an epoch sequence: [`Session::snapshot`] publishes the current state
/// as an immutable epoch and hands back a [`SnapshotSession`] — a
/// `Send + Sync` read handle any number of threads can query with zero
/// locks while this session keeps mutating and publishing.
#[derive(Debug, Default)]
pub struct Session {
    kb: KnowledgeBase,
    publisher: Option<Publisher>,
}

impl Clone for Session {
    /// Clones the knowledge base (cheap, copy-on-write). The clone is a
    /// plain session: it does **not** inherit the epoch publisher — two
    /// writers publishing into one cell would break single-writer epoch
    /// ordering — so its first `snapshot()` starts a fresh sequence.
    fn clone(&self) -> Self {
        Session {
            kb: self.kb.clone(),
            publisher: None,
        }
    }
}

impl Session {
    /// A session over an empty knowledge base with paper-style defaults.
    pub fn new() -> Self {
        Session {
            kb: KnowledgeBase::new(),
            publisher: None,
        }
    }

    /// A session over a durable knowledge base stored at `dir` (created
    /// if absent), with default durability options: every mutation is
    /// fsynced to the write-ahead log before it is applied, and a
    /// checkpoint snapshot is taken every 1024 ops. A previous process's
    /// state — checkpoint plus WAL tail, tolerating a torn final record —
    /// is recovered on open; see [`Session::recovery_report`].
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Session {
            kb: KnowledgeBase::open_durable(dir)?,
            publisher: None,
        })
    }

    /// [`Session::open`] with explicit durability options (fsync policy,
    /// checkpoint cadence).
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        opts: qdk_durability::DurabilityOptions,
    ) -> Result<Self> {
        Ok(Session {
            kb: KnowledgeBase::open_durable_with(dir, opts)?,
            publisher: None,
        })
    }

    /// What recovery found when this session's store was opened: ops
    /// restored from the checkpoint, WAL records replayed, torn tail
    /// bytes discarded. `None` for in-memory sessions.
    pub fn recovery_report(&self) -> Option<qdk_durability::RecoveryReport> {
        self.kb.recovery_report()
    }

    /// Snapshots the knowledge base into a checkpoint and truncates the
    /// WAL. Returns the covered LSN and snapshot size, or `None` for an
    /// in-memory session.
    pub fn checkpoint(&mut self) -> Result<Option<(qdk_durability::Lsn, u64)>> {
        Ok(self.kb.checkpoint()?)
    }

    /// Wraps an existing knowledge base.
    pub fn over(kb: KnowledgeBase) -> Self {
        Session {
            kb,
            publisher: None,
        }
    }

    /// The wrapped knowledge base.
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Mutable access to the wrapped knowledge base.
    pub fn knowledge_base_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// Parses and executes a script (declarations, facts, rules,
    /// constraints, queries), returning every answer.
    pub fn load(&mut self, src: &str) -> Result<Vec<Answer>> {
        Ok(self.kb.load(src)?)
    }

    /// Parses and executes one statement of the unified language.
    pub fn run(&mut self, src: &str) -> Result<Answer> {
        Ok(self.kb.run(src)?)
    }

    /// Evaluates a data query: `retrieve subject where qualifier`.
    pub fn retrieve(&self, request: Request) -> Result<Response> {
        retrieve_on(&self.kb, None, request)
    }

    /// Evaluates a knowledge query: `describe subject where hypothesis`.
    pub fn describe(&self, request: Request) -> Result<Response> {
        describe_on(&self.kb, request)
    }

    /// The epoch of the most recent publish, or `None` if this session
    /// has never published a snapshot.
    pub fn epoch(&self) -> Option<EpochId> {
        self.publisher.as_ref().map(Publisher::epoch)
    }

    /// Publishes the session's current state as the next epoch. Readers
    /// holding [`SnapshotSession`]s see it at their next
    /// [`SnapshotSession::refresh`]; snapshots pinned to older epochs are
    /// untouched. Publication freezes everything a reader needs — facts,
    /// rules, the compiled plan, the composite indexes the plan's scans
    /// probe — and, for durable sessions, forces the WAL to stable
    /// storage first, so a published epoch is always durable.
    pub fn publish(&mut self) -> Result<EpochId> {
        match &mut self.publisher {
            Some(p) => Ok(p.publish(&mut self.kb)?),
            None => {
                let p = Publisher::new(&mut self.kb)?;
                let epoch = p.epoch();
                self.publisher = Some(p);
                Ok(epoch)
            }
        }
    }

    /// Publishes the current state (see [`Session::publish`]) and opens a
    /// read handle pinned to it. The handle is `Send + Sync` and clones
    /// cheaply: hand copies to as many threads as you like, and every
    /// query they run touches no lock — the snapshot owns an immutable
    /// knowledge base with its plan and indexes prebuilt.
    pub fn snapshot(&mut self) -> Result<SnapshotSession> {
        self.publish()?;
        let p = self
            .publisher
            .as_ref()
            .expect("publisher exists after publish");
        let cell = p.cell();
        let version = cell.version();
        Ok(SnapshotSession {
            cell,
            version,
            state: Arc::clone(p.last()),
        })
    }

    /// Attaches a fresh metrics hub to this session's knowledge base and
    /// starts aggregating: every span and counter the evaluation stacks
    /// emit — plus durability, maintenance and epoch events — folds into
    /// sharded lock-free counters, gauges and latency histograms. The
    /// hub is shared by clones and snapshots taken *after* this call.
    /// Read the aggregates with [`Session::metrics_snapshot`].
    pub fn enable_metrics(&mut self) -> Arc<MetricsHub> {
        self.kb.enable_metrics()
    }

    /// [`Session::enable_metrics`] aggregating into an existing hub —
    /// e.g. one shared across several knowledge bases, or the
    /// process-wide hub `QDK_TRACE=metrics` feeds.
    pub fn enable_metrics_with(&mut self, hub: Arc<MetricsHub>) {
        self.kb.enable_metrics_with(hub);
    }

    /// The attached metrics hub, if metrics are enabled.
    pub fn metrics_hub(&self) -> Option<&Arc<MetricsHub>> {
        self.kb.metrics_hub()
    }

    /// A consistent snapshot of every aggregate: counters, gauges and
    /// histogram quantiles, name-sorted. Point-in-time subsystem gauges
    /// (EDB/IDB sizes, cache and WAL state, epoch version and pin count)
    /// are polled first. `None` until [`Session::enable_metrics`].
    /// Render with [`MetricsSnapshot::render_prometheus`] or
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        if let (Some(hub), Some(p)) = (self.kb.metrics_hub(), &self.publisher) {
            let reg = hub.registry();
            reg.gauge_set("epoch_version", p.epoch().0);
            reg.gauge_set("snapshot_pins", p.pinned_readers());
        }
        self.kb.metrics_snapshot()
    }

    /// Arms slow-query capture: any retrieve or describe whose wall time
    /// reaches `micros` has its full profile rendered as one JSON line to
    /// `writer`, tagged with a session-unique run id, and counted in the
    /// `slow_queries` metric. Implies [`Session::enable_metrics`] if
    /// metrics were not already enabled. Pass `micros = 0` to disarm.
    pub fn capture_slow_queries(
        &mut self,
        micros: u64,
        writer: impl std::io::Write + Send + 'static,
    ) -> Arc<MetricsHub> {
        let hub = match self.kb.metrics_hub() {
            Some(h) => Arc::clone(h),
            None => self.kb.enable_metrics(),
        };
        hub.set_slow_query_micros(micros);
        hub.set_slow_log(writer);
        hub
    }

    /// Runs `f` as one atomic batch and, if this session has published
    /// before, publishes the result as the next epoch. The closure's
    /// mutations are logged as a single WAL record (all-or-nothing on
    /// disk); on error the knowledge base rolls back and nothing is
    /// published. Returns the closure's value.
    pub fn batch<R>(
        &mut self,
        f: impl FnOnce(&mut KnowledgeBase) -> qdk_lang::Result<R>,
    ) -> Result<R> {
        let value = self.kb.transaction(f)?;
        if self.publisher.is_some() {
            self.publish()?;
        }
        Ok(value)
    }
}

impl From<KnowledgeBase> for Session {
    fn from(kb: KnowledgeBase) -> Self {
        Session::over(kb)
    }
}

/// An immutable read handle pinned to one published epoch. Obtained from
/// [`Session::snapshot`]; `Send + Sync` and cheap to clone, so any number
/// of threads can hold one and query concurrently. Retrieves against a
/// snapshot acquire **no lock**: the epoch owns its facts, rules,
/// compiled plan and composite indexes, all frozen at publish time
/// (describes briefly lock the epoch's shared caches, see
/// [`SnapshotSession::describe`]).
///
/// A snapshot never changes underneath its holder — a writer publishing
/// new epochs is invisible until [`SnapshotSession::refresh`] is called,
/// which hops to the newest epoch (one atomic load on the fast path).
#[derive(Clone, Debug)]
pub struct SnapshotSession {
    cell: Arc<EpochCell<KbState>>,
    version: u64,
    state: Arc<KbState>,
}

impl SnapshotSession {
    /// The epoch this handle is pinned to.
    pub fn epoch(&self) -> EpochId {
        self.state.epoch
    }

    /// The frozen knowledge base of the pinned epoch.
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.state.kb
    }

    /// Hops to the most recently published epoch. Returns `true` if the
    /// handle moved. When nothing new was published this is a single
    /// atomic load — safe to call before every query.
    pub fn refresh(&mut self) -> bool {
        let moved = self.cell.refresh(&mut self.version, &mut self.state);
        if moved {
            self.state
                .kb
                .describe_options()
                .sink
                .counter("epoch_refresh", 1);
        }
        moved
    }

    /// A consistent snapshot of the shared metrics aggregates, polling
    /// the pinned epoch's subsystem gauges first (the hub is shared with
    /// the writer session, so counters and histograms reflect *all*
    /// readers). `None` if the writer never enabled metrics before
    /// publishing this epoch.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        if let Some(hub) = self.state.kb.metrics_hub() {
            hub.registry()
                .gauge_set("epoch_version", self.state.epoch.0);
        }
        self.state.kb.metrics_snapshot()
    }

    /// Evaluates a data query against the pinned epoch (zero locks).
    pub fn retrieve(&self, request: Request) -> Result<Response> {
        retrieve_on(&self.state.kb, Some(&self.state.plan), request)
    }

    /// Evaluates a knowledge query against the pinned epoch. Readers of
    /// one epoch share its describe-answer cache and its prepared rule
    /// base: whichever reader asks first builds the preparation, the rest
    /// reuse it, and the next publish carries it forward while the rules
    /// stay unchanged.
    pub fn describe(&self, request: Request) -> Result<Response> {
        describe_on(&self.state.kb, request)
    }
}

/// The sink for one request. A fresh collector is installed when the
/// request asks for a trace **or** slow-query capture is armed (the
/// capture needs the event stream to render a profile if the query turns
/// out slow); either way the knowledge base's default sink — which
/// carries the metrics aggregator when metrics are enabled — keeps
/// receiving every event through a fan-out, so tracing a query never
/// detaches it from the long-running aggregates.
fn request_sink(kb: &KnowledgeBase, request: &Request) -> (ObsSink, Option<Arc<CollectSink>>) {
    let default = kb.describe_options().sink.clone();
    let slow_armed = kb.metrics_hub().is_some_and(|h| h.slow_query_micros() > 0);
    if !(request.trace || slow_armed) {
        return (default, None);
    }
    let collector = Arc::new(CollectSink::new());
    let obs = match default.handle() {
        Some(existing) => ObsSink::new(Arc::new(FanoutSink::new(vec![
            Arc::clone(&collector) as Arc<dyn Sink>,
            existing,
        ]))),
        None => ObsSink::new(Arc::clone(&collector) as Arc<dyn Sink>),
    };
    (obs, Some(collector))
}

/// Shared epilogue of `retrieve` and `describe`: records the wall-time
/// histogram and per-kind counter, folds the collected events into a
/// [`QueryTrace`], writes the slow-query log line when the query crossed
/// the armed threshold, and returns the trace only if the request asked
/// for one. `data` is the answer of a retrieve (whose downgrades and
/// strategy choice the trace repeats), `None` for a describe.
fn finish_query(
    kb: &KnowledgeBase,
    collector: Option<Arc<CollectSink>>,
    want_trace: bool,
    statement: String,
    wall: u64,
    data: Option<&DataAnswer>,
) -> Option<QueryTrace> {
    let hub = kb.metrics_hub();
    if let Some(hub) = hub {
        let reg = hub.registry();
        if data.is_some() {
            reg.counter_add("retrieves", 1);
            reg.histogram_record("retrieve_micros", wall);
        } else {
            reg.counter_add("describes", 1);
            reg.histogram_record("describe_micros", wall);
        }
    }
    let trace = collector.map(|c| {
        let dropped = c.dropped();
        let downgrades = data.map(|d| d.downgrades.clone()).unwrap_or_default();
        QueryTrace::from_events(&c.take(), statement, wall, downgrades)
            .with_dropped(dropped)
            .with_auto(data.and_then(|d| d.auto))
    });
    if let Some(hub) = hub {
        let threshold = hub.slow_query_micros();
        if threshold > 0 && wall >= threshold {
            hub.registry().counter_add("slow_queries", 1);
            if let Some(t) = &trace {
                hub.write_slow_line(&t.render_json(hub.next_run_id()));
            }
        }
    }
    if want_trace {
        trace
    } else {
        None
    }
}

/// A [`Request`] resolved against one knowledge base's defaults: the
/// parsed subject and `where` conjunction, plus the option structs both
/// evaluation stacks consume. This is the facade's **single conversion
/// point** from the builder to the layered option types — `retrieve` and
/// `describe` no longer each assemble their own, so one override policy
/// (request knob, else session default) covers both statements.
struct Resolved {
    subject: qdk_logic::Atom,
    conjunction: Vec<qdk_logic::Literal>,
    strategy: Strategy,
    eval: EvalOptions,
    describe: qdk_core::DescribeOptions,
}

fn resolve_request(kb: &KnowledgeBase, request: &Request, obs: &ObsSink) -> Result<Resolved> {
    let (subject, conjunction) = {
        let _span = obs.span("parse", 0);
        (parse_atom(&request.subject)?, request.parsed_hypothesis()?)
    };
    let defaults = kb.describe_options();
    let limits = request.limits.unwrap_or(defaults.limits);
    let parallelism = request.parallelism.unwrap_or(defaults.parallelism);
    let cancel = request.cancel.clone().or_else(|| defaults.cancel.clone());
    let mut eval = EvalOptions::with_limits(limits).with_parallelism(parallelism);
    if let Some(token) = cancel.clone() {
        eval = eval.with_cancel(token);
    }
    eval.sink = obs.clone();
    let mut describe = defaults.clone();
    describe.limits = limits;
    describe.cancel = cancel;
    describe.parallelism = parallelism;
    describe.sink = obs.clone();
    Ok(Resolved {
        subject,
        conjunction,
        strategy: request.strategy.unwrap_or(kb.strategy()),
        eval,
        describe,
    })
}

/// `retrieve` against a knowledge base. With `plan`, execution uses the
/// given precompiled program and bypasses the plan cache entirely (the
/// snapshot path); without, it goes through the cache.
fn retrieve_on(
    kb: &KnowledgeBase,
    plan: Option<&ProgramPlan>,
    request: Request,
) -> Result<Response> {
    let (obs, collector) = request_sink(kb, &request);
    let started = Instant::now();
    let resolved = resolve_request(kb, &request, &obs)?;
    let query = Retrieve::new(resolved.subject, resolved.conjunction);
    let answer = kb.retrieve_with_options(&query, resolved.strategy, resolved.eval, plan)?;
    let wall = started.elapsed().as_micros() as u64;
    let trace = finish_query(
        kb,
        collector,
        request.trace,
        query.to_string(),
        wall,
        Some(&answer),
    );
    Ok(Response::data(answer, trace))
}

/// `describe` against a knowledge base (shared by [`Session`] and
/// [`SnapshotSession`]). The compiled `retrieve` plan plays no part; what
/// the knowledge base consults instead is its describe-answer cache and,
/// for a computed answer, the rule base prepared for the current rules
/// generation (`KnowledgeBase::describe_with_options`). Both sit behind a
/// mutex held for the lookup — and, the first time in a generation, for
/// building the preparation — so describes are the one query kind where a
/// snapshot reader takes a lock.
fn describe_on(kb: &KnowledgeBase, request: Request) -> Result<Response> {
    let (obs, collector) = request_sink(kb, &request);
    let started = Instant::now();
    let resolved = resolve_request(kb, &request, &obs)?;
    let query = Describe::new(resolved.subject, resolved.conjunction);
    let answer = kb.describe_with_options(&query, &resolved.describe)?;
    let wall = started.elapsed().as_micros() as u64;
    let trace = finish_query(kb, collector, request.trace, query.to_string(), wall, None);
    Ok(Response::knowledge(answer, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use qdk_logic::Resource;

    fn session() -> Session {
        let mut s = Session::new();
        s.load(
            "predicate student(Sname, Major, Gpa) key 1.\n\
             predicate enroll(Sname, Ctitle).\n\
             student(ann, math, 3.9).\n\
             student(bob, math, 3.5).\n\
             enroll(ann, databases).\n\
             honor(X) :- student(X, Y, Z), Z > 3.7.",
        )
        .unwrap();
        s
    }

    #[test]
    fn twin_statements_one_request_shape() {
        let s = session();
        let data = s.retrieve(Request::subject("honor(X)")).unwrap();
        assert!(data.as_data().unwrap().contains_row(&["ann"]));
        assert!(data.as_knowledge().is_none());
        let knowledge = s.describe(Request::subject("honor(X)")).unwrap();
        assert_eq!(
            knowledge.as_knowledge().unwrap().rendered(),
            vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
        );
        assert!(knowledge.as_data().is_none());
    }

    #[test]
    fn where_clause_feeds_both_statements() {
        let s = session();
        let data = s
            .retrieve(Request::subject("honor(X)").where_clause("enroll(X, databases)"))
            .unwrap();
        let d = data.into_data().unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&["ann"]));
        let knowledge = s
            .describe(Request::subject("honor(X)").where_clause("student(X, math, V), V > 3.8"))
            .unwrap();
        let k = knowledge.into_knowledge().unwrap();
        // The hypothesis implies the whole definition: the student leaf
        // identifies and the GPA comparison is implied, leaving the
        // unconditional theorem.
        assert_eq!(k.rendered(), vec!["honor(X)"]);
    }

    #[test]
    fn per_request_strategy_and_parallelism() {
        let s = session();
        for strategy in Strategy::ALL {
            for workers in [1, 4] {
                let r = s
                    .retrieve(
                        Request::subject("honor(X)")
                            .strategy(strategy)
                            .parallelism(Parallelism::workers(workers)),
                    )
                    .unwrap();
                assert!(r.as_data().unwrap().contains_row(&["ann"]), "{strategy:?}");
            }
        }
    }

    #[test]
    fn per_request_limits_override_session_defaults() {
        let mut s = Session::new();
        s.load(
            "predicate edge(F, T).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
             edge(a, b). edge(b, c). edge(c, d). edge(d, e).",
        )
        .unwrap();
        let err = s
            .retrieve(
                Request::subject("reach(X, Y)")
                    .limits(ResourceLimits::default().with_work_budget(1)),
            )
            .expect_err("budget must trip");
        assert_eq!(err.exhausted().unwrap().resource, Resource::WorkBudget);
        // The session default (unbounded) is untouched.
        assert!(s.retrieve(Request::subject("reach(X, Y)")).is_ok());
    }

    #[test]
    fn cancelled_request_reports_cancellation() {
        let s = session();
        let token = CancelToken::new();
        token.cancel();
        let err = s
            .retrieve(Request::subject("honor(X)").cancel(token.clone()))
            .expect_err("pre-cancelled token must abort");
        assert_eq!(err.exhausted().unwrap().resource, Resource::Cancelled);
        // `describe` degrades gracefully: a cancelled enumeration returns
        // the (empty) prefix tagged Truncated rather than erroring.
        let resp = s
            .describe(Request::subject("honor(X)").cancel(token))
            .unwrap();
        let k = resp.into_knowledge().unwrap();
        assert_eq!(
            k.completeness.exhausted().unwrap().resource,
            Resource::Cancelled
        );
    }

    #[test]
    fn parse_errors_consolidate() {
        let s = session();
        let err = s.retrieve(Request::subject("honor(")).unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
        let err = s
            .describe(Request::subject("honor(X)").where_clause("student("))
            .unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }

    #[test]
    fn session_wraps_and_exposes_the_kb() {
        let kb = KnowledgeBase::new();
        let mut s = Session::from(kb);
        s.knowledge_base_mut().declare("p", &["A"], None).unwrap();
        assert!(s.knowledge_base().edb().is_edb_predicate("p"));
    }
}
