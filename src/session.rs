//! The unified `Session` facade: every read statement, one request shape.
//!
//! The paper's instrument has twin statements that differ only in their
//! initial keyword; this module gives them twin *calls* that differ only
//! in the method name, and one more for everything §6 adds to them. A
//! [`Session`] wraps a [`KnowledgeBase`]; a [`Request`] carries everything
//! one evaluation needs — subject and optional hypothesis/qualifier, or a
//! whole statement as text, plus strategy, resource limits and
//! cancellation — as a builder; a [`Response`] is the statement's
//! [`Answer`] plus, when asked for, its [`QueryTrace`]. Whichever way a
//! read statement arrives — [`Session::retrieve`], [`Session::describe`],
//! [`Session::query`], [`Session::run`], or the same calls on a
//! [`SnapshotSession`] — it is served by one function, which owns the
//! per-request options, the timing, the metrics, the slow-query log and
//! the trace. Errors are [`crate::Error`].
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
//!
//! let all = session
//!     .query(Request::statement("describe * where student(X, math, V)."))
//!     .unwrap();
//! assert!(all.to_string().starts_with("honor:"));
//! ```

use crate::trace::QueryTrace;
use crate::{Error, Result};
use qdk_core::{Describe, DescribeAnswer, DescribeOptions};
use qdk_engine::{AutoChoice, DataAnswer, Downgrade, Retrieve, Strategy};
use qdk_lang::ast::Statement;
use qdk_lang::parser::{parse_script, parse_statement};
use qdk_lang::shared::{KbState, Publisher};
use qdk_lang::{Answer, KnowledgeBase};
use qdk_logic::metrics::{MetricsHub, MetricsSnapshot};
use qdk_logic::obs::{CollectSink, FanoutSink, ObsSink, Sink};
use qdk_logic::parser::{parse_atom, parse_body};
use qdk_logic::{CancelToken, ResourceLimits};
use qdk_storage::{EpochCell, EpochId};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One read statement, fully specified: what to ask and the per-request
/// evaluation knobs. Build with [`Request::subject`] (for the twin calls)
/// or [`Request::statement`] (for [`Session::query`]) and chain the
/// builder methods; anything left unset inherits the session's defaults.
#[derive(Clone, Debug)]
pub struct Request {
    ask: Ask,
    strategy: Option<Strategy>,
    limits: Option<ResourceLimits>,
    cancel: Option<CancelToken>,
    trace: bool,
}

/// What a [`Request`] asks.
#[derive(Clone, Debug)]
enum Ask {
    /// A subject atom and an optional `where` conjunction; the twin call
    /// it is handed to supplies the keyword.
    Parts(String, Option<String>),
    /// A whole statement as text.
    Text(String),
    /// A statement already parsed ([`Session::run`] / [`Session::load`]).
    Parsed(Statement),
}

/// The initial keyword a twin call puts before a request's parts.
#[derive(Clone, Copy)]
enum Keyword {
    Retrieve,
    Describe,
}

impl Request {
    fn new(ask: Ask) -> Self {
        Request {
            ask,
            strategy: None,
            limits: None,
            cancel: None,
            trace: false,
        }
    }

    /// A request for the given subject atom, e.g. `"honor(X)"`, to hand
    /// to [`Session::retrieve`] or [`Session::describe`].
    pub fn subject(subject: impl Into<String>) -> Self {
        Request::new(Ask::Parts(subject.into(), None))
    }

    /// A request for one whole read statement of the unified language —
    /// `retrieve`, any `describe` form (`where necessary`, `where not`,
    /// disjunctive, subjectless, `*`), `compare`, `explain`, `show` — as
    /// text, e.g. `"describe * where honor(X)."`, to hand to
    /// [`Session::query`].
    pub fn statement(text: impl Into<String>) -> Self {
        Request::new(Ask::Text(text.into()))
    }

    /// The `where` conjunction of a [`Request::subject`] request: the
    /// hypothesis of a `describe`, the qualifier of a `retrieve`. E.g.
    /// `"student(X, math, V), V > 3.7"`. (A [`Request::statement`]
    /// carries its own and ignores this.)
    #[must_use]
    pub fn where_clause(mut self, hypothesis: impl Into<String>) -> Self {
        if let Ask::Parts(_, h) = &mut self.ask {
            *h = Some(hypothesis.into());
        }
        self
    }

    /// Pins the retrieve evaluation strategy (ignored by every other
    /// statement). Unset, the session's strategy applies, which is
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

    /// Requests a structured profile of the evaluation: the response's
    /// [`Response::trace`] returns a [`QueryTrace`] with stage timings,
    /// engine counters and any strategy downgrades. Tracing never changes
    /// the answer — only observes it (see DESIGN.md §12).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

impl Ask {
    /// The statement asked. `keyword` is what the twin call puts before a
    /// request's parts; text brings its own keyword, and parts given to
    /// [`Session::query`] have none.
    fn into_statement(self, keyword: Option<Keyword>) -> Result<Statement> {
        let (subject, hypothesis) = match self {
            Ask::Parsed(stmt) => return Ok(stmt),
            Ask::Text(text) => return parse_statement(&text),
            Ask::Parts(subject, hypothesis) => (subject, hypothesis),
        };
        let subject = parse_atom(&subject)?;
        let conjunction = match hypothesis {
            Some(h) => parse_body(&h)?,
            None => Vec::new(),
        };
        match keyword {
            Some(Keyword::Retrieve) => Ok(Statement::Retrieve(Retrieve::new(subject, conjunction))),
            Some(Keyword::Describe) => Ok(Statement::Describe(Describe::new(subject, conjunction))),
            None => Err(Error::Parse(qdk_logic::ParseError {
                message: format!(
                    "`{subject}` is a subject, not a statement: hand it to `retrieve` or \
                     `describe`, or build the request with `Request::statement`"
                ),
                line: 1,
                column: 1,
            })),
        }
    }
}

/// The answer to one [`Request`] — data rows for `retrieve`, theorems for
/// `describe`, the other [`Answer`] variants for the §6 statements — plus
/// the optional [`QueryTrace`] profile when the request asked for one with
/// [`Request::with_trace`]. Renders as its answer does.
#[derive(Clone, Debug)]
pub struct Response {
    answer: Answer,
    trace: Option<QueryTrace>,
}

impl Response {
    /// The statement's answer.
    pub fn answer(&self) -> &Answer {
        &self.answer
    }

    /// Consumes the response into its answer.
    pub fn into_answer(self) -> Answer {
        self.answer
    }

    /// The data answer, if this was a `retrieve`.
    pub fn as_data(&self) -> Option<&DataAnswer> {
        self.answer.as_data()
    }

    /// The knowledge answer, if this was a `describe` (plain, `where
    /// necessary` or disjunctive).
    pub fn as_knowledge(&self) -> Option<&DescribeAnswer> {
        self.answer.as_knowledge()
    }

    /// Consumes the response into its data answer.
    pub fn into_data(self) -> Option<DataAnswer> {
        self.answer.into_data()
    }

    /// Consumes the response into its knowledge answer.
    pub fn into_knowledge(self) -> Option<DescribeAnswer> {
        self.answer.into_knowledge()
    }

    /// The structured profile of this evaluation, when the request asked
    /// for one with [`Request::with_trace`].
    pub fn trace(&self) -> Option<&QueryTrace> {
        self.trace.as_ref()
    }

    /// Strategy downgrades recorded while answering: the requested
    /// strategy could not complete and a simpler one produced the answer
    /// (e.g. QSQ degrading to semi-naive when the demanded slice uses
    /// negation). Empty for anything but a `retrieve`, and for retrieves
    /// that ran as requested — check this to detect silent degradation
    /// without enabling tracing.
    pub fn downgrades(&self) -> &[Downgrade] {
        self.as_data().map_or(&[], |d| &d.downgrades)
    }

    /// What [`Strategy::Auto`] resolved this retrieve to, and by which
    /// row of its decision table. `None` for anything but a `retrieve`,
    /// and for retrieves that pinned a strategy. Available without
    /// tracing; a trace carries the same value.
    pub fn auto_choice(&self) -> Option<AutoChoice> {
        self.as_data().and_then(|d| d.auto)
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.answer.fmt(f)
    }
}

/// A stateful facade over one [`KnowledgeBase`]: load schema and clauses,
/// then ask any read statement with one [`Request`] shape. Session-level
/// defaults (strategy, limits) come from the wrapped
/// knowledge base; each request may override any of them.
///
/// For concurrent serving the session doubles as the **single writer** of
/// an epoch sequence: [`Session::snapshot`] publishes the current state
/// as an immutable epoch and hands back a [`SnapshotSession`] — a
/// `Send + Sync` read handle any number of threads can query while this
/// session keeps mutating and publishing. Its facts and compiled plan are
/// read without a lock; the describe cache, the describe preparation and
/// the epoch's QSQ tables are shared by every reader of the epoch and sit
/// behind a `Mutex` each, held for a lookup or an insert.
#[derive(Debug, Default)]
pub struct Session {
    pub(crate) kb: KnowledgeBase,
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
        self.kb.checkpoint()
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

    /// Parses and executes a script (declarations, facts, rules,
    /// constraints, queries), returning every answer.
    pub fn load(&mut self, src: &str) -> Result<Vec<Answer>> {
        let stmts = parse_script(src)?;
        stmts.into_iter().map(|s| self.execute(s)).collect()
    }

    /// Parses and executes one statement of the unified language.
    pub fn run(&mut self, src: &str) -> Result<Answer> {
        self.execute(parse_statement(src)?)
    }

    /// A read statement is served like any other request, under the
    /// session's defaults (so it is timed, counted and slow-logged); a
    /// statement that changes the knowledge base goes straight to it.
    fn execute(&mut self, stmt: Statement) -> Result<Answer> {
        if !stmt.is_read() {
            return self.kb.execute(&stmt);
        }
        let request = Request::new(Ask::Parsed(stmt));
        query_on(&self.kb, request, None).map(Response::into_answer)
    }

    /// Evaluates a data query: `retrieve subject where qualifier`.
    pub fn retrieve(&self, request: Request) -> Result<Response> {
        query_on(&self.kb, request, Some(Keyword::Retrieve))
    }

    /// Evaluates a knowledge query: `describe subject where hypothesis`.
    pub fn describe(&self, request: Request) -> Result<Response> {
        query_on(&self.kb, request, Some(Keyword::Describe))
    }

    /// Evaluates the read statement a [`Request::statement`] carries,
    /// under the request's limits, cancellation and trace like the twin
    /// calls. A statement that would change the knowledge
    /// base is refused with [`Error::ReadOnly`] and not executed — use
    /// [`Session::run`] or [`Session::apply`] for those.
    pub fn query(&self, request: Request) -> Result<Response> {
        query_on(&self.kb, request, None)
    }

    /// Forces the write-ahead log to stable storage regardless of the
    /// fsync policy (a no-op for in-memory sessions).
    pub fn sync(&mut self) -> Result<()> {
        self.kb.sync()
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
    /// rules, the compiled plan, the column indexes readers of the last
    /// epoch built — and, for durable sessions, forces the WAL to stable
    /// storage first, so a published epoch is always durable.
    pub fn publish(&mut self) -> Result<EpochId> {
        self.publish_then(Publisher::epoch)
    }

    /// Publishes the next epoch and hands the publisher that now holds it
    /// (created by the first publish) to `then`.
    fn publish_then<T>(&mut self, then: impl FnOnce(&Publisher) -> T) -> Result<T> {
        match &mut self.publisher {
            Some(p) => {
                p.publish(&mut self.kb)?;
                Ok(then(p))
            }
            None => Ok(then(self.publisher.insert(Publisher::new(&mut self.kb)?))),
        }
    }

    /// Publishes the current state (see [`Session::publish`]) and opens a
    /// read handle pinned to it. The handle is `Send + Sync` and clones
    /// cheaply: hand copies to as many threads as you like. The snapshot
    /// owns an immutable knowledge base with its plan and indexes
    /// prebuilt; a retrieve locks nothing but the epoch's QSQ tables, for
    /// a lookup and an adoption when it runs a QSQ net.
    pub fn snapshot(&mut self) -> Result<SnapshotSession> {
        self.publish_then(|p| {
            let cell = p.cell();
            SnapshotSession {
                version: cell.version(),
                cell,
                state: Arc::clone(p.last()),
            }
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

    /// Arms slow-query capture: any read statement whose wall time
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
    pub fn batch<R>(&mut self, f: impl FnOnce(&mut KnowledgeBase) -> Result<R>) -> Result<R> {
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
/// of threads can hold one and ask it any read statement concurrently.
/// Retrieves against a snapshot take no lock on the data: the epoch owns
/// its facts, frozen at publish time, and its rules generation's compiled
/// plan was built before the epoch was published; a column index a
/// retrieve probes first is built once in a `OnceLock`. The one lock a
/// retrieve can take guards the epoch's QSQ tables, which every clone of
/// the epoch shares, for a lookup and an adoption around a QSQ net (the
/// describe family briefly locks the generation's shared caches, see
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

    /// Evaluates a data query against the pinned epoch. A QSQ net reads
    /// and extends the epoch's tables, shared with every clone.
    pub fn retrieve(&self, request: Request) -> Result<Response> {
        self.serve(request, Some(Keyword::Retrieve))
    }

    /// Evaluates a knowledge query against the pinned epoch. The prepared
    /// rule base and the describe cache belong to the epoch's rules
    /// generation, which the writer and every epoch published while the
    /// rules stay unchanged share: whichever of them asks first builds the
    /// preparation or computes the answer, and the rest — the writer too,
    /// with no publish in between — reuse it. Both sit behind a mutex held
    /// for the lookup — and, the first time in a rules generation, for
    /// building the preparation — so the describe family is where a
    /// snapshot reader takes a lock.
    pub fn describe(&self, request: Request) -> Result<Response> {
        self.serve(request, Some(Keyword::Describe))
    }

    /// Evaluates the read statement a [`Request::statement`] carries
    /// against the pinned epoch (see [`Session::query`]); a snapshot
    /// never changes, so a statement that would is [`Error::ReadOnly`].
    pub fn query(&self, request: Request) -> Result<Response> {
        self.serve(request, None)
    }

    fn serve(&self, request: Request, keyword: Option<Keyword>) -> Result<Response> {
        query_on(&self.state.kb, request, keyword)
    }
}

/// The sink for one request. A fresh collector is installed when the
/// request asks for a trace **or** slow-query capture is armed (the
/// capture needs the event stream to render a profile if the query turns
/// out slow); either way the knowledge base's default sink — which
/// carries the metrics aggregator when metrics are enabled — keeps
/// receiving every event through a fan-out, so tracing a query never
/// detaches it from the long-running aggregates.
fn request_sink(kb: &KnowledgeBase, trace: bool) -> (ObsSink, Option<Arc<CollectSink>>) {
    let default = kb.describe_options().sink.clone();
    let slow_armed = kb.metrics_hub().is_some_and(|h| h.slow_query_micros() > 0);
    if !(trace || slow_armed) {
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

/// Serves one [`Request`] against a knowledge base: the single way a read
/// statement reaches [`KnowledgeBase::serve`] from the facade, whatever
/// its kind and whichever call it came through. It owns the request's
/// sink, resolves the request's knobs against the knowledge base's
/// defaults into the one options struct `serve` takes, times the whole of
/// parse + evaluation, and hands the rest to [`finish_query`].
fn query_on(kb: &KnowledgeBase, request: Request, keyword: Option<Keyword>) -> Result<Response> {
    let (obs, collector) = request_sink(kb, request.trace);
    let started = Instant::now();
    let defaults = kb.describe_options();
    let opts = DescribeOptions {
        limits: request.limits.unwrap_or(defaults.limits),
        cancel: request.cancel.or_else(|| defaults.cancel.clone()),
        sink: obs,
        ..defaults.clone()
    };
    let strategy = request.strategy.unwrap_or(kb.strategy());
    let stmt = {
        let _span = opts.sink.span("parse", 0);
        request.ask.into_statement(keyword)?
    };
    let answer = kb.serve(&stmt, strategy, &opts)?;
    let wall = started.elapsed().as_micros() as u64;
    let trace = finish_query(kb, collector, request.trace, &stmt, wall, &answer);
    Ok(Response { answer, trace })
}

/// The epilogue of every served statement: records the wall-time
/// histogram and per-kind counter (`retrieves` for a retrieve, `describes`
/// for every other kind), folds the collected events into a
/// [`QueryTrace`] — whose downgrades and strategy choice repeat a
/// retrieve's answer — writes the slow-query log line when the query
/// crossed the armed threshold, and returns the trace only if the request
/// asked for one. The statement is rendered only when a collector exists.
fn finish_query(
    kb: &KnowledgeBase,
    collector: Option<Arc<CollectSink>>,
    want_trace: bool,
    stmt: &Statement,
    wall: u64,
    answer: &Answer,
) -> Option<QueryTrace> {
    let data = answer.as_data();
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
        QueryTrace::from_events(&c.take(), stmt.to_string(), wall, downgrades)
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn per_request_strategy() {
        let s = session();
        for strategy in Strategy::ALL {
            let r = s
                .retrieve(Request::subject("honor(X)").strategy(strategy))
                .unwrap();
            assert!(r.as_data().unwrap().contains_row(&["ann"]), "{strategy:?}");
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
        s.batch(|kb| kb.declare("p", &["A"], None)).unwrap();
        assert!(s.knowledge_base().edb().is_edb_predicate("p"));
    }
}
