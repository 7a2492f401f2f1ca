//! Structured observability events: the dependency-free layer every crate
//! in the workspace reports through.
//!
//! The design goal is *zero cost when disabled*: the hot paths hold an
//! [`ObsSink`] handle whose `enabled` flag is a plain `bool` captured at
//! construction, so a disabled sink costs one predictable branch and no
//! virtual call, no clock read, and no allocation (`benchmark/` reports
//! the traced-vs-untraced ratio — see DESIGN.md §12). When enabled,
//! events flow to a pluggable [`Sink`]:
//!
//! * [`NullSink`] — accepts and discards everything (useful to measure the
//!   cost of the *enabled* plumbing itself);
//! * [`CollectSink`] — buffers events in memory, capped, for tests and
//!   [`QueryTrace`](https://docs.rs) assembly by the session layer;
//! * [`JsonLinesSink`] — writes one JSON object per event to any
//!   `io::Write`, for offline analysis.
//!
//! Events are spans (start/end pairs with elapsed microseconds) and
//! counters. A statement emits them from the one thread that evaluates
//! it, so the event stream is deterministic in structure and spans always
//! nest properly ([`check_nesting`]).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Every span and counter name the workspace emits: the taxonomy of
/// DESIGN.md §12, as a value. A name outside this slice is drift, and a
/// test traces every statement kind and a mutation batch against it.
pub const NAMES: &[&str] = &[
    // Spans: statement stages.
    "parse",
    "plan",
    "execute",
    // Spans: retrieve strategies and their fixpoint nesting.
    "seminaive",
    "topdown",
    "qsq",
    "project",
    "stratum",
    "iteration",
    // Spans: describe phases.
    "transform",
    "enumerate",
    "assemble",
    "reduce",
    // Spans: maintenance.
    "maintain_insert",
    "maintain_retract",
    "maintain_rules",
    // Counters: evaluation.
    "rule_firings",
    "delta_facts",
    "delta_size",
    "delta_tasks",
    "index_probes",
    "full_scans",
    "plan_cache_hit",
    "plan_cache_miss",
    "plan_analysis_build",
    "downgrade",
    "qsq_net_nodes",
    "qsq_subqueries",
    "qsq_input_tuples",
    "qsq_table_hit",
    "maintained_serve",
    "retrieve_auto_maintained",
    "retrieve_auto_edb",
    "retrieve_auto_seminaive",
    "retrieve_auto_topdown",
    "retrieve_auto_qsq",
    // Counters: describe.
    "describe_prep_hit",
    "describe_prep_miss",
    "describe_cache_hit",
    "describe_cache_miss",
    "trees_expanded",
    "leaves_identified",
    "cuts",
    "governor_spend_at_truncation",
    // Counters: mutation and maintenance.
    "rules_invalidated",
    "maintain_derived_added",
    "maintain_derived_deleted",
    "maintain_rederived",
    "maintain_strata_invalidated",
    "maintain_recompute",
    "maintain_lost",
    "retract_checked",
    "retract_deleted",
    "checkpoint_failed",
    // Counters: epochs.
    "epoch_publish",
    "epoch_refresh",
];

/// One observability event.
///
/// `name` is a `&'static str` from the fixed taxonomy [`NAMES`]
/// (e.g. `"seminaive"`, `"stratum"`, `"delta_facts"`); `arg` carries the
/// span's discriminator (stratum index, iteration number, …) and is `0`
/// when unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span (timed region) opened.
    SpanStart {
        /// Span name from the taxonomy.
        name: &'static str,
        /// Discriminator (stratum index, iteration, …); 0 when unused.
        arg: u64,
    },
    /// The matching span closed.
    SpanEnd {
        /// Span name — matches the corresponding [`Event::SpanStart`].
        name: &'static str,
        /// Discriminator — matches the corresponding start.
        arg: u64,
        /// Wall-clock duration of the span in microseconds.
        micros: u64,
    },
    /// A named quantity observed at a point in time.
    Counter {
        /// Counter name from the taxonomy.
        name: &'static str,
        /// Observed value (a delta or a total; see the taxonomy).
        value: u64,
    },
    /// One record appended to the write-ahead log (durability layer).
    WalAppend {
        /// The record's log sequence number.
        lsn: u64,
        /// Bytes appended (frame + payload).
        bytes: u64,
    },
    /// A checkpoint snapshot published and the WAL truncated.
    Checkpoint {
        /// The last LSN the snapshot covers.
        lsn: u64,
        /// Bytes the snapshot occupies on disk.
        bytes: u64,
    },
    /// A durable store was opened and its state recovered.
    Recovery {
        /// Ops restored (checkpointed + WAL-replayed).
        replayed: u64,
        /// Torn/corrupt tail bytes discarded from the WAL.
        discarded_bytes: u64,
    },
}

impl Event {
    /// The event's name, whatever its kind.
    pub fn name(&self) -> &'static str {
        match self {
            Event::SpanStart { name, .. }
            | Event::SpanEnd { name, .. }
            | Event::Counter { name, .. } => name,
            Event::WalAppend { .. } => "wal_append",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Recovery { .. } => "recovery",
        }
    }
}

/// Receiver of [`Event`]s. Implementations must be cheap and non-blocking
/// in spirit: they run inline on the evaluating thread.
pub trait Sink: Send + Sync {
    /// Deliver one event.
    fn emit(&self, event: Event);
}

/// A sink that discards every event. Installing it keeps the *enabled*
/// emission path live (spans read the clock, counters are computed) while
/// writing nothing — the configuration the ≤2% overhead budget is
/// measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: Event) {}
}

/// Default capacity of a [`CollectSink`] (events), chosen to hold any
/// realistic single query's trace while bounding a process-global sink.
pub const COLLECT_CAP: usize = 65_536;

/// A sink that buffers events in memory, up to a cap; events beyond the
/// cap are counted in [`CollectSink::dropped`] instead of stored.
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Mutex<Vec<Event>>,
    cap: usize,
    dropped: AtomicU64,
}

impl CollectSink {
    /// New sink with the default cap ([`COLLECT_CAP`]).
    pub fn new() -> Self {
        Self::with_capacity(COLLECT_CAP)
    }

    /// New sink storing at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        CollectSink {
            events: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Snapshot of the buffered events.
    pub fn events(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Drain the buffered events, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        }
    }

    /// How many events were discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Sink for CollectSink {
    fn emit(&self, event: Event) {
        let mut g = match self.events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if g.len() < self.cap {
            g.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A sink that delivers every event to each of several sinks, in order.
/// This is how a per-request trace collector and a long-running
/// [`crate::metrics::MetricsSink`] observe the *same* event stream: fan
/// the handle out instead of choosing one.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// A sink broadcasting to `sinks` in the given order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FanoutSink({} sinks)", self.sinks.len())
    }
}

impl Sink for FanoutSink {
    fn emit(&self, event: Event) {
        for s in &self.sinks {
            s.emit(event);
        }
    }
}

/// A sink that writes one JSON object per event to a writer (JSON lines).
/// I/O errors are silently ignored — observability must never fail the
/// query it observes.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn emit(&self, event: Event) {
        let line = match event {
            Event::SpanStart { name, arg } => {
                format!("{{\"ev\":\"span_start\",\"name\":\"{name}\",\"arg\":{arg}}}\n")
            }
            Event::SpanEnd { name, arg, micros } => format!(
                "{{\"ev\":\"span_end\",\"name\":\"{name}\",\"arg\":{arg},\"micros\":{micros}}}\n"
            ),
            Event::Counter { name, value } => {
                format!("{{\"ev\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n")
            }
            Event::WalAppend { lsn, bytes } => {
                format!("{{\"ev\":\"wal_append\",\"lsn\":{lsn},\"bytes\":{bytes}}}\n")
            }
            Event::Checkpoint { lsn, bytes } => {
                format!("{{\"ev\":\"checkpoint\",\"lsn\":{lsn},\"bytes\":{bytes}}}\n")
            }
            Event::Recovery {
                replayed,
                discarded_bytes,
            } => format!(
                "{{\"ev\":\"recovery\",\"replayed\":{replayed},\"discarded_bytes\":{discarded_bytes}}}\n"
            ),
        };
        let mut w = match self.writer.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let _ = w.write_all(line.as_bytes());
    }
}

/// The handle evaluation code holds: either disabled (the default — one
/// branch on a plain `bool`, nothing else) or a shared pointer to a
/// [`Sink`].
///
/// Cloning is cheap (an `Option<Arc>` and a `bool`), so the handle is
/// copied freely into `EvalOptions` / `DescribeOptions`.
#[derive(Clone, Default)]
pub struct ObsSink {
    sink: Option<Arc<dyn Sink>>,
    enabled: bool,
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSink")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl ObsSink {
    /// The disabled handle (emits nothing, costs one branch).
    pub fn disabled() -> Self {
        ObsSink::default()
    }

    /// An enabled handle delivering to `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        ObsSink {
            sink: Some(sink),
            enabled: true,
        }
    }

    /// Whether events are being recorded. Hot paths may use this to skip
    /// computing counter values entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying sink, if enabled — for composing with a
    /// [`FanoutSink`] (e.g. adding a trace collector without detaching
    /// the metrics aggregator).
    pub fn handle(&self) -> Option<Arc<dyn Sink>> {
        self.sink.clone()
    }

    /// Deliver one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(event);
        }
    }

    /// Record a counter observation (no-op when disabled).
    #[inline]
    pub fn counter(&self, name: &'static str, value: u64) {
        if self.enabled {
            self.emit(Event::Counter { name, value });
        }
    }

    /// Open a timed span; the returned guard emits the matching
    /// [`Event::SpanEnd`] when dropped. When disabled the guard is inert:
    /// no clock is read and nothing is emitted.
    #[inline]
    pub fn span(&self, name: &'static str, arg: u64) -> SpanGuard {
        if !self.enabled {
            return SpanGuard { inner: None };
        }
        self.emit(Event::SpanStart { name, arg });
        SpanGuard {
            inner: Some((self.clone(), name, arg, Instant::now())),
        }
    }
}

/// RAII guard for a span opened with [`ObsSink::span`]; emits the
/// [`Event::SpanEnd`] (with elapsed microseconds) on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(ObsSink, &'static str, u64, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, name, arg, start)) = self.inner.take() {
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            sink.emit(Event::SpanEnd { name, arg, micros });
        }
    }
}

/// Build a sink from a `QDK_TRACE`-style spec string. Recognised values:
///
/// * `""`, `"0"`, `"off"`, `"null"`, `"none"` — disabled;
/// * `"collect"` — a capped in-memory [`CollectSink`];
/// * `"metrics"` — a [`crate::metrics::MetricsSink`] aggregating into the
///   process-wide registry ([`crate::metrics::global_hub`]), so a whole
///   test suite or process runs with aggregation on;
/// * anything ending in `".jsonl"` — a [`JsonLinesSink`] appending to that
///   file (disabled if the file cannot be opened).
pub fn sink_from_spec(spec: &str) -> ObsSink {
    match spec.trim() {
        "" | "0" | "off" | "null" | "none" => ObsSink::disabled(),
        "collect" => ObsSink::new(Arc::new(CollectSink::new())),
        "metrics" => ObsSink::new(Arc::new(crate::metrics::MetricsSink::new(Arc::clone(
            crate::metrics::global_hub(),
        )))),
        path if path.ends_with(".jsonl") => {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(f) => ObsSink::new(Arc::new(JsonLinesSink::new(f))),
                Err(_) => ObsSink::disabled(),
            }
        }
        _ => ObsSink::disabled(),
    }
}

/// The process-wide default sink, configured once from the `QDK_TRACE`
/// environment variable (see [`sink_from_spec`]). `KnowledgeBase::new`
/// starts from this, so setting `QDK_TRACE=collect` exercises every
/// emission path across a whole test suite.
pub fn env_sink() -> ObsSink {
    static SINK: OnceLock<ObsSink> = OnceLock::new();
    SINK.get_or_init(|| match std::env::var("QDK_TRACE") {
        Ok(spec) => sink_from_spec(&spec),
        Err(_) => ObsSink::disabled(),
    })
    .clone()
}

/// Validate that span start/end events in `events` nest LIFO (every end
/// matches the most recent unclosed start, and nothing is left open).
/// Returns a description of the first violation, if any.
pub fn check_nesting(events: &[Event]) -> Result<(), String> {
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    for ev in events {
        match ev {
            Event::SpanStart { name, arg } => stack.push((name, *arg)),
            Event::SpanEnd { name, arg, .. } => match stack.pop() {
                Some((open_name, open_arg)) if open_name == *name && open_arg == *arg => {}
                Some((open_name, open_arg)) => {
                    return Err(format!(
                        "span end {name}({arg}) closes open span {open_name}({open_arg})"
                    ))
                }
                None => return Err(format!("span end {name}({arg}) with no open span")),
            },
            // Counters and durability events carry no nesting structure.
            _ => {}
        }
    }
    if let Some((name, arg)) = stack.pop() {
        return Err(format!("span {name}({arg}) never closed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_emits_nothing() {
        let obs = ObsSink::disabled();
        assert!(!obs.enabled());
        obs.counter("x", 1);
        let _g = obs.span("s", 0);
        // Nothing to observe: the point is that none of the above panics
        // or allocates a sink.
    }

    #[test]
    fn collect_sink_records_spans_and_counters() {
        let collect = Arc::new(CollectSink::new());
        let obs = ObsSink::new(collect.clone());
        assert!(obs.enabled());
        {
            let _outer = obs.span("outer", 1);
            obs.counter("ticks", 42);
            let _inner = obs.span("inner", 2);
        }
        let events = collect.events();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[0],
            Event::SpanStart {
                name: "outer",
                arg: 1
            }
        );
        assert_eq!(
            events[1],
            Event::Counter {
                name: "ticks",
                value: 42
            }
        );
        assert_eq!(
            events[2],
            Event::SpanStart {
                name: "inner",
                arg: 2
            }
        );
        assert!(matches!(
            events[3],
            Event::SpanEnd {
                name: "inner",
                arg: 2,
                ..
            }
        ));
        assert!(matches!(
            events[4],
            Event::SpanEnd {
                name: "outer",
                arg: 1,
                ..
            }
        ));
        check_nesting(&events).unwrap();
    }

    #[test]
    fn guards_drop_in_lifo_order_by_construction() {
        let collect = Arc::new(CollectSink::new());
        let obs = ObsSink::new(collect.clone());
        for i in 0..3 {
            let _s = obs.span("stratum", i);
            for k in 0..2 {
                let _it = obs.span("iteration", k);
                obs.counter("delta_facts", k);
            }
        }
        check_nesting(&collect.events()).unwrap();
    }

    #[test]
    fn collect_sink_caps_and_counts_drops() {
        let collect = CollectSink::with_capacity(2);
        for i in 0..5 {
            collect.emit(Event::Counter {
                name: "n",
                value: i,
            });
        }
        assert_eq!(collect.events().len(), 2);
        assert_eq!(collect.dropped(), 3);
    }

    #[test]
    fn take_drains_the_buffer() {
        let collect = CollectSink::new();
        collect.emit(Event::Counter {
            name: "n",
            value: 1,
        });
        assert_eq!(collect.take().len(), 1);
        assert!(collect.events().is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_line() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(Event::SpanStart {
            name: "execute",
            arg: 0,
        });
        sink.emit(Event::Counter {
            name: "delta_facts",
            value: 7,
        });
        sink.emit(Event::SpanEnd {
            name: "execute",
            arg: 0,
            micros: 12,
        });
        let buf = match sink.writer.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"ev\":\"span_start\",\"name\":\"execute\",\"arg\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"counter\",\"name\":\"delta_facts\",\"value\":7}"
        );
        assert_eq!(
            lines[2],
            "{\"ev\":\"span_end\",\"name\":\"execute\",\"arg\":0,\"micros\":12}"
        );
    }

    #[test]
    fn durability_events_render_and_do_not_disturb_nesting() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(Event::WalAppend { lsn: 3, bytes: 41 });
        sink.emit(Event::Checkpoint { lsn: 3, bytes: 512 });
        sink.emit(Event::Recovery {
            replayed: 7,
            discarded_bytes: 12,
        });
        let buf = match sink.writer.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"ev\":\"wal_append\",\"lsn\":3,\"bytes\":41}");
        assert_eq!(lines[1], "{\"ev\":\"checkpoint\",\"lsn\":3,\"bytes\":512}");
        assert_eq!(
            lines[2],
            "{\"ev\":\"recovery\",\"replayed\":7,\"discarded_bytes\":12}"
        );
        // Names resolve and nesting validation ignores them.
        let events = [
            Event::SpanStart { name: "s", arg: 0 },
            Event::WalAppend { lsn: 1, bytes: 1 },
            Event::SpanEnd {
                name: "s",
                arg: 0,
                micros: 1,
            },
        ];
        assert_eq!(events[1].name(), "wal_append");
        check_nesting(&events).unwrap();
    }

    #[test]
    fn spec_parsing() {
        assert!(!sink_from_spec("").enabled());
        assert!(!sink_from_spec("off").enabled());
        assert!(!sink_from_spec("0").enabled());
        assert!(!sink_from_spec("none").enabled());
        assert!(!sink_from_spec("unrecognised").enabled());
        assert!(sink_from_spec("collect").enabled());
        assert!(sink_from_spec("metrics").enabled());
    }

    #[test]
    fn fanout_delivers_to_every_sink_in_order() {
        let a = Arc::new(CollectSink::new());
        let b = Arc::new(CollectSink::new());
        let obs = ObsSink::new(Arc::new(FanoutSink::new(vec![
            a.clone() as Arc<dyn Sink>,
            b.clone() as Arc<dyn Sink>,
        ])));
        obs.counter("n", 9);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 1);
        // A plain handle exposes its sink for composing.
        assert!(obs.handle().is_some());
        assert!(ObsSink::disabled().handle().is_none());
    }

    #[test]
    fn nesting_violations_are_reported() {
        let bad = [
            Event::SpanStart { name: "a", arg: 0 },
            Event::SpanEnd {
                name: "b",
                arg: 0,
                micros: 1,
            },
        ];
        assert!(check_nesting(&bad).is_err());
        let unclosed = [Event::SpanStart { name: "a", arg: 0 }];
        assert!(check_nesting(&unclosed).is_err());
        let stray = [Event::SpanEnd {
            name: "a",
            arg: 0,
            micros: 1,
        }];
        assert!(check_nesting(&stray).is_err());
    }
}
