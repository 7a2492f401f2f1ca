//! Aggregated metrics: the long-running complement to per-query traces.
//!
//! The [`crate::obs`] layer answers "what happened inside *this* query";
//! this module answers "what has this process been doing for the last
//! hour". A [`MetricsRegistry`] aggregates three primitive shapes:
//!
//! * [`Counter`] — a monotone total, sharded across cache-line-padded
//!   atomics so concurrent snapshot readers and the writer never contend
//!   on one word;
//! * [`Gauge`] — a point-in-time value (epoch version, cache sizes,
//!   checkpoint lag), one relaxed atomic;
//! * [`Histogram`] — a log-linear latency sketch with `p50/p90/p99/max`
//!   snapshot quantiles; recording is a handful of relaxed atomic RMWs,
//!   no lock, no allocation.
//!
//! [`MetricsSink`] implements the obs [`Sink`] trait, so the event stream
//! every subsystem already emits (spans, counters, WAL appends,
//! checkpoints, recoveries) feeds the aggregates with **zero new
//! instrumentation points**. A [`MetricsHub`] bundles a registry with the
//! slow-query configuration (threshold + JSON-lines log) and is shared —
//! one `Arc` — by every clone and epoch snapshot of a knowledge base.
//!
//! Hot-path discipline: updates through a held [`Counter`]/[`Gauge`]/
//! [`Histogram`] handle are lock-free. Updates by *name*
//! ([`MetricsRegistry::counter_add`] etc., the [`MetricsSink`] path) take
//! one uncontended `RwLock` read on a read-mostly map — registration is
//! the only writer and happens once per name. A knowledge base without a
//! hub attached pays nothing at all (the `Option` is `None` and the obs
//! sink stays disabled).

use crate::obs::{Event, Sink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of shards in a [`Counter`]. Eight covers the concurrent
/// snapshot readers the tests run beside a writer without bloating the
/// snapshot sum.
const SHARDS: usize = 8;

/// One cache line per shard so two threads bumping the same counter
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// The per-thread shard index: threads are assigned round-robin on first
/// touch, so a fixed pool spreads evenly and a single thread always hits
/// the same cache line.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotone counter sharded across padded atomics. `add` is one relaxed
/// `fetch_add` on the calling thread's shard; `get` sums the shards.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the calling thread's shard (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sum over shards, relaxed).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time value: one relaxed atomic, last set wins.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution of the histogram: 2³ = 8 linear sub-buckets per
/// power-of-two octave, bounding the relative bucket error at 1/8.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below this get exact single-value buckets.
const LINEAR_MAX: u64 = 2 * SUB_BUCKETS;
/// Total bucket count: index of `u64::MAX` plus one.
const BUCKETS: usize = ((63 - SUB_BITS as u64) * SUB_BUCKETS + SUB_BUCKETS * 2 - 1) as usize + 1;

/// The bucket index for a value: exact below [`LINEAR_MAX`], then
/// log-linear — the octave (position of the most significant bit) picks a
/// group of [`SUB_BUCKETS`] buckets and the next [`SUB_BITS`] bits pick
/// within the group.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - u64::from(v.leading_zeros());
        ((e - u64::from(SUB_BITS)) * SUB_BUCKETS + (v >> (e - u64::from(SUB_BITS)))) as usize
    }
}

/// The largest value that lands in bucket `i` (inverse of
/// [`bucket_index`]; used to report quantiles).
fn bucket_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_MAX {
        i
    } else {
        let group = i / SUB_BUCKETS; // ≥ 2 past the linear region
        let sub = i % SUB_BUCKETS;
        let width = 1u64 << (group - 1);
        ((SUB_BUCKETS + sub) << (group - 1)) + width - 1
    }
}

/// A log-linear histogram: fixed bucket layout (no allocation after
/// construction), relaxed atomic updates, quantiles computed at snapshot
/// time by a cumulative walk. The true maximum is tracked exactly with
/// `fetch_max`, and reported quantiles are clamped to it.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation: three relaxed RMWs, no lock.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time summary (concurrent recording
    /// may be partially visible; counts are never lost).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile, 1-based, at least 1.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_bound(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// The exact maximum observed value.
    pub max: u64,
    /// Median estimate (upper bound of the median's bucket, ≤ `max`).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn write_guard<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A named collection of counters, gauges and histograms. Registration
/// (first use of a name) takes a write lock; every later update by name
/// takes one uncontended read lock, and updates through a held handle
/// ([`MetricsRegistry::counter`] returns `Arc<Counter>` etc.) touch no
/// lock at all. Names are `&'static str` from the fixed taxonomy
/// (DESIGN.md §17), so the maps never allocate keys.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, creating it if absent. Hold
    /// the returned handle to update without any lock.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = read_guard(&self.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(write_guard(&self.counters).entry(name).or_default())
    }

    /// Adds `v` to the counter `name` (one read-lock lookup on the fast
    /// path).
    pub fn counter_add(&self, name: &'static str, v: u64) {
        if let Some(c) = read_guard(&self.counters).get(name) {
            c.add(v);
            return;
        }
        self.counter(name).add(v);
    }

    /// The gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = read_guard(&self.gauges).get(name) {
            return Arc::clone(g);
        }
        Arc::clone(write_guard(&self.gauges).entry(name).or_default())
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        if let Some(g) = read_guard(&self.gauges).get(name) {
            g.set(v);
            return;
        }
        self.gauge(name).set(v);
    }

    /// The histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = read_guard(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(write_guard(&self.histograms).entry(name).or_default())
    }

    /// Records `v` into the histogram `name`.
    pub fn histogram_record(&self, name: &'static str, v: u64) {
        if let Some(h) = read_guard(&self.histograms).get(name) {
            h.record(v);
            return;
        }
        self.histogram(name).record(v);
    }

    /// A point-in-time snapshot of every registered metric, names sorted
    /// (the `BTreeMap` order), so two snapshots of the same state render
    /// identically.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_guard(&self.counters)
                .iter()
                .map(|(n, c)| ((*n).to_string(), c.get()))
                .collect(),
            gauges: read_guard(&self.gauges)
                .iter()
                .map(|(n, g)| ((*n).to_string(), g.get()))
                .collect(),
            histograms: read_guard(&self.histograms)
                .iter()
                .map(|(n, h)| ((*n).to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// A typed snapshot of a [`MetricsRegistry`]: every metric name-sorted,
/// renderable as deterministic Prometheus text exposition or JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else maps
/// to `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// The counter's total, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram's summary, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Deterministic Prometheus text exposition: counters as
    /// `qdk_<name>_total`, gauges as `qdk_<name>`, histograms as
    /// summaries with `quantile` labels plus an exact `_max` gauge.
    /// Metrics appear in name order within each kind; the format is
    /// pinned by a golden test.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE qdk_{n}_total counter");
            let _ = writeln!(out, "qdk_{n}_total {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE qdk_{n} gauge");
            let _ = writeln!(out, "qdk_{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE qdk_{n} summary");
            let _ = writeln!(out, "qdk_{n}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "qdk_{n}{{quantile=\"0.9\"}} {}", h.p90);
            let _ = writeln!(out, "qdk_{n}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "qdk_{n}_sum {}", h.sum);
            let _ = writeln!(out, "qdk_{n}_count {}", h.count);
            let _ = writeln!(out, "# TYPE qdk_{n}_max gauge");
            let _ = writeln!(out, "qdk_{n}_max {}", h.max);
        }
        out
    }

    /// One deterministic JSON object: `{"counters":{...},"gauges":{...},
    /// "histograms":{name:{count,sum,max,p50,p90,p99}}}`, keys in name
    /// order.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One registry plus the slow-query configuration, shared (one `Arc`) by
/// every clone and epoch snapshot of a knowledge base. The threshold is a
/// relaxed atomic so the per-query check costs one load; the log writer
/// sits behind a mutex touched only when a slow query is actually
/// captured.
#[derive(Default)]
pub struct MetricsHub {
    registry: MetricsRegistry,
    /// Queries slower than this (wall µs) get their full trace written to
    /// the slow log; `0` disables capture.
    slow_query_micros: AtomicU64,
    slow_log: Mutex<Option<Box<dyn Write + Send>>>,
    run_seq: AtomicU64,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("slow_query_micros", &self.slow_query_micros())
            .finish()
    }
}

impl MetricsHub {
    /// A fresh hub: empty registry, slow-query capture off.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// The aggregate registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The slow-query threshold in microseconds (`0` = capture off).
    #[inline]
    pub fn slow_query_micros(&self) -> u64 {
        self.slow_query_micros.load(Ordering::Relaxed)
    }

    /// Sets the slow-query threshold (`0` disables capture).
    pub fn set_slow_query_micros(&self, micros: u64) {
        self.slow_query_micros.store(micros, Ordering::Relaxed);
    }

    /// Installs the JSON-lines writer slow-query traces are rendered to.
    pub fn set_slow_log(&self, writer: impl Write + Send + 'static) {
        let mut g = match self.slow_log.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *g = Some(Box::new(writer));
    }

    /// The next query run id (1-based, process-local, monotone).
    pub fn next_run_id(&self) -> u64 {
        self.run_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Writes one line to the slow-query log (appending a newline if
    /// missing). I/O errors are ignored — observability never fails the
    /// query it observes. A no-op when no writer is installed.
    pub fn write_slow_line(&self, line: &str) {
        let mut g = match self.slow_log.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(w) = g.as_mut() {
            let _ = w.write_all(line.as_bytes());
            if !line.ends_with('\n') {
                let _ = w.write_all(b"\n");
            }
            let _ = w.flush();
        }
    }
}

/// Maps a span name to the histogram aggregating its durations. Only
/// coarse, once-per-query spans are aggregated; per-stratum and
/// per-iteration spans stay trace-only (they would dominate the sink's
/// cost and their counts carry no cross-query meaning).
fn span_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "parse" => "parse_span_micros",
        "plan" => "plan_span_micros",
        "execute" => "execute_span_micros",
        "seminaive" => "seminaive_span_micros",
        "qsq" => "qsq_span_micros",
        "topdown" => "topdown_span_micros",
        "transform" => "transform_span_micros",
        "enumerate" => "enumerate_span_micros",
        "assemble" => "assemble_span_micros",
        "reduce" => "reduce_span_micros",
        "maintain_insert" => "maintain_insert_span_micros",
        "maintain_retract" => "maintain_retract_span_micros",
        "maintain_rules" => "maintain_rules_span_micros",
        _ => return None,
    })
}

/// A [`Sink`] that folds the obs event stream into a [`MetricsHub`]'s
/// registry: counters accumulate, coarse span durations feed histograms,
/// durability events feed their counters. Install it (alone or fanned out
/// with another sink) and every existing emission point becomes an
/// aggregate.
pub struct MetricsSink {
    hub: Arc<MetricsHub>,
}

impl MetricsSink {
    /// A sink aggregating into `hub`.
    pub fn new(hub: Arc<MetricsHub>) -> Self {
        MetricsSink { hub }
    }
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink").finish()
    }
}

impl Sink for MetricsSink {
    fn emit(&self, event: Event) {
        let reg = self.hub.registry();
        match event {
            Event::SpanStart { .. } => {}
            Event::SpanEnd { name, micros, .. } => {
                if let Some(metric) = span_metric(name) {
                    reg.histogram_record(metric, micros);
                }
            }
            Event::Counter { name, value } => reg.counter_add(name, value),
            Event::WalAppend { bytes, .. } => {
                reg.counter_add("wal_appends", 1);
                reg.counter_add("wal_bytes", bytes);
            }
            Event::Checkpoint { bytes, .. } => {
                reg.counter_add("checkpoints", 1);
                reg.counter_add("checkpoint_bytes", bytes);
            }
            Event::Recovery {
                replayed,
                discarded_bytes,
            } => {
                reg.counter_add("recoveries", 1);
                reg.counter_add("recovery_replayed", replayed);
                reg.counter_add("recovery_discarded_bytes", discarded_bytes);
            }
        }
    }
}

/// The process-wide hub backing `QDK_TRACE=metrics` (see
/// [`crate::obs::sink_from_spec`]): every knowledge base created under
/// that spec aggregates into this one registry, so a whole test suite or
/// process can be profiled without touching any call site.
pub fn global_hub() -> &'static Arc<MetricsHub> {
    static HUB: OnceLock<Arc<MetricsHub>> = OnceLock::new();
    HUB.get_or_init(|| Arc::new(MetricsHub::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_linear_max() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        // The upper bound of every bucket indexes back into it, and the
        // next value up indexes into the next bucket.
        for i in 0..BUCKETS - 1 {
            let hi = bucket_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Past the linear region the bucket width is at most 1/8 of the
        // bucket's lower bound.
        for v in [100u64, 1_000, 12_345, 1_000_000, u32::MAX as u64] {
            let i = bucket_index(v);
            let hi = bucket_bound(i);
            let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
            assert!((lo..=hi).contains(&v));
            assert!(
                (hi - lo) as f64 <= lo as f64 / 8.0 + 1.0,
                "bucket [{lo}, {hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_on_known_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // ±1 bucket: the true quantile's bucket bound, or the next one.
        let within = |est: u64, truth: u64| {
            let i = bucket_index(truth);
            let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
            let hi = bucket_bound((i + 1).min(BUCKETS - 1));
            assert!(
                (lo..=hi).contains(&est),
                "estimate {est} for true {truth} outside [{lo}, {hi}]"
            );
        };
        within(s.p50, 500);
        within(s.p90, 900);
        within(s.p99, 990);
    }

    #[test]
    fn histogram_quantiles_on_point_mass() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(42);
        }
        let s = h.snapshot();
        // All mass in one bucket: every quantile reports that bucket,
        // clamped to the exact max.
        assert_eq!(s.p50, 42);
        assert_eq!(s.p90, 42);
        assert_eq!(s.p99, 42);
        assert_eq!(s.max, 42);
        assert_eq!(s.mean(), 42);
    }

    #[test]
    fn histogram_quantiles_clamp_to_exact_max() {
        let h = Histogram::new();
        h.record(1_000_003); // lands in a wide bucket
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // The bucket bound exceeds the value; the exact max wins.
        assert_eq!(s.p50, 1_000_003);
        assert_eq!(s.p99, 1_000_003);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn registry_handles_alias_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("hits").add(2);
        reg.counter_add("hits", 3);
        assert_eq!(reg.counter("hits").get(), 5);
        reg.gauge_set("depth", 7);
        reg.gauge_set("depth", 4);
        assert_eq!(reg.gauge("depth").get(), 4);
        reg.histogram_record("lat", 10);
        reg.histogram("lat").record(20);
        assert_eq!(reg.histogram("lat").snapshot().count, 2);
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter_add("zeta", 1);
        reg.counter_add("alpha", 2);
        reg.gauge_set("mid", 3);
        let s = reg.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(s.counter("alpha"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("mid"), Some(3));
        assert!(s.histogram("none").is_none());
    }

    #[test]
    fn metrics_sink_folds_the_event_stream() {
        let hub = Arc::new(MetricsHub::new());
        let sink = MetricsSink::new(Arc::clone(&hub));
        sink.emit(Event::Counter {
            name: "rule_firings",
            value: 5,
        });
        sink.emit(Event::SpanEnd {
            name: "execute",
            arg: 0,
            micros: 120,
        });
        sink.emit(Event::SpanEnd {
            name: "qsq",
            arg: 0,
            micros: 80,
        });
        sink.emit(Event::SpanStart {
            name: "stratum",
            arg: 0,
        });
        sink.emit(Event::SpanEnd {
            name: "stratum",
            arg: 0,
            micros: 50,
        }); // fine-grained: not aggregated
        sink.emit(Event::WalAppend { lsn: 1, bytes: 64 });
        sink.emit(Event::Checkpoint { lsn: 1, bytes: 256 });
        sink.emit(Event::Recovery {
            replayed: 3,
            discarded_bytes: 8,
        });
        let s = hub.registry().snapshot();
        assert_eq!(s.counter("rule_firings"), Some(5));
        assert_eq!(s.counter("wal_appends"), Some(1));
        assert_eq!(s.counter("wal_bytes"), Some(64));
        assert_eq!(s.counter("checkpoints"), Some(1));
        assert_eq!(s.counter("recovery_replayed"), Some(3));
        assert_eq!(s.histogram("execute_span_micros").unwrap().count, 1);
        assert_eq!(s.histogram("qsq_span_micros").unwrap().count, 1);
        assert!(s.histogram("stratum_span_micros").is_none());
    }

    #[test]
    fn hub_slow_query_config_round_trips() {
        let hub = MetricsHub::new();
        assert_eq!(hub.slow_query_micros(), 0);
        hub.set_slow_query_micros(2500);
        assert_eq!(hub.slow_query_micros(), 2500);
        assert_eq!(hub.next_run_id(), 1);
        assert_eq!(hub.next_run_id(), 2);
        // No writer installed: writing is a silent no-op.
        hub.write_slow_line("{\"run_id\":1}");
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn render_json_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("g", 2);
        reg.histogram_record("h", 3);
        let json = reg.snapshot().render_json();
        assert_eq!(
            json,
            "{\"counters\":{\"c\":1},\"gauges\":{\"g\":2},\"histograms\":{\"h\":{\"count\":1,\"sum\":3,\"max\":3,\"p50\":3,\"p90\":3,\"p99\":3}}}"
        );
    }
}
