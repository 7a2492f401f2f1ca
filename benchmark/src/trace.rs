//! Spans recorded by the harness around calls into each layer.
//!
//! Tracing is the benchmark's own: nothing inside the program is
//! instrumented. Spans are kept in memory and written when the run ends,
//! one JSON object per line. Spans of one statement or commit share an
//! `op_id`; `parent` is the index (line number, from 0) of the span that
//! caused this one. A sampled statement is first timed through the facade
//! (the root span) and then *replayed* through the layer functions the
//! facade calls; the replayed spans name the root as their parent although
//! they start after it ended — they are its decomposition, not its
//! contents — and their names start with `replay.`.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// timed pass and the traced pass run the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Counter samples taken at span boundaries: `(op_id, name, value)`.
    pub counters: Vec<(u64, &'static str, u64)>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &str, parent: Open, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            op_id,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        parent: Open,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(layer, name, parent, op_id);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span that just ended and took `took` (for callers that
    /// time a call themselves to keep per-call set-up outside the span).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        took: std::time::Duration,
        op_id: u64,
    ) {
        if self.enabled {
            let end_ns = self.now();
            self.spans.push(Span {
                layer,
                name: name.to_string(),
                start_ns: end_ns.saturating_sub(took.as_nanos() as u64),
                end_ns,
                parent: None,
                op_id,
            });
        }
    }

    pub fn counter(&mut self, op_id: u64, name: &'static str, value: u64) {
        if self.enabled {
            self.counters.push((op_id, name, value));
        }
    }

    pub const ROOT: Open = Open(None);

    /// Self time per layer in µs over the decomposed ops: each span's
    /// duration minus its children's, counting only span trees that have
    /// children (an op that was not sampled for replay is all "session").
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_sum = vec![0.0; self.spans.len()];
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut decomposed = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_sum[p] += s.micros();
                decomposed[root_of(i)] = true;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (i, (s, children)) in self.spans.iter().zip(&child_sum).enumerate() {
            if !decomposed[root_of(i)] {
                continue;
            }
            let own = (s.micros() - children).max(0.0);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    /// Writes one line per span, then one per counter sample.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::str(s.name.clone())),
                ("layer", Json::str(s.layer)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op_id", Json::Num(s.op_id as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (op_id, name, value) in &self.counters {
            let line = Json::obj([
                ("counter", Json::str(*name)),
                ("value", Json::Num(*value as f64)),
                ("op_id", Json::Num(*op_id as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("session", "op", Tracer::ROOT, 1);
        t.span("engine", "replay.execute", root, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let by = t.self_time_by_layer();
        let engine = by.iter().find(|(l, _)| *l == "engine").unwrap().1;
        let session = by.iter().find(|(l, _)| *l == "session").unwrap().1;
        assert!(engine >= 2000.0);
        assert!(session < engine);
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        let o = off.begin("session", "op", Tracer::ROOT, 1);
        off.end(o);
        off.counter(1, "rows", 3);
        assert!(off.spans.is_empty() && off.counters.is_empty());
    }
}
