//! Structured per-query profiles assembled from observability events.
//!
//! When a [`crate::Request`] asks for tracing, the [`crate::Session`]
//! installs a [`qdk_logic::obs::CollectSink`] for the duration of the
//! evaluation and folds the captured event stream into a [`QueryTrace`]:
//! the span tree (stage and sub-stage timings), the engine counters, and
//! any strategy downgrades — one self-contained profile per query, with a
//! human-readable [`std::fmt::Display`].

use qdk_engine::{AutoChoice, Downgrade};
use qdk_logic::obs::Event;
use std::fmt;

/// One completed span of a query evaluation: a named, timed section.
/// Spans form a tree; `depth` 0 is a top-level *stage* (`parse`, `plan`,
/// `execute`), deeper spans break a stage down (strategy, strata,
/// fixpoint iterations, enumeration phases).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span name (see DESIGN.md §12 for the taxonomy).
    pub name: &'static str,
    /// Span argument (stratum index, iteration number, item count, …;
    /// 0 when the span carries no argument).
    pub arg: u64,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
    /// Nesting depth (0 = stage).
    pub depth: usize,
}

/// A structured profile of one query evaluation, returned by
/// [`crate::Response::trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// The statement that was evaluated, rendered.
    pub statement: String,
    /// Total wall-clock time of the evaluation in microseconds (measured
    /// around parse + plan + execute).
    pub wall_micros: u64,
    /// Completed spans in start order (pre-order over the span tree).
    pub spans: Vec<TraceSpan>,
    /// Counters summed by name, in first-emission order.
    pub counters: Vec<(&'static str, u64)>,
    /// Strategy downgrades recorded while answering (surfaced here as
    /// well as on the answer itself).
    pub downgrades: Vec<Downgrade>,
    /// What `Strategy::Auto` resolved the query to (`None` for a describe
    /// or a retrieve with a pinned strategy). Taken from the answer, not
    /// reconstructed from events, so it is the same at every worker count.
    pub auto: Option<AutoChoice>,
    /// Events the bounded collector discarded because the query emitted
    /// more than its capacity. Zero means the profile is complete; a
    /// non-zero value warns that span durations and counter sums
    /// undercount the evaluation.
    pub dropped_events: u64,
}

impl QueryTrace {
    /// Folds a captured event stream into a trace. Unmatched span starts
    /// (possible only when a sink overflowed mid-query) are kept with a
    /// zero duration; unmatched ends are ignored.
    pub fn from_events(
        events: &[Event],
        statement: String,
        wall_micros: u64,
        downgrades: Vec<Downgrade>,
    ) -> Self {
        let mut spans: Vec<TraceSpan> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        fn bump(counters: &mut Vec<(&'static str, u64)>, name: &'static str, value: u64) {
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => counters.push((name, value)),
            }
        }
        for ev in events {
            match *ev {
                Event::SpanStart { name, arg } => {
                    spans.push(TraceSpan {
                        name,
                        arg,
                        micros: 0,
                        depth: stack.len(),
                    });
                    stack.push(spans.len() - 1);
                }
                Event::SpanEnd { name, micros, .. } => {
                    if let Some(i) = stack.pop() {
                        if spans[i].name == name {
                            spans[i].micros = micros;
                        }
                    }
                }
                Event::Counter { name, value } => bump(&mut counters, name, value),
                // Durability events fold into counters so a traced query
                // that triggered WAL writes or a checkpoint shows it.
                Event::WalAppend { bytes, .. } => {
                    bump(&mut counters, "wal_appends", 1);
                    bump(&mut counters, "wal_bytes", bytes);
                }
                Event::Checkpoint { bytes, .. } => {
                    bump(&mut counters, "checkpoints", 1);
                    bump(&mut counters, "checkpoint_bytes", bytes);
                }
                Event::Recovery {
                    replayed,
                    discarded_bytes,
                } => {
                    bump(&mut counters, "recovery_replayed", replayed);
                    bump(&mut counters, "recovery_discarded_bytes", discarded_bytes);
                }
            }
        }
        QueryTrace {
            statement,
            wall_micros,
            spans,
            counters,
            downgrades,
            auto: None,
            dropped_events: 0,
        }
    }

    /// Records what `Strategy::Auto` resolved the query to.
    #[must_use]
    pub fn with_auto(mut self, auto: Option<AutoChoice>) -> Self {
        self.auto = auto;
        self
    }

    /// Records how many events the collector discarded (sink overflow).
    #[must_use]
    pub fn with_dropped(mut self, dropped: u64) -> Self {
        self.dropped_events = dropped;
        self
    }

    /// Renders the trace as one self-contained JSON object (no trailing
    /// newline) — the slow-query log line format. `run_id` is the
    /// session-unique sequence number the capture assigns, so lines from
    /// interleaved queries stay attributable.
    pub fn render_json(&self, run_id: u64) -> String {
        use std::fmt::Write;
        let esc = qdk_logic::metrics::json_escape;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"run_id\":{run_id},\"statement\":\"{}\",\"wall_micros\":{}",
            esc(&self.statement),
            self.wall_micros
        );
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"arg\":{},\"micros\":{},\"depth\":{}}}",
                esc(s.name),
                s.arg,
                s.micros,
                s.depth
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(name), value);
        }
        out.push_str("},\"downgrades\":[");
        for (i, d) in self.downgrades.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(&d.to_string()));
        }
        out.push_str("],\"auto\":");
        match self.auto {
            Some(choice) => {
                let _ = write!(out, "\"{}\"", esc(&choice.to_string()));
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"dropped_events\":{}}}", self.dropped_events);
        out
    }

    /// The top-level stages (depth-0 spans): `parse`, `plan` (retrieve
    /// only) and `execute`. Their durations tile the query's wall time.
    pub fn stages(&self) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(|s| s.depth == 0)
    }

    /// The summed value of a counter, if it was emitted.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The duration of the first span with the given name, if any.
    pub fn span_micros(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.micros)
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {}  (wall {} µs)",
            self.statement, self.wall_micros
        )?;
        for s in &self.spans {
            let label = if s.arg == 0 {
                s.name.to_string()
            } else {
                format!("{}[{}]", s.name, s.arg)
            };
            writeln!(
                f,
                "  {:indent$}{label:<width$} {:>8} µs",
                "",
                s.micros,
                indent = s.depth * 2,
                width = 24usize.saturating_sub(s.depth * 2),
            )?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name} = {value}")?;
            }
        }
        if let Some(choice) = self.auto {
            writeln!(f, "-- auto: {choice}")?;
        }
        for d in &self.downgrades {
            writeln!(f, "-- note: {d}")?;
        }
        if self.dropped_events > 0 {
            writeln!(
                f,
                "-- note: {} events dropped (collector overflow); timings undercount",
                self.dropped_events
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_events_into_a_span_tree() {
        let events = [
            Event::SpanStart {
                name: "parse",
                arg: 0,
            },
            Event::SpanEnd {
                name: "parse",
                arg: 0,
                micros: 5,
            },
            Event::SpanStart {
                name: "execute",
                arg: 0,
            },
            Event::SpanStart {
                name: "seminaive",
                arg: 0,
            },
            Event::SpanStart {
                name: "stratum",
                arg: 1,
            },
            Event::Counter {
                name: "rule_firings",
                value: 3,
            },
            Event::SpanEnd {
                name: "stratum",
                arg: 1,
                micros: 7,
            },
            Event::Counter {
                name: "rule_firings",
                value: 4,
            },
            Event::SpanEnd {
                name: "seminaive",
                arg: 0,
                micros: 9,
            },
            Event::SpanEnd {
                name: "execute",
                arg: 0,
                micros: 11,
            },
        ];
        let t = QueryTrace::from_events(&events, "retrieve p(X)".into(), 20, Vec::new());
        let depths: Vec<(&str, usize, u64)> = t
            .spans
            .iter()
            .map(|s| (s.name, s.depth, s.micros))
            .collect();
        assert_eq!(
            depths,
            vec![
                ("parse", 0, 5),
                ("execute", 0, 11),
                ("seminaive", 1, 9),
                ("stratum", 2, 7),
            ]
        );
        assert_eq!(t.stages().count(), 2);
        assert_eq!(t.counter("rule_firings"), Some(7));
        assert_eq!(t.counter("absent"), None);
        assert_eq!(t.span_micros("seminaive"), Some(9));
        let rendered = t.to_string();
        assert!(rendered.contains("stratum[1]"), "{rendered}");
        assert!(rendered.contains("rule_firings = 7"), "{rendered}");
    }

    #[test]
    fn unmatched_span_start_keeps_zero_duration() {
        let events = [Event::SpanStart {
            name: "execute",
            arg: 0,
        }];
        let t = QueryTrace::from_events(&events, "q".into(), 1, Vec::new());
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].micros, 0);
    }
}
