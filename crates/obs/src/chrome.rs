//! [`ChromeTraceWriter`]: a [`Subscriber`] that
//! records spans and events as Chrome trace-event JSON — the format
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! natively, and the same one the `servo/perf-analysis-tools` pipeline
//! emits.
//!
//! Each OS thread that emits a span gets its own track (`tid` assigned
//! in first-emission order); shard workers name their tracks via
//! [`set_track_name`](crate::set_track_name), which becomes a
//! `thread_name` metadata event. Span begin/end pairs are strictly
//! nested per track by construction (the `span!` guard is scope-bound),
//! which is exactly what [`validate_chrome_trace`](crate::json::validate_chrome_trace)
//! asserts on the serialized output.

use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::{escape_json_into, fmt_f64};
use crate::{Field, FieldValue, Subscriber};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

struct Ev {
    ph: Phase,
    name: &'static str,
    cat: &'static str,
    /// Microseconds since the writer was constructed.
    ts_us: u64,
    tid: u32,
    args: Vec<(&'static str, FieldValue)>,
}

#[derive(Default)]
struct Inner {
    events: Vec<Ev>,
    /// First-emission-order tid per OS thread.
    tids: Vec<(ThreadId, u32)>,
    /// `(tid, name)` from `track_name` calls; last write wins per tid.
    track_names: Vec<(u32, String)>,
}

impl Inner {
    fn tid(&mut self) -> u32 {
        let me = std::thread::current().id();
        if let Some((_, tid)) = self.tids.iter().find(|(t, _)| *t == me) {
            return *tid;
        }
        let tid = self.tids.len() as u32 + 1;
        self.tids.push((me, tid));
        tid
    }
}

/// Collects spans/events in memory and serializes them as Chrome
/// trace-event JSON. Install once with
/// [`set_subscriber`](crate::set_subscriber), keep an `Arc` clone, and
/// call [`save`](ChromeTraceWriter::save) at process exit.
///
/// A single mutex guards the event buffer — acceptable because tracing
/// is opt-in (`--trace-out`); the untraced hot path never reaches it.
pub struct ChromeTraceWriter {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for ChromeTraceWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceWriter {
    /// An empty writer; timestamps are measured from this call.
    pub fn new() -> Self {
        ChromeTraceWriter { start: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn record(&self, ph: Phase, name: &'static str, cat: &'static str, fields: &[Field]) {
        let ts_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        let tid = inner.tid();
        inner.events.push(Ev {
            ph,
            name,
            cat,
            ts_us,
            tid,
            args: fields.iter().map(|f| (f.key, f.value)).collect(),
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes everything recorded so far as a Chrome trace-event
    /// JSON document (`{"displayTimeUnit":"ms","traceEvents":[...]}`).
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::with_capacity(64 + inner.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        // Thread-name metadata first so viewers label tracks up front.
        for (tid, name) in &inner.track_names {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            out.push_str(&tid.to_string());
            out.push_str(",\"args\":{\"name\":\"");
            escape_json_into(&mut out, name);
            out.push_str("\"}}");
        }
        for ev in &inner.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, ev.name);
            out.push_str("\",\"cat\":\"");
            escape_json_into(&mut out, ev.cat);
            out.push_str("\",\"ph\":\"");
            out.push_str(ev.ph.as_str());
            out.push_str("\",\"ts\":");
            out.push_str(&ev.ts_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&ev.tid.to_string());
            if ev.ph == Phase::Instant {
                // Thread-scoped instant marker.
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(&mut out, key);
                    out.push_str("\":");
                    match value {
                        FieldValue::U64(v) => out.push_str(&v.to_string()),
                        FieldValue::I64(v) => out.push_str(&v.to_string()),
                        FieldValue::F64(v) => out.push_str(&fmt_f64(*v)),
                        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                        FieldValue::Str(v) => {
                            out.push('"');
                            escape_json_into(&mut out, v);
                            out.push('"');
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes [`to_json`](ChromeTraceWriter::to_json) to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl Subscriber for ChromeTraceWriter {
    fn span_begin(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        self.record(Phase::Begin, name, cat, fields);
    }

    fn span_end(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        self.record(Phase::End, name, cat, fields);
    }

    fn event(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        self.record(Phase::Instant, name, cat, fields);
    }

    fn track_name(&self, name: &str) {
        let mut inner = self.inner.lock().unwrap();
        let tid = inner.tid();
        if let Some(slot) = inner.track_names.iter_mut().find(|(t, _)| *t == tid) {
            slot.1 = name.to_string();
        } else {
            inner.track_names.push((tid, name.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate_chrome_trace};

    fn field(key: &'static str, value: FieldValue) -> Field {
        Field { key, value }
    }

    #[test]
    fn records_validate_as_chrome_trace() {
        let w = ChromeTraceWriter::new();
        w.track_name("shard-worker-0");
        w.span_begin("light", "core::engine", &[field("light", FieldValue::U64(7))]);
        w.span_begin("cycle", "core::pipeline", &[]);
        w.event("plan", "signal::plan", &[field("result", FieldValue::Str("hit"))]);
        w.span_end("cycle", "core::pipeline", &[]);
        w.span_end("light", "core::engine", &[]);

        let doc = parse(&w.to_json()).unwrap();
        let summary = validate_chrome_trace(&doc).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 1);
        assert_eq!(summary.named_tracks, 1);
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let w = std::sync::Arc::new(ChromeTraceWriter::new());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let w = std::sync::Arc::clone(&w);
                scope.spawn(move || {
                    w.span_begin("work", "t", &[]);
                    w.span_end("work", "t", &[]);
                });
            }
        });
        w.span_begin("main", "t", &[]);
        w.span_end("main", "t", &[]);

        let doc = parse(&w.to_json()).unwrap();
        let summary = validate_chrome_trace(&doc).unwrap();
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.tracks, 4);
    }

    #[test]
    fn args_serialize_all_field_value_kinds() {
        let w = ChromeTraceWriter::new();
        w.event(
            "kinds",
            "t",
            &[
                field("u", FieldValue::U64(1)),
                field("i", FieldValue::I64(-2)),
                field("f", FieldValue::F64(0.5)),
                field("s", FieldValue::Str("x\"y")),
                field("b", FieldValue::Bool(true)),
            ],
        );
        let json = w.to_json();
        let doc = parse(&json).unwrap();
        validate_chrome_trace(&doc).unwrap();
        let args =
            doc.get("traceEvents").unwrap().as_arr().unwrap()[0].get("args").unwrap().clone();
        assert_eq!(args.get("u").unwrap().as_f64(), Some(1.0));
        assert_eq!(args.get("i").unwrap().as_f64(), Some(-2.0));
        assert_eq!(args.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(args.get("s").unwrap().as_str(), Some("x\"y"));
        assert_eq!(args.get("b"), Some(&crate::json::Json::Bool(true)));
    }
}
