//! The traced run: the workload replayed in-process through the public
//! calls the daemon makes, with a benchmark-owned span around each.
//!
//! ```text
//! writer ──TCP──▶ FeedSource::next_batch ──sync_channel(8)──▶ RealtimeIdentifier::extend
//!                 (decode thread)                             (split at each round's trigger)
//!                                                             round_report, take_changes
//!                                                             view ──▶ ScheduleStore::publish_with_health
//! queries: StoreReader::current + ScheduleView lookups (live), or version probes (backfill)
//! ```
//!
//! Spans stay in memory in a [`Collector`] installed as the process's
//! `taxilight_obs` subscriber; it forwards every callback to a
//! `ChromeTraceWriter`, so the program's own `realtime.round`,
//! `light.identify` and `stage.*` spans nest under the benchmark's in
//! the written trace. Per-layer metrics cover the measured phase (the
//! second feed connection).

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use taxilight_bench::summary::percentile;
use taxilight_core::{IdentifyConfig, Preprocessor};
use taxilight_obs::chrome::ChromeTraceWriter;
use taxilight_obs::{span, Field, FieldValue, Subscriber};
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_serve::{FeedSource, ScheduleStore};
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::source::{RecordBatch, RecordSource};

use crate::e2e::{paced_writes, write_closed, write_paced};
use crate::feed::{feed_start, Phase, RoundClock, Shape};
use crate::replay::{daemon_engine, obs_per_light_h_median, plates, split_at_triggers, CHUNK};

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the collector was created.
    pub start_ns: u64,
    /// End, ns since the collector was created.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The batch, round or query the span served (`req` field).
    pub req: Option<u64>,
}

impl SpanRec {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration less the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// A thread's open spans: `(span index, forwarded to the Chrome writer)`.
type OpenSpans = Vec<(usize, bool)>;

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    /// Open spans per thread.
    stacks: Vec<(ThreadId, OpenSpans)>,
    /// `(ns, hits, misses)` of every `light.done` event.
    plans: Vec<(u64, u64, u64)>,
}

/// The in-memory span store. Every span is kept for the metrics; the
/// Chrome writer gets those begun while `recording` is on (one round's
/// window: `taxilight_obs::json::parse` is quadratic in document size,
/// so a whole run's trace would take `obscheck` hours).
pub struct Collector {
    chrome: ChromeTraceWriter,
    origin: Instant,
    recording: AtomicBool,
    inner: Mutex<Inner>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            chrome: ChromeTraceWriter::new(),
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            inner: Mutex::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("collector poisoned by a panicking thread")
    }

    fn record(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }
}

fn stack(inner: &mut Inner) -> &mut OpenSpans {
    let me = std::thread::current().id();
    let k = match inner.stacks.iter().position(|(t, _)| *t == me) {
        Some(k) => k,
        None => {
            inner.stacks.push((me, Vec::new()));
            inner.stacks.len() - 1
        }
    };
    &mut inner.stacks[k].1
}

fn u64_field(fields: &[Field], key: &str) -> Option<u64> {
    fields.iter().find(|f| f.key == key).and_then(|f| match f.value {
        FieldValue::U64(v) => Some(v),
        _ => None,
    })
}

impl Subscriber for Collector {
    fn span_begin(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        let forward = self.recording.load(Ordering::SeqCst);
        if forward {
            self.chrome.span_begin(name, cat, fields);
        }
        let mut inner = self.lock();
        let idx = inner.spans.len();
        let stack = stack(&mut inner);
        let parent = stack.last().map(|&(p, _)| p);
        stack.push((idx, forward));
        let start_ns = self.ns(Instant::now());
        inner.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: u64_field(fields, "req"),
        });
    }

    fn span_end(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        let end_ns = self.ns(Instant::now());
        let forwarded = {
            let mut inner = self.lock();
            match stack(&mut inner).pop() {
                Some((idx, forwarded)) => {
                    inner.spans[idx].end_ns = end_ns;
                    forwarded
                }
                None => false,
            }
        };
        // Ends follow their begins, so the written trace stays nested.
        if forwarded {
            self.chrome.span_end(name, cat, fields);
        }
    }

    fn event(&self, name: &'static str, cat: &'static str, fields: &[Field]) {
        if self.recording.load(Ordering::SeqCst) {
            self.chrome.event(name, cat, fields);
        }
        if name == "light.done" {
            let ns = self.ns(Instant::now());
            let hits = u64_field(fields, "plan_hits").unwrap_or(0);
            let misses = u64_field(fields, "plan_misses").unwrap_or(0);
            self.lock().plans.push((ns, hits, misses));
        }
    }

    fn track_name(&self, name: &str) {
        self.chrome.track_name(name);
    }
}

/// `Read` adapter: a span around each read, so waiting for bytes is a
/// child of `next_batch` and drops out of its self time.
struct TimedRead<R>(R);

impl<R: Read> Read for TimedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let _span = span!("bench.ingest.read");
        self.0.read(buf)
    }
}

struct Batch {
    id: u64,
    conn: usize,
    records: Vec<TaxiRecord>,
}

/// The decode thread's account of what it sent on.
#[derive(Default)]
struct Decoded {
    /// `(conn, first record, records, left next_batch)` per batch.
    batches: Vec<(usize, usize, usize, Instant)>,
    records: Vec<usize>,
    plates: Vec<usize>,
    bad_lines: u64,
}

#[derive(Default)]
struct Identified {
    /// `(version, attempted, identified)` of every round.
    rounds: Vec<(u64, usize, usize)>,
    intake_records: usize,
    matched_records: usize,
    match_stats: [u64; 5],
    deduped: u64,
    out_of_grace: u64,
    buffered_obs: usize,
    obs_per_light_h: f64,
    publishes: u64,
    changes: usize,
    first_publish: Option<Instant>,
    done: Option<Instant>,
}

/// Per-layer metrics plus the traced run's own end-to-end figures.
pub struct Traced {
    /// `(name, value, unit)` of every per-layer metric the trace yields.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// `setup_s`, `ingest_rps`, `ttv_p50_ms`, `query_p50_ms`,
    /// `peak_rss_mb` as the traced run saw them.
    pub e2e: [f64; 5],
    /// Spans and tracks in the written trace.
    pub trace_spans: usize,
    /// Where the Chrome trace went.
    pub trace_path: std::path::PathBuf,
}

/// Runs the traced replay of `warm` then (a prefix of) `phase`.
pub fn run(
    shape: Shape,
    seconds: u64,
    net: &RoadNetwork,
    warm: &Phase,
    phase: &Phase,
    lights: &[u32],
    trace_path: &std::path::Path,
) -> Result<Traced, String> {
    let collector = Arc::new(Collector::new());
    taxilight_obs::set_subscriber(collector.clone()).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (store, reader) = ScheduleStore::new();
    let (tx, rx) = sync_channel::<Batch>(8);
    let phase_start: OnceLock<Instant> = OnceLock::new();
    let first_publish: OnceLock<Instant> = OnceLock::new();
    let ident_over = AtomicBool::new(false);
    let t_start = Instant::now();
    let (phase_start, first_publish, ident_over) = (&phase_start, &first_publish, &ident_over);
    let window = &*collector;

    let (decoded, ident, writes, sent, probes, read_ns) = std::thread::scope(|s| {
        let decoder = s.spawn(|| {
            taxilight_obs::set_track_name(|| "bench-decode".into());
            let mut out = Decoded::default();
            let mut id = 0u64;
            for conn_no in 0..2 {
                let Ok((conn, _)) = listener.accept() else { break };
                let mut src = FeedSource::new(TimedRead(BufReader::new(conn)), shape.format, CHUNK);
                let mut batch = RecordBatch::new();
                let mut first = 0;
                loop {
                    let more = {
                        let _span = span!("bench.ingest.next_batch", req = id);
                        src.next_batch(&mut batch)
                    };
                    let left = Instant::now();
                    if !matches!(more, Ok(true)) {
                        break;
                    }
                    out.bad_lines += batch.bad_lines.len() as u64;
                    if batch.records.is_empty() {
                        continue;
                    }
                    let n = batch.records.len();
                    out.batches.push((conn_no, first, n, left));
                    first += n;
                    let records = std::mem::take(&mut batch.records);
                    let _span = span!("bench.channel.send", req = id);
                    if tx.send(Batch { id, conn: conn_no, records }).is_err() {
                        break;
                    }
                    id += 1;
                }
                out.records.push(first);
                out.plates.push(plates(&src));
            }
            drop(tx);
            out
        });

        let identifier = s.spawn(move || {
            taxilight_obs::set_track_name(|| "bench-identify".into());
            let twin = Preprocessor::new(net, IdentifyConfig::default());
            let mut engine = daemon_engine(net);
            let mut clock = RoundClock::daemon();
            let mut changes = Vec::new();
            let mut out = Identified::default();
            let mut at_phase: Option<(taxilight_core::preprocess::PreprocessStats, u64, u64)> =
                None;
            loop {
                let batch = {
                    let _span = span!("bench.channel.recv");
                    rx.recv()
                };
                let Ok(batch) = batch else { break };
                let measured = batch.conn == 1;
                if measured && at_phase.is_none() {
                    let r = engine.round_report();
                    at_phase = Some((
                        engine.preprocessor().cumulative_stats(),
                        r.records_deduped_total,
                        r.out_of_grace_total,
                    ));
                }
                if measured {
                    let _span = span!("bench.preprocess.match", req = batch.id);
                    for r in &batch.records {
                        std::hint::black_box(twin.match_record(r));
                    }
                    out.matched_records += batch.records.len();
                }
                if measured && out.rounds.is_empty() {
                    let mut probe = clock.clone();
                    if batch.records.iter().any(|r| probe.observe(r.time.0) > 0) {
                        window.record(true);
                    }
                }
                split_at_triggers(&batch.records, &mut clock, |segment, fired| {
                    if fired == 0 {
                        let _span = span!("bench.realtime.extend", req = batch.id);
                        engine.extend(segment.iter());
                        if measured {
                            out.intake_records += segment.len();
                        }
                        return;
                    }
                    let version = engine.round_report().rounds + fired;
                    {
                        let _span = span!("bench.realtime.round", req = version);
                        engine.extend(segment.iter());
                    }
                    let report = {
                        let _span = span!("bench.realtime.report", req = version);
                        changes.extend(engine.take_changes());
                        changes.sort_by_key(
                            |(l, e): &(LightId, taxilight_core::monitor::ChangeEvent)| (e.at, l.0),
                        );
                        engine.round_report()
                    };
                    if measured {
                        out.rounds.push((
                            report.rounds,
                            report.lights_attempted,
                            report.lights_identified,
                        ));
                    }
                    let view = {
                        let _span = span!("bench.view", req = version);
                        engine.view()
                    };
                    {
                        let _span = span!("bench.store.publish", req = version);
                        store.publish_with_health(
                            view,
                            changes.clone(),
                            engine.health().snapshot(),
                        );
                    }
                    out.publishes += 1;
                    let _ = first_publish.set(Instant::now());
                    if measured {
                        window.record(false);
                    }
                });
            }
            out.done = Some(Instant::now());
            ident_over.store(true, Ordering::SeqCst);
            let stats = engine.preprocessor().cumulative_stats();
            let report = engine.round_report();
            let (base, dedup0, oog0) = at_phase.unwrap_or_default();
            out.match_stats = [
                (stats.input - base.input) as u64,
                (stats.partitioned - base.partitioned) as u64,
                (stats.unsignalized - base.unsignalized) as u64,
                (stats.unmatched - base.unmatched) as u64,
                (stats.implausible - base.implausible) as u64,
            ];
            out.deduped = report.records_deduped_total - dedup0;
            out.out_of_grace = report.out_of_grace_total - oog0;
            out.buffered_obs = engine.buffered_observations();
            out.obs_per_light_h = obs_per_light_h_median(&engine);
            out.changes = changes.len();
            out.first_publish = first_publish.get().copied();
            out
        });

        let writer = s.spawn(|| -> std::io::Result<(Vec<(usize, Instant)>, usize)> {
            TcpStream::connect(addr)?.write_all(&warm.bytes)?;
            while first_publish.get().is_none() {
                if ident_over.load(Ordering::SeqCst) {
                    return Err(std::io::Error::other("no first round in the traced run"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut conn = TcpStream::connect(addr)?;
            let start = Instant::now() + Duration::from_millis(20);
            let _ = phase_start.set(start);
            match shape.compression {
                None => {
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let sent = AtomicUsize::new(0);
                    let deadline = start + Duration::from_secs(seconds);
                    let writes = write_closed(&mut conn, phase, deadline, &sent)?;
                    Ok((writes, sent.into_inner()))
                }
                Some(c) => {
                    let writes = paced_writes(phase, start, c);
                    write_paced(&mut conn, phase, &writes)?;
                    Ok((writes, phase.len()))
                }
            }
        });

        // Queries (live) or version probes (backfill) on this thread, at
        // the untraced run's rate, from the measured phase's start.
        let mut probes: Vec<(Instant, Instant, u64)> = Vec::new(); // (due, done, version)
        let mut read_ns = Vec::new();
        while phase_start.get().is_none() && !ident_over.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(&start) = phase_start.get() {
            let period = Duration::from_secs_f64(1.0 / shape.query_hz);
            let t_feed0 = feed_start().0 + phase.seconds[0] as i64;
            let lights: Vec<LightId> = lights.iter().map(|&l| LightId(l)).collect();
            for k in 0u32.. {
                if ident_over.load(Ordering::SeqCst) {
                    break;
                }
                let due = start + period * k;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let _span = span!("bench.query", req = k as u64);
                let (snap, ns) = {
                    let _span = span!("bench.store.read", req = k as u64);
                    let t = Instant::now();
                    let snap = reader.current();
                    (snap, t.elapsed().as_nanos() as f64)
                };
                read_ns.push(ns);
                if let (Some(c), false) = (shape.compression, lights.is_empty()) {
                    let light = lights[k as usize % lights.len()];
                    if k.is_multiple_of(2) {
                        std::hint::black_box(snap.view.schedule(light));
                    } else {
                        let t = taxilight_trace::time::Timestamp(
                            t_feed0 + (due.duration_since(start).as_secs_f64() * c) as i64,
                        );
                        std::hint::black_box((
                            snap.view.wait_for_green(light, t),
                            snap.view.is_red_at(light, t),
                        ));
                    }
                }
                probes.push((due, Instant::now(), snap.view.version()));
            }
        }
        let decoded = decoder.join().expect("decode thread panicked");
        let ident = identifier.join().expect("identify thread panicked");
        let (writes, sent) = writer.join().expect("writer panicked").map_err(|e| e.to_string())?;
        Ok::<_, String>((decoded, ident, writes, sent, probes, read_ns))
    })?;

    let phase_start = *phase_start.get().ok_or("the measured phase never started")?;
    let first_byte = writes.first().ok_or("the traced run sent no measured record")?.1;
    let done = ident.done.ok_or("identify thread never finished")?;
    let send_time =
        |m: usize| writes[writes.partition_point(|&(first, _)| first <= m).saturating_sub(1)].1;

    // Trigger records of the measured-phase rounds, and their visibility.
    let mut clock = RoundClock::daemon();
    for &t in &warm.times {
        clock.observe(t);
    }
    let mut ttv_ms = Vec::new();
    for (m, &t) in phase.times[..sent].iter().enumerate() {
        for _ in 0..clock.observe(t) {
            let v = clock.rounds();
            let sent_at = send_time(m);
            if let Some(&(_, seen, _)) = probes.iter().find(|p| p.2 >= v) {
                ttv_ms.push(seen.saturating_duration_since(sent_at).as_secs_f64() * 1e3);
            }
        }
    }
    let query_ms: Vec<f64> =
        probes.iter().map(|(due, done, _)| done.duration_since(*due).as_secs_f64() * 1e3).collect();

    // How long each measured record waited between its scheduled send and
    // its batch leaving next_batch.
    let mut wait_ms = Vec::new();
    for &(conn, first, n, left) in &decoded.batches {
        if conn == 1 {
            for m in first..first + n {
                wait_ms.push(left.saturating_duration_since(send_time(m)).as_secs_f64() * 1e3);
            }
        }
    }

    let inner = collector.lock();
    let from = collector.ns(phase_start);
    let spans: Vec<SpanRec> = inner.spans.clone();
    let selfs = self_times(&spans);
    let measured = |name: &'static str| {
        spans.iter().enumerate().filter(move |(_, s)| s.name == name && s.start_ns >= from)
    };
    let total_s =
        |name: &'static str| measured(name).map(|(_, s)| s.dur_ns()).sum::<u64>() as f64 / 1e9;
    let durs_ms = |name: &'static str| {
        measured(name).map(|(_, s)| s.dur_ns() as f64 / 1e6).collect::<Vec<f64>>()
    };
    let busy_s =
        measured("bench.ingest.next_batch").map(|(k, _)| selfs[k]).sum::<u64>() as f64 / 1e9;
    let (hits, misses) =
        inner.plans.iter().filter(|p| p.0 >= from).fold((0, 0), |(h, m), p| (h + p.1, m + p.2));
    drop(inner);

    let records_measured = decoded.records.get(1).copied().unwrap_or(0);
    let rounds = ident.rounds.len();
    let (attempted, identified) = ident.rounds.iter().fold((0, 0), |(a, i), r| (a + r.1, i + r.2));
    let round_ms = durs_ms("bench.realtime.round");
    let identify_ms = durs_ms("light.identify");
    let publish_ms = durs_ms("bench.store.publish");
    let [input, partitioned, unsignalized, unmatched, implausible] = ident.match_stats;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layers = vec![
        ("ingest.records", records_measured as f64, "count"),
        ("ingest.plates", decoded.plates.iter().copied().max().unwrap_or(0) as f64, "count"),
        ("ingest.bad_lines", decoded.bad_lines as f64, "count"),
        ("ingest.busy_s", busy_s, "s"),
        ("ingest.ns_per_record", ratio(busy_s * 1e9, records_measured as f64), "ns"),
        ("ingest.wait_ms_p50", percentile(&wait_ms, 0.5), "ms"),
        ("daemon.decode_blocked_s", total_s("bench.channel.send"), "s"),
        ("daemon.identify_idle_s", total_s("bench.channel.recv"), "s"),
        (
            "preprocess.ns_per_record",
            ratio(total_s("bench.preprocess.match") * 1e9, ident.matched_records as f64),
            "ns",
        ),
        ("preprocess.partitioned_ratio", ratio(partitioned as f64, input as f64), "ratio"),
        ("preprocess.unsignalized", unsignalized as f64, "count"),
        ("preprocess.unmatched", unmatched as f64, "count"),
        ("preprocess.implausible", implausible as f64, "count"),
        (
            "realtime.intake_ns_per_record",
            ratio(total_s("bench.realtime.extend") * 1e9, ident.intake_records as f64),
            "ns",
        ),
        ("realtime.buffered_obs", ident.buffered_obs as f64, "count"),
        ("realtime.deduped", ident.deduped as f64, "count"),
        ("realtime.out_of_grace", ident.out_of_grace as f64, "count"),
        ("realtime.rounds", rounds as f64, "count"),
        ("realtime.round_ms_p50", percentile(&round_ms, 0.5), "ms"),
        ("realtime.round_ms_max", percentile(&round_ms, 1.0), "ms"),
        ("realtime.identified_ratio", ratio(identified as f64, attempted as f64), "ratio"),
        ("realtime.obs_per_light_h", ident.obs_per_light_h, "obs/light-h"),
        ("engine.identify_ms_p50", percentile(&identify_ms, 0.5), "ms"),
        ("engine.identify_ms_p95", percentile(&identify_ms, 0.95), "ms"),
        ("engine.cycle_s", total_s("stage.cycle"), "s"),
        ("engine.kernel_s", total_s("stage.kernel"), "s"),
        ("engine.red_s", total_s("stage.red"), "s"),
        ("engine.change_s", total_s("stage.change"), "s"),
        ("engine.plan_hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio"),
        ("view.ms_p50", percentile(&durs_ms("bench.view"), 0.5), "ms"),
        ("store.publish_ms_p50", percentile(&publish_ms, 0.5), "ms"),
        ("store.publish_ms_last", publish_ms.last().copied().unwrap_or(0.0), "ms"),
        ("store.snapshots", ident.publishes as f64 + 1.0, "count"),
        ("store.changes", ident.changes as f64, "count"),
        ("store.read_ns_p50", percentile(&read_ns, 0.5), "ns"),
    ];

    let json = collector.chrome.to_json();
    let summary = taxilight_obs::json::parse(&json)
        .map_err(|e| format!("trace JSON: {e}"))
        .and_then(|doc| taxilight_obs::json::validate_chrome_trace(&doc))?;
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, json).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let setup_s = ident.first_publish.map_or(f64::NAN, |t| t.duration_since(t_start).as_secs_f64());
    Ok(Traced {
        layers,
        e2e: [
            setup_s,
            sent as f64 / done.duration_since(first_byte).as_secs_f64(),
            percentile(&ttv_ms, 0.5),
            percentile(&query_ms, 0.5),
            crate::proc::self_peak_rss_mb().unwrap_or(0.0),
        ],
        trace_spans: summary.spans,
        trace_path: trace_path.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start_ns, end_ns, parent, req: None }
    }

    /// A hand-built trace: a 100 ns batch with two reads (one of them
    /// poking past its end), a nested grandchild, and overlapping
    /// children of another span.
    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            rec("next_batch", 0, 100, None), // 0
            rec("read", 10, 30, Some(0)),    // 1
            rec("read", 90, 120, Some(0)),   // 2: only 90..100 is inside
            rec("decode", 40, 70, Some(0)),  // 3
            rec("inner", 45, 55, Some(3)),   // 4: grandchild of 0
            rec("round", 200, 300, None),    // 5
            rec("a", 210, 260, Some(5)),     // 6
            rec("b", 240, 280, Some(5)),     // 7: overlaps a by 20
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 10 - 30);
        assert_eq!(selfs[3], 30 - 10);
        assert_eq!(selfs[4], 10);
        assert_eq!(selfs[5], 100 - 70);
        assert_eq!(selfs[6], 50);
        // Self times of a tree partition its root's interval.
        let tree: u64 = [0, 1, 3, 4].iter().map(|&k| selfs[k]).sum::<u64>() + 10;
        assert_eq!(tree, 100);
    }
}
