//! `taxilightd` — the always-on serving loop.
//!
//! Three cooperating thread roles, connected by a *bounded* channel so
//! memory stays O(chunk) end to end and overload propagates backwards
//! (backpressure) instead of growing queues:
//!
//! ```text
//! feed socket ──decode──▶ sync_channel(N) ──▶ RealtimeIdentifier ──publish──▶ store
//!      ▲                        ▲                    (rounds)                  │
//!      └── TCP flow control ────┘                                   read lock + Arc clone
//!                                                                              ▼
//!                                                             HTTP/1.1 query connections
//! ```
//!
//! * The **feed thread** accepts one TCP feed connection at a time and
//!   decodes it through the [`RecordSource`] contract ([`FeedSource`]).
//!   When the identifier falls behind, `sync_channel` blocks the decode
//!   loop, the socket stops being read, and TCP flow control pushes back
//!   on the sender — the documented backpressure model.
//! * The **identification thread** drains batches into a
//!   [`RealtimeIdentifier`]; whenever a re-identification round fires
//!   (feed clock, the paper's 5-minute cadence) it publishes an
//!   immutable snapshot into the [`ScheduleStore`].
//! * **HTTP threads** (one per connection) answer queries from the
//!   current snapshot — one uncontended read lock and one reference-count
//!   increment per query, zero allocations on the store read.
//!
//! All scheduling derives from *record* timestamps, never the wall
//! clock, so a replayed feed produces bit-identical answers — the
//! property `tests/daemon_e2e.rs` and perfbench's `live` workload check.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::{ConfigError, IdentifyConfig, LightHealth, QualityGrade};
use taxilight_obs::flight::FlightRecorder;
use taxilight_obs::json::fmt_f64;
use taxilight_obs::metrics::{self, MetricClass};
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::source::{RecordBatch, RecordSource};
use taxilight_trace::time::Timestamp;

use crate::http::{self, ReadOutcome, Request};
use crate::ingest::{FeedFormat, FeedSource};
use crate::store::{ScheduleStore, StoreReader};

/// Daemon configuration. Defaults mirror the paper's real-time loop
/// (5-minute rounds) with a 60 s reorder grace.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Feed listener address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub feed_addr: String,
    /// HTTP listener address.
    pub http_addr: String,
    /// Feed wire format.
    pub format: FeedFormat,
    /// Re-identification round interval, seconds (feed clock).
    pub interval_s: u32,
    /// Out-of-order arrival grace, seconds.
    pub reorder_grace_s: u32,
    /// Identification configuration.
    pub identify: IdentifyConfig,
    /// Bounded depth of the decode → identify channel, in batches. The
    /// knob that trades burst absorption against backpressure latency.
    pub channel_batches: usize,
    /// Decode chunk size (bytes for CSV, ~records/64 for ND-JSON).
    pub chunk: usize,
    /// `/healthz` staleness threshold: wall seconds without a snapshot
    /// publish (or, before the first publish, since start) after which
    /// the daemon reports 503.
    pub stale_after_s: f64,
    /// Optional flight recorder: the daemon records trigger markers
    /// into it on anomalies (ingest-lag spike, identification failure)
    /// and serves its dump at `/debug/flight`. `None` disables both.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Ingest-lag threshold (feed-clock seconds) that fires a
    /// `ingest_lag_spike` flight trigger, edge-detected. Infinite by
    /// default (never fires).
    pub flight_lag_trigger_s: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            feed_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            format: FeedFormat::Csv,
            interval_s: 300,
            reorder_grace_s: 60,
            identify: IdentifyConfig::default(),
            channel_batches: 8,
            chunk: 64 * 1024,
            stale_after_s: 900.0,
            flight: None,
            flight_lag_trigger_s: f64::INFINITY,
        }
    }
}

/// Live counters shared between the pipeline threads, `/stats` and
/// `/healthz`.
#[derive(Debug)]
pub struct DaemonStats {
    /// Records decoded off the feed socket.
    pub records_received: AtomicU64,
    /// Records the identifier has consumed.
    pub records_processed: AtomicU64,
    /// Undecodable feed lines (counted, skipped).
    pub bad_lines: AtomicU64,
    /// Feed connections accepted so far.
    pub feed_connections: AtomicU64,
    /// HTTP requests answered.
    pub http_requests: AtomicU64,
    /// Newest record timestamp decoded off the socket (epoch s; i64::MIN
    /// before the first record).
    newest_received: AtomicI64,
    /// Newest record timestamp the identifier has consumed.
    newest_processed: AtomicI64,
    /// Daemon start instant; the origin for the wall-clock freshness
    /// fields below.
    start: Instant,
    /// Milliseconds after `start` of the latest snapshot publish;
    /// `u64::MAX` before the first one.
    last_publish_ms: AtomicU64,
    /// Whether the feed thread is still running its accept loop.
    feed_alive: AtomicBool,
}

impl DaemonStats {
    fn new() -> Arc<Self> {
        Arc::new(DaemonStats {
            records_received: AtomicU64::new(0),
            records_processed: AtomicU64::new(0),
            bad_lines: AtomicU64::new(0),
            feed_connections: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            newest_received: AtomicI64::new(i64::MIN),
            newest_processed: AtomicI64::new(i64::MIN),
            start: Instant::now(),
            last_publish_ms: AtomicU64::new(u64::MAX),
            feed_alive: AtomicBool::new(true),
        })
    }

    /// Ingest lag in *feed-clock* seconds: newest record received minus
    /// newest record identified-through. 0 when fully drained (or before
    /// any record).
    pub fn ingest_lag_s(&self) -> f64 {
        let newest = self.newest_received.load(Ordering::Relaxed);
        let processed = self.newest_processed.load(Ordering::Relaxed);
        if newest == i64::MIN || processed == i64::MIN {
            return 0.0;
        }
        (newest - processed).max(0) as f64
    }

    /// Wall seconds since the daemon's stats were created (bind time).
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Wall seconds since the latest snapshot publish; `None` before
    /// the first one.
    pub fn last_publish_age_s(&self) -> Option<f64> {
        let ms = self.last_publish_ms.load(Ordering::Relaxed);
        if ms == u64::MAX {
            return None;
        }
        Some((self.uptime_s() - ms as f64 / 1000.0).max(0.0))
    }

    /// Whether the feed thread is still accepting connections.
    pub fn feed_alive(&self) -> bool {
        self.feed_alive.load(Ordering::SeqCst)
    }

    /// The feed-clock watermark: newest record timestamp the identifier
    /// has consumed, `None` before the first record. The reference
    /// instant for every `/lights` freshness field.
    pub fn watermark(&self) -> Option<Timestamp> {
        let t = self.newest_processed.load(Ordering::Relaxed);
        (t != i64::MIN).then_some(Timestamp(t))
    }

    fn mark_publish(&self) {
        let ms = self.start.elapsed().as_millis().min(u64::MAX as u128 - 1) as u64;
        self.last_publish_ms.store(ms, Ordering::Relaxed);
    }
}

/// A cloneable control handle: shutdown plus stats access.
#[derive(Clone)]
pub struct DaemonHandle {
    stats: Arc<DaemonStats>,
    shutdown: Arc<AtomicBool>,
    feed_addr: SocketAddr,
    http_addr: SocketAddr,
}

impl DaemonHandle {
    /// The live counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// The bound feed address.
    pub fn feed_addr(&self) -> SocketAddr {
        self.feed_addr
    }

    /// The bound HTTP address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Requests shutdown and wakes both accept loops. `run` returns once
    /// in-flight work drains.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Dummy connections unblock the (blocking) accept calls.
        let _ = TcpStream::connect(self.feed_addr);
        let _ = TcpStream::connect(self.http_addr);
    }
}

/// A bound-but-not-yet-running daemon: listeners are open (ports known),
/// the store holds the initial empty snapshot.
pub struct Daemon {
    cfg: DaemonConfig,
    feed_listener: TcpListener,
    http_listener: TcpListener,
    store: ScheduleStore,
    reader: StoreReader,
    stats: Arc<DaemonStats>,
    shutdown: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds both listeners. Queries are answerable (as empty) from this
    /// moment; identification starts when [`Daemon::run`] is called.
    ///
    /// A configuration the identification thread would reject fails here,
    /// before anything binds, as [`std::io::ErrorKind::InvalidInput`]
    /// naming the offending field.
    pub fn bind(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let invalid = |e: ConfigError| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        cfg.identify.validate().map_err(invalid)?;
        if cfg.interval_s == 0 {
            return Err(invalid(ConfigError::ZeroInterval));
        }
        let feed_listener = TcpListener::bind(&cfg.feed_addr)?;
        let http_listener = TcpListener::bind(&cfg.http_addr)?;
        let (store, reader) = ScheduleStore::new();
        Ok(Daemon {
            cfg,
            feed_listener,
            http_listener,
            store,
            reader,
            stats: DaemonStats::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A control handle (cloneable, thread-safe).
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            stats: Arc::clone(&self.stats),
            shutdown: Arc::clone(&self.shutdown),
            feed_addr: self.feed_listener.local_addr().expect("bound listener has an address"),
            http_addr: self.http_listener.local_addr().expect("bound listener has an address"),
        }
    }

    /// A store read handle, e.g. for in-process queries.
    pub fn reader(&self) -> StoreReader {
        self.reader.clone()
    }

    /// Runs the daemon until [`DaemonHandle::shutdown`]: feed ingestion,
    /// identification rounds, snapshot publication and HTTP serving.
    ///
    /// Blocks the calling thread; the identifier borrows `net`, so the
    /// whole pipeline runs under one thread scope.
    pub fn run(self, net: &RoadNetwork) -> std::io::Result<()> {
        let Daemon { cfg, feed_listener, http_listener, store, reader, stats, shutdown } = self;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<TaxiRecord>>(cfg.channel_batches);

        let reg = metrics::global();
        let det = MetricClass::Deterministic;
        let records_ctr =
            reg.counter("taxilightd_records_total", &[], det, "Records decoded off the feed");
        let ident_metrics = IdentMetrics::new(reg);
        // Volatile: how often clients poll is their business, not the
        // feed's — two runs of the same feed can see different counts.
        let requests_ctr = reg.counter(
            "taxilightd_http_requests_total",
            &[],
            MetricClass::Volatile,
            "HTTP requests answered",
        );
        // Build/runtime identity: the value is always 1, the labels
        // carry it. Volatile — the kernel path is a property of the
        // build target, not of the feed bytes.
        let build_info = reg.gauge(
            "taxilight_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("kernel_path", taxilight_signal::kernels::active_path_name()),
            ],
            MetricClass::Volatile,
            "Build and runtime identity (value is always 1)",
        );
        build_info.set(1.0);

        let shared = Arc::new(ConnShared {
            stats: Arc::clone(&stats),
            http: HttpMetrics::new(reg),
            stale_after_s: cfg.stale_after_s,
            flight: cfg.flight.clone(),
        });

        std::thread::scope(|scope| {
            // ── feed thread ────────────────────────────────────────────
            let feed_stats = Arc::clone(&stats);
            let feed_shutdown = Arc::clone(&shutdown);
            let feed_cfg = cfg.clone();
            let feed_records_ctr = records_ctr.clone();
            scope.spawn(move || {
                feed_loop(
                    &feed_listener,
                    tx,
                    &feed_cfg,
                    &feed_stats,
                    &feed_shutdown,
                    &feed_records_ctr,
                );
                // `/healthz` reports the loop's exit as feed death.
                feed_stats.feed_alive.store(false, Ordering::SeqCst);
            });

            // ── identification thread ──────────────────────────────────
            let ident_stats = Arc::clone(&stats);
            let ident_cfg = cfg.clone();
            scope.spawn(move || {
                ident_loop(rx, net, &ident_cfg, &store, &ident_stats, &ident_metrics);
            });

            // ── HTTP accept loop (this thread) ─────────────────────────
            loop {
                let (conn, _) = match http_listener.accept() {
                    Ok(c) => c,
                    Err(_) if shutdown.load(Ordering::SeqCst) => break,
                    Err(_) => continue,
                };
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn_reader = reader.clone();
                let conn_shared = Arc::clone(&shared);
                let conn_shutdown = Arc::clone(&shutdown);
                let conn_requests = requests_ctr.clone();
                scope.spawn(move || {
                    let _ = serve_connection(
                        conn,
                        &conn_reader,
                        &conn_shared,
                        &conn_shutdown,
                        &conn_requests,
                    );
                });
            }
        });
        Ok(())
    }
}

/// Shared read-only context for every HTTP connection thread.
struct ConnShared {
    stats: Arc<DaemonStats>,
    http: HttpMetrics,
    stale_after_s: f64,
    flight: Option<Arc<FlightRecorder>>,
}

/// Bounded route-template set the per-route HTTP metrics are keyed by —
/// request paths collapse onto these, so label cardinality cannot grow
/// with traffic.
const ROUTE_TEMPLATES: [&str; 11] = [
    "/healthz",
    "/metrics",
    "/metrics.json",
    "/stats",
    "/changes",
    "/lights",
    "/lights/{id}",
    "/schedule/{light}",
    "/green_wait/{light}",
    "/debug/flight",
    "other",
];

/// Log-spaced latency bounds, 10 µs – 1 s (≈ half-decade steps): store
/// reads answer in microseconds, `/debug/flight` dumps in milliseconds.
const HTTP_LATENCY_BOUNDS: [f64; 11] =
    [1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1, 1.0];

/// Per-route HTTP latency histograms plus error counters, pre-registered
/// for every [`ROUTE_TEMPLATES`] entry.
struct HttpMetrics {
    routes: Vec<(&'static str, metrics::Histogram, metrics::Counter)>,
}

impl HttpMetrics {
    fn new(reg: &metrics::Registry) -> HttpMetrics {
        let routes = ROUTE_TEMPLATES
            .iter()
            .map(|&route| {
                (
                    route,
                    reg.histogram(
                        "taxilight_http_request_duration_seconds",
                        &[("route", route)],
                        MetricClass::Volatile,
                        &HTTP_LATENCY_BOUNDS,
                        "HTTP request service time by route template",
                    ),
                    reg.counter(
                        "taxilight_http_errors_total",
                        &[("route", route)],
                        MetricClass::Volatile,
                        "HTTP responses with status >= 400 by route template",
                    ),
                )
            })
            .collect();
        HttpMetrics { routes }
    }

    fn observe(&self, path: &str, status: u16, seconds: f64) {
        let template = route_template(path);
        if let Some((_, hist, errors)) = self.routes.iter().find(|(t, _, _)| *t == template) {
            hist.observe(seconds);
            if status >= 400 {
                errors.inc();
            }
        }
    }
}

/// Collapses a request path onto its [`ROUTE_TEMPLATES`] entry.
fn route_template(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/metrics.json" => "/metrics.json",
        "/stats" => "/stats",
        "/changes" => "/changes",
        "/lights" => "/lights",
        "/debug/flight" => "/debug/flight",
        p if p.starts_with("/lights/") => "/lights/{id}",
        p if p.starts_with("/schedule/") => "/schedule/{light}",
        p if p.starts_with("/green_wait/") => "/green_wait/{light}",
        _ => "other",
    }
}

/// The identification thread's metric handles.
struct IdentMetrics {
    rounds: metrics::Gauge,
    lag: metrics::Gauge,
    schedule_age: metrics::Gauge,
    publish_latency: metrics::Histogram,
    grades: Vec<(QualityGrade, metrics::Gauge)>,
}

/// Log-spaced publish-latency bounds, 100 µs – 10 s.
const PUBLISH_LATENCY_BOUNDS: [f64; 11] =
    [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1, 1.0, 3.16, 10.0];

impl IdentMetrics {
    fn new(reg: &metrics::Registry) -> IdentMetrics {
        let det = MetricClass::Deterministic;
        IdentMetrics {
            rounds: reg.gauge("taxilightd_rounds", &[], det, "Re-identification rounds fired"),
            lag: reg.gauge(
                "taxilightd_ingest_lag_s",
                &[],
                MetricClass::Volatile,
                "Feed-clock seconds between newest record received and processed",
            ),
            // Deterministic: pure feed-clock arithmetic, identical on a
            // replay of the same bytes.
            schedule_age: reg.gauge(
                "taxilight_schedule_age_seconds",
                &[],
                det,
                "Feed-clock seconds between the ingest watermark and the published round horizon",
            ),
            publish_latency: reg.histogram(
                "taxilight_publish_latency_seconds",
                &[],
                MetricClass::Volatile,
                &PUBLISH_LATENCY_BOUNDS,
                "Wall seconds from batch receipt to snapshot publication, per publishing batch",
            ),
            grades: [
                QualityGrade::Starved,
                QualityGrade::Sparse,
                QualityGrade::Adequate,
                QualityGrade::Rich,
            ]
            .into_iter()
            .map(|g| {
                (
                    g,
                    reg.gauge(
                        "taxilight_lights_by_grade",
                        &[("grade", g.as_str())],
                        det,
                        "Lights per data-quality grade as of their latest rounds",
                    ),
                )
            })
            .collect(),
        }
    }
}

/// Accepts feed connections sequentially and decodes each through the
/// bounded channel until shutdown.
fn feed_loop(
    listener: &TcpListener,
    tx: SyncSender<Vec<TaxiRecord>>,
    cfg: &DaemonConfig,
    stats: &DaemonStats,
    shutdown: &AtomicBool,
    records_ctr: &metrics::Counter,
) {
    loop {
        let (conn, _) = match listener.accept() {
            Ok(c) => c,
            Err(_) if shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        stats.feed_connections.fetch_add(1, Ordering::Relaxed);
        // Short read timeouts let the decode loop notice shutdown even
        // on an idle connection; ShutdownRead turns the final timeout
        // into EOF.
        let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
        let guarded = ShutdownRead { inner: BufReader::new(conn), shutdown };
        let mut source = FeedSource::new(guarded, cfg.format, cfg.chunk);
        let mut batch = RecordBatch::new();
        loop {
            match source.next_batch(&mut batch) {
                Ok(true) => {
                    stats.bad_lines.fetch_add(batch.bad_lines.len() as u64, Ordering::Relaxed);
                    if batch.records.is_empty() {
                        continue;
                    }
                    if let Some(newest) = batch.records.iter().map(|r| r.time.0).max() {
                        stats.newest_received.fetch_max(newest, Ordering::Relaxed);
                    }
                    let n = batch.records.len() as u64;
                    let records = std::mem::take(&mut batch.records);
                    // Blocking send IS the backpressure: a full channel
                    // stops the socket reads above.
                    if tx.send(records).is_err() {
                        return; // identifier gone — shutting down
                    }
                    stats.records_received.fetch_add(n, Ordering::Relaxed);
                    records_ctr.add(n);
                }
                Ok(false) => break, // feed EOF: await the next connection
                Err(_) => break,    // connection died: same
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Drains record batches into the identifier and publishes a snapshot
/// whenever at least one round fired.
fn ident_loop(
    rx: Receiver<Vec<TaxiRecord>>,
    net: &RoadNetwork,
    cfg: &DaemonConfig,
    store: &ScheduleStore,
    stats: &DaemonStats,
    m: &IdentMetrics,
) {
    let mut engine = RealtimeIdentifier::builder(net)
        .config(cfg.identify.clone())
        .interval_s(cfg.interval_s)
        .reorder_grace_s(cfg.reorder_grace_s)
        .build()
        .expect("daemon config was validated at bind time");
    let mut changes: Vec<(LightId, taxilight_core::monitor::ChangeEvent)> = Vec::new();
    let mut published_rounds = 0u64;
    // Edge detectors for the flight triggers: fire on the transition
    // into the bad state, not on every batch spent inside it.
    let mut lag_spiking = false;
    let mut round_failing = false;
    while let Ok(records) = rx.recv() {
        let received_at = Instant::now();
        engine.extend(records.iter());
        if let Some(newest) = records.iter().map(|r| r.time.0).max() {
            stats.newest_processed.fetch_max(newest, Ordering::Relaxed);
        }
        stats.records_processed.fetch_add(records.len() as u64, Ordering::Relaxed);
        let lag = stats.ingest_lag_s();
        m.lag.set(lag);
        if let Some(flight) = &cfg.flight {
            if lag > cfg.flight_lag_trigger_s {
                if !lag_spiking {
                    lag_spiking = true;
                    flight.trigger("ingest_lag_spike");
                }
            } else {
                lag_spiking = false;
            }
        }
        let report = engine.round_report();
        if report.rounds > published_rounds {
            published_rounds = report.rounds;
            m.rounds.set(report.rounds as f64);
            m.schedule_age.set(report.watermark_lag_s);
            for (counts, (_, gauge)) in engine.health().grade_counts().iter().zip(m.grades.iter()) {
                gauge.set(*counts as f64);
            }
            if let Some(flight) = &cfg.flight {
                if report.lights_attempted > 0 && report.lights_identified == 0 {
                    if !round_failing {
                        round_failing = true;
                        flight.trigger("identification_failure");
                    }
                } else {
                    round_failing = false;
                }
            }
            // Cumulative, (timestamp, light)-sorted change history:
            // each drain is sorted and rounds advance in feed-clock
            // order, so appending preserves the global order; the sort
            // is a cheap invariant guard either way.
            changes.extend(engine.take_changes());
            changes.sort_by_key(|(l, e)| (e.at, l.0));
            store.publish_with_health(engine.view(), changes.clone(), engine.health().snapshot());
            stats.mark_publish();
            m.publish_latency.observe(received_at.elapsed().as_secs_f64());
        }
    }
    // Channel closed (feed loop exited on shutdown): final publish so
    // late queries see everything that was identified.
    changes.extend(engine.take_changes());
    changes.sort_by_key(|(l, e)| (e.at, l.0));
    store.publish_with_health(engine.view(), changes, engine.health().snapshot());
    stats.mark_publish();
}

/// A `Read` adapter that converts read timeouts into retries and
/// shutdown into EOF, so a blocking decode loop stays responsive.
struct ShutdownRead<'a, R: Read> {
    inner: R,
    shutdown: &'a AtomicBool,
}

impl<R: Read> Read for ShutdownRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(0); // EOF: downstream flushes and stops
            }
            match self.inner.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

/// Serves one HTTP connection until close, error, or shutdown.
fn serve_connection(
    conn: TcpStream,
    store: &StoreReader,
    shared: &ConnShared,
    shutdown: &AtomicBool,
    requests_ctr: &metrics::Counter,
) -> std::io::Result<()> {
    // Idle connections reap themselves (and notice shutdown) within the
    // timeout: a timed-out read between requests is treated as close.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(1)));
    // Small request/response round trips must not sit out Nagle +
    // delayed-ACK (a ~40 ms floor per query otherwise).
    let _ = conn.set_nodelay(true);
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let outcome = match http::read_request(&mut reader) {
            Ok(o) => o,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        let request = match outcome {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Malformed => {
                http::respond(
                    &mut writer,
                    400,
                    "Bad Request",
                    "application/json",
                    "{\"error\":\"malformed request\"}",
                    false,
                )?;
                return Ok(());
            }
        };
        shared.stats.http_requests.fetch_add(1, Ordering::Relaxed);
        requests_ctr.inc();
        let keep = request.keep_alive;
        let served_at = Instant::now();
        let status = route(&request, store, shared, &mut writer)?;
        shared.http.observe(&request.path, status, served_at.elapsed().as_secs_f64());
        if !keep {
            return Ok(());
        }
    }
}

/// [`http::respond`], returning the status so the caller can feed the
/// per-route metrics.
fn send(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<u16> {
    http::respond(w, status, reason, content_type, body, keep_alive)?;
    Ok(status)
}

/// `Some(x)` as a JSON number, `None` as `null`.
fn opt_f64(v: Option<f64>) -> String {
    v.map(fmt_f64).unwrap_or_else(|| "null".into())
}

/// `Some(t)` as a quoted timestamp, `None` as `null`.
fn opt_time(t: Option<Timestamp>) -> String {
    t.map(|t| format!("\"{}\"", t.format())).unwrap_or_else(|| "null".into())
}

/// Dispatches one request and returns the response status. Every body
/// is JSON except `/metrics` (Prometheus text).
fn route(
    req: &Request,
    store: &StoreReader,
    shared: &ConnShared,
    w: &mut impl Write,
) -> std::io::Result<u16> {
    let stats = &*shared.stats;
    let keep = req.keep_alive;
    if req.method != "GET" && req.method != "HEAD" {
        return send(
            w,
            405,
            "Method Not Allowed",
            "application/json",
            "{\"error\":\"GET only\"}",
            keep,
        );
    }
    match req.path.as_str() {
        "/healthz" => {
            let snap = store.current();
            let rounds = snap.view.version();
            let feed_alive = stats.feed_alive();
            let publish_age = stats.last_publish_age_s();
            // Before the first publish the daemon has been "stale since
            // start": warming is only healthy inside the threshold.
            let effective_age = publish_age.unwrap_or_else(|| stats.uptime_s());
            let stale = !feed_alive || effective_age > shared.stale_after_s;
            let status = if stale {
                "stale"
            } else if rounds == 0 {
                "warming"
            } else {
                "ok"
            };
            let body = format!(
                "{{\"status\":\"{}\",\"feed_alive\":{},\"rounds\":{},\"seq\":{},\"last_publish_age_s\":{},\"stale_after_s\":{},\"ingest_lag_s\":{},\"uptime_s\":{}}}",
                status,
                feed_alive,
                rounds,
                snap.seq,
                opt_f64(publish_age),
                fmt_f64(shared.stale_after_s),
                fmt_f64(stats.ingest_lag_s()),
                fmt_f64(stats.uptime_s()),
            );
            if stale {
                send(w, 503, "Service Unavailable", "application/json", &body, keep)
            } else {
                send(w, 200, "OK", "application/json", &body, keep)
            }
        }
        "/metrics" => {
            let body = metrics::global().prometheus_text();
            send(w, 200, "OK", "text/plain; version=0.0.4", &body, keep)
        }
        "/metrics.json" => {
            let body = metrics::global().snapshot_json();
            send(w, 200, "OK", "application/json", &body, keep)
        }
        "/stats" => {
            let snap = store.current();
            let body = format!(
                "{{\"seq\":{},\"version\":{},\"lights\":{},\"digest\":\"{:#018x}\",\"changes\":{},\"records_received\":{},\"records_processed\":{},\"bad_lines\":{},\"ingest_lag_s\":{},\"http_requests\":{},\"uptime_s\":{},\"feed_alive\":{}}}",
                snap.seq,
                snap.view.version(),
                snap.view.len(),
                snap.view.digest(),
                snap.changes.len(),
                stats.records_received.load(Ordering::Relaxed),
                stats.records_processed.load(Ordering::Relaxed),
                stats.bad_lines.load(Ordering::Relaxed),
                fmt_f64(stats.ingest_lag_s()),
                stats.http_requests.load(Ordering::Relaxed),
                fmt_f64(stats.uptime_s()),
                stats.feed_alive(),
            );
            send(w, 200, "OK", "application/json", &body, keep)
        }
        "/lights" => {
            let snap = store.current();
            let body = lights_body(snap.seq, snap.view.version(), &snap.health, stats.watermark());
            send(w, 200, "OK", "application/json", &body, keep)
        }
        "/debug/flight" => match &shared.flight {
            Some(flight) => {
                let body = flight.to_chrome_json();
                send(w, 200, "OK", "application/json", &body, keep)
            }
            None => send(
                w,
                404,
                "Not Found",
                "application/json",
                "{\"error\":\"flight recorder not configured\"}",
                keep,
            ),
        },
        "/changes" => {
            let snap = store.current();
            let mut body = String::with_capacity(64 + snap.changes.len() * 96);
            body.push_str("{\"seq\":");
            body.push_str(&snap.seq.to_string());
            body.push_str(",\"changes\":[");
            for (k, (light, e)) in snap.changes.iter().enumerate() {
                if k > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"light\":{},\"at\":\"{}\",\"from_cycle_s\":{},\"to_cycle_s\":{}}}",
                    light.0,
                    e.at.format(),
                    fmt_f64(e.from_cycle_s),
                    fmt_f64(e.to_cycle_s)
                ));
            }
            body.push_str("]}");
            send(w, 200, "OK", "application/json", &body, keep)
        }
        path if path.starts_with("/lights/") => match parse_light(&path["/lights/".len()..]) {
            Some(light) => {
                let snap = store.current();
                match snap.health.iter().find(|h| h.light == light) {
                    Some(h) => {
                        let body =
                            light_detail_body(h, stats.watermark(), snap.view.version(), snap.seq);
                        send(w, 200, "OK", "application/json", &body, keep)
                    }
                    None => send(
                        w,
                        404,
                        "Not Found",
                        "application/json",
                        "{\"error\":\"light never attempted\"}",
                        keep,
                    ),
                }
            }
            None => send(
                w,
                400,
                "Bad Request",
                "application/json",
                "{\"error\":\"bad light id\"}",
                keep,
            ),
        },
        path if path.starts_with("/schedule/") => match parse_light(&path["/schedule/".len()..]) {
            Some(light) => {
                let snap = store.current();
                match snap.view.schedule(light) {
                    Some(s) => {
                        let body = format!(
                            "{{\"light\":{},\"cycle_s\":{},\"red_s\":{},\"green_s\":{},\"red_start_s\":{},\"snr\":{},\"samples\":{},\"version\":{},\"seq\":{}}}",
                            light.0,
                            fmt_f64(s.cycle_s),
                            fmt_f64(s.red_s),
                            fmt_f64(s.green_s),
                            fmt_f64(s.red_start_s),
                            fmt_f64(s.snr),
                            s.samples,
                            snap.view.version(),
                            snap.seq,
                        );
                        send(w, 200, "OK", "application/json", &body, keep)
                    }
                    None => send(
                        w,
                        404,
                        "Not Found",
                        "application/json",
                        "{\"error\":\"light not identified\"}",
                        keep,
                    ),
                }
            }
            None => send(
                w,
                400,
                "Bad Request",
                "application/json",
                "{\"error\":\"bad light id\"}",
                keep,
            ),
        },
        path if path.starts_with("/green_wait/") => {
            let light = parse_light(&path["/green_wait/".len()..]);
            let t = http::query_param(&req.query, "t").and_then(|v| parse_time(&v));
            match (light, t) {
                (Some(light), Some(t)) => {
                    let snap = store.current();
                    match (snap.view.wait_for_green(light, t), snap.view.is_red_at(light, t)) {
                        (Some(wait), Some(red)) => {
                            let body = format!(
                                "{{\"light\":{},\"t\":\"{}\",\"wait_s\":{},\"state\":\"{}\",\"version\":{}}}",
                                light.0,
                                t.format(),
                                fmt_f64(wait),
                                if red { "red" } else { "green" },
                                snap.view.version(),
                            );
                            send(w, 200, "OK", "application/json", &body, keep)
                        }
                        _ => send(
                            w,
                            404,
                            "Not Found",
                            "application/json",
                            "{\"error\":\"light not identified\"}",
                            keep,
                        ),
                    }
                }
                _ => send(
                    w,
                    400,
                    "Bad Request",
                    "application/json",
                    "{\"error\":\"need /green_wait/{light}?t={epoch seconds or YYYY-MM-DD HH:MM:SS}\"}",
                    keep,
                ),
            }
        }
        _ => send(w, 404, "Not Found", "application/json", "{\"error\":\"unknown path\"}", keep),
    }
}

/// `[starved, sparse, adequate, rich]` bucket index for a grade.
fn grade_index(grade: QualityGrade) -> usize {
    match grade {
        QualityGrade::Starved => 0,
        QualityGrade::Sparse => 1,
        QualityGrade::Adequate => 2,
        QualityGrade::Rich => 3,
    }
}

/// The `/lights` body: per-light summaries plus grade counts. Every
/// field except `age_s` derives from the published snapshot; ages are
/// measured against the feed-clock `watermark`.
fn lights_body(
    seq: u64,
    version: u64,
    health: &[LightHealth],
    watermark: Option<Timestamp>,
) -> String {
    let mut grades = [0usize; 4];
    let mut identified = 0usize;
    let mut items = String::with_capacity(64 + health.len() * 160);
    for (k, h) in health.iter().enumerate() {
        grades[grade_index(h.grade)] += 1;
        if h.identified() {
            identified += 1;
        }
        if k > 0 {
            items.push(',');
        }
        items.push_str(&format!(
            "{{\"light\":{},\"grade\":\"{}\",\"identified\":{},\"snr\":{},\"cycle_s\":{},\"last_version\":{},\"age_s\":{},\"attempts\":{},\"successes\":{},\"changes\":{}}}",
            h.light.0,
            h.grade.as_str(),
            h.identified(),
            fmt_f64(h.snr),
            fmt_f64(h.cycle_s),
            h.last_version,
            opt_f64(watermark.and_then(|wm| h.age_s(wm))),
            h.attempts,
            h.successes,
            h.changes,
        ));
    }
    format!(
        "{{\"seq\":{},\"version\":{},\"watermark\":{},\"lights_tracked\":{},\"identified\":{},\"grades\":{{\"starved\":{},\"sparse\":{},\"adequate\":{},\"rich\":{}}},\"lights\":[{}]}}",
        seq,
        version,
        opt_time(watermark),
        health.len(),
        identified,
        grades[0],
        grades[1],
        grades[2],
        grades[3],
        items,
    )
}

/// The `/lights/{id}` body: one light's full health record, including
/// the failure-reason breakdown and feed-clock freshness.
fn light_detail_body(
    h: &LightHealth,
    watermark: Option<Timestamp>,
    version: u64,
    seq: u64,
) -> String {
    format!(
        "{{\"light\":{},\"grade\":\"{}\",\"identified\":{},\"observations\":{},\"records_per_hour\":{},\"attempts\":{},\"successes\":{},\"consecutive_failures\":{},\"failures\":{{\"no_data\":{},\"config\":{},\"cycle\":{},\"red\":{},\"change_point\":{},\"total\":{}}},\"changes\":{},\"snr\":{},\"cycle_s\":{},\"last_version\":{},\"last_at\":{},\"age_s\":{},\"version\":{},\"seq\":{}}}",
        h.light.0,
        h.grade.as_str(),
        h.identified(),
        h.observations,
        fmt_f64(h.records_per_hour),
        h.attempts,
        h.successes,
        h.consecutive_failures,
        h.failures.no_data,
        h.failures.config,
        h.failures.cycle,
        h.failures.red,
        h.failures.change_point,
        h.failures.total(),
        h.changes,
        fmt_f64(h.snr),
        fmt_f64(h.cycle_s),
        h.last_version,
        opt_time(h.last_at),
        opt_f64(watermark.and_then(|wm| h.age_s(wm))),
        version,
        seq,
    )
}

fn parse_light(s: &str) -> Option<LightId> {
    s.parse::<u32>().ok().map(LightId)
}

/// `t=` accepts epoch seconds or the Table-I `YYYY-MM-DD HH:MM:SS`.
fn parse_time(s: &str) -> Option<Timestamp> {
    if let Ok(epoch) = s.parse::<i64>() {
        return Some(Timestamp(epoch));
    }
    Timestamp::parse(s).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_a_config_the_identification_thread_would() {
        let zero_interval = DaemonConfig { interval_s: 0, ..DaemonConfig::default() };
        let zero_window = DaemonConfig {
            identify: IdentifyConfig { window_s: 0, ..IdentifyConfig::default() },
            ..DaemonConfig::default()
        };
        for (cfg, field) in [(zero_interval, "interval_s"), (zero_window, "window_s")] {
            let err = Daemon::bind(cfg).err().expect("a degenerate config must not bind");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}
