//! End-to-end daemon proof: a seeded feed streamed over real TCP
//! produces, through the full socket → decode → identify → store → HTTP
//! pipeline, answers **bit-identical** to an offline replay of the same
//! bytes — for both wire formats.
//!
//! The offline oracle decodes the *encoded* feed (not the raw records):
//! CSV quantizes positions to micro-degrees, and the claim under test is
//! "same bytes in, same schedules out", not "encoding is lossless".

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::LightHealth;
use taxilight_obs::flight::FlightRecorder;
use taxilight_obs::json::{self, validate_flight_dump, validate_metrics, Json};
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_serve::ingest::encode_feed;
use taxilight_serve::{Daemon, DaemonConfig, FeedFormat, FeedSource};
use taxilight_sim::small_city;
use taxilight_trace::source::collect_source;
use taxilight_trace::time::Timestamp;

struct World {
    net: RoadNetwork,
    /// Encoded feed per wire format.
    csv: String,
    ndjson: String,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut city = small_city(4242, 60);
        city.sim_config.hourly_activity = [1.0; 24];
        let start = Timestamp::civil(2014, 12, 5, 9, 0, 0);
        // The first identification round needs a full window (3600 s) of
        // data plus the reorder grace; 1500 s more yields several rounds.
        let (log, fleet) = city.run_from(start, 3600 + 1500);
        let mut records = log.into_records();
        records.sort_by_key(|r| r.time);
        let csv = encode_feed(&records, &fleet, FeedFormat::Csv).unwrap();
        let ndjson = encode_feed(&records, &fleet, FeedFormat::NdJson).unwrap();
        World { net: city.net, csv, ndjson }
    })
}

/// The offline oracle: decode the wire bytes exactly like the daemon
/// does, run the same identifier, return its final state.
struct Oracle {
    records: usize,
    version: u64,
    digest: u64,
    schedules: Vec<(LightId, taxilight_core::LightSchedule)>,
    changes: usize,
    /// Per-light health after the replay, light-id ascending — health
    /// only mutates inside rounds, so this equals what the daemon
    /// published with its last round.
    health: Vec<LightHealth>,
    /// Newest record timestamp in the feed: the daemon's post-drain
    /// freshness watermark.
    watermark: Timestamp,
}

fn offline_replay(
    encoded: &str,
    format: FeedFormat,
    net: &RoadNetwork,
    cfg: &DaemonConfig,
) -> Oracle {
    let mut source = FeedSource::new(Cursor::new(encoded.as_bytes()), format, cfg.chunk);
    let (records, bad) = collect_source(&mut source).unwrap();
    assert!(bad.is_empty(), "oracle rejected feed lines: {bad:?}");
    let mut engine = RealtimeIdentifier::builder(net)
        .config(cfg.identify.clone())
        .interval_s(cfg.interval_s)
        .reorder_grace_s(cfg.reorder_grace_s)
        .build()
        .unwrap();
    engine.extend(records.iter());
    let view = engine.view();
    let watermark = Timestamp(records.iter().map(|r| r.time.0).max().expect("non-empty feed"));
    Oracle {
        records: records.len(),
        version: view.version(),
        digest: view.digest(),
        schedules: view.schedules().map(|(l, s)| (l, *s)).collect(),
        health: engine.health().snapshot(),
        changes: engine.take_changes().len(),
        watermark,
    }
}

/// Minimal HTTP client: one request per connection (`Connection: close`).
fn http_get(addr: SocketAddr, path_query: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon http port");
    write!(conn, "GET {path_query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 =
        raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path_query: &str) -> (u16, Json) {
    let (status, body) = http_get(addr, path_query);
    (status, json::parse(&body).unwrap_or_else(|e| panic!("{path_query}: bad JSON ({e}): {body}")))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing number {key}: {doc:?}"))
}

/// Streams the feed, waits for drain, checks every query endpoint
/// against the oracle, shuts the daemon down cleanly. With `flight`
/// armed, the drained daemon's `/debug/flight` dump must also validate
/// and carry the trigger fired after the drain.
fn run_case(format: FeedFormat, encoded: &str, flight: Option<Arc<FlightRecorder>>) {
    let w = world();
    let cfg = DaemonConfig {
        format,
        reorder_grace_s: 60,
        flight: flight.clone(),
        ..DaemonConfig::default()
    };
    let oracle = offline_replay(encoded, format, &w.net, &cfg);
    assert!(!oracle.schedules.is_empty(), "oracle identified nothing — scenario too small");

    let daemon = Daemon::bind(cfg).unwrap();
    let handle = daemon.handle();
    let (feed_addr, http_addr) = (handle.feed_addr(), handle.http_addr());

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&w.net));

        // Before any feed: empty-but-answerable, and honest about it —
        // no round has fired, so the daemon reports "warming", not "ok".
        let (status, doc) = get_json(http_addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("status").and_then(Json::as_str).unwrap(), "warming");
        assert!(matches!(doc.get("feed_alive"), Some(Json::Bool(true))));
        assert_eq!(num(&doc, "rounds") as u64, 0);
        assert!(matches!(doc.get("last_publish_age_s"), Some(Json::Null)));

        // Stream the whole feed down one connection, then close it.
        let mut feed = TcpStream::connect(feed_addr).unwrap();
        feed.write_all(encoded.as_bytes()).unwrap();
        drop(feed);

        // Drain: poll /stats until every record is through the engine.
        let deadline = Instant::now() + Duration::from_secs(60);
        let stats = loop {
            let (status, stats) = get_json(http_addr, "/stats");
            assert_eq!(status, 200);
            if num(&stats, "records_processed") as usize == oracle.records {
                break stats;
            }
            assert!(Instant::now() < deadline, "feed never drained: {stats:?}");
            std::thread::sleep(Duration::from_millis(50));
        };

        // Bit-identical to the offline replay.
        assert_eq!(num(&stats, "records_received") as usize, oracle.records);
        assert_eq!(num(&stats, "bad_lines") as u64, 0);
        assert_eq!(num(&stats, "version") as u64, oracle.version);
        assert_eq!(
            stats.get("digest").and_then(Json::as_str).unwrap(),
            format!("{:#018x}", oracle.digest),
            "daemon digest diverged from offline replay"
        );
        assert_eq!(num(&stats, "lights") as usize, oracle.schedules.len());
        assert_eq!(num(&stats, "changes") as usize, oracle.changes);

        // Every identified schedule, field by field, at full f64 precision
        // (fmt_f64 is shortest-roundtrip).
        for (light, expect) in &oracle.schedules {
            let (status, doc) = get_json(http_addr, &format!("/schedule/{}", light.0));
            assert_eq!(status, 200, "schedule for light {light:?}");
            assert_eq!(num(&doc, "cycle_s").to_bits(), expect.cycle_s.to_bits());
            assert_eq!(num(&doc, "red_s").to_bits(), expect.red_s.to_bits());
            assert_eq!(num(&doc, "green_s").to_bits(), expect.green_s.to_bits());
            assert_eq!(num(&doc, "red_start_s").to_bits(), expect.red_start_s.to_bits());
            assert_eq!(num(&doc, "samples") as usize, expect.samples);
        }

        // Green-wait answers match the shared ScheduleView logic.
        let oracle_view =
            taxilight_core::ScheduleView::new(oracle.version, None, oracle.schedules.clone());
        let t0 = Timestamp::civil(2014, 12, 5, 9, 45, 0);
        for (light, _) in oracle.schedules.iter().take(3) {
            for dt in [0i64, 17, 61] {
                let t = t0.offset(dt);
                let (status, doc) =
                    get_json(http_addr, &format!("/green_wait/{}?t={}", light.0, t.0));
                assert_eq!(status, 200);
                let expect = oracle_view.wait_for_green(*light, t).unwrap();
                assert_eq!(num(&doc, "wait_s").to_bits(), expect.to_bits());
                let red = oracle_view.is_red_at(*light, t).unwrap();
                assert_eq!(
                    doc.get("state").and_then(Json::as_str).unwrap(),
                    if red { "red" } else { "green" }
                );
            }
        }
        // Change history page, in (timestamp, light) order.
        let (status, doc) = get_json(http_addr, "/changes");
        assert_eq!(status, 200);
        let changes = doc.get("changes").and_then(Json::as_arr).unwrap();
        assert_eq!(changes.len(), oracle.changes);

        // After rounds fired, /healthz reports "ok".
        let (status, doc) = get_json(http_addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("status").and_then(Json::as_str).unwrap(), "ok");
        assert!(matches!(doc.get("feed_alive"), Some(Json::Bool(true))));
        assert!(num(&doc, "rounds") > 0.0);
        assert!(num(&doc, "last_publish_age_s") >= 0.0);

        // /lights: the published health records match the offline
        // replay's registry exactly (health only mutates inside rounds).
        let (status, doc) = get_json(http_addr, "/lights");
        assert_eq!(status, 200);
        assert_eq!(num(&doc, "version") as u64, oracle.version);
        assert_eq!(num(&doc, "lights_tracked") as usize, oracle.health.len());
        let expect_identified = oracle.health.iter().filter(|h| h.identified()).count();
        assert_eq!(num(&doc, "identified") as usize, expect_identified);
        assert_eq!(
            doc.get("watermark").and_then(Json::as_str).unwrap(),
            oracle.watermark.format(),
            "freshness watermark diverged from the feed's newest record"
        );
        let lights = doc.get("lights").and_then(Json::as_arr).unwrap();
        assert_eq!(lights.len(), oracle.health.len());
        for (item, expect) in lights.iter().zip(&oracle.health) {
            assert_eq!(num(item, "light") as u32, expect.light.0);
            assert_eq!(item.get("grade").and_then(Json::as_str).unwrap(), expect.grade.as_str());
            assert_eq!(num(item, "snr").to_bits(), expect.snr.to_bits());
        }

        // /lights/{id}: every field of every record, bit-for-bit against
        // the oracle, including feed-clock freshness.
        for expect in &oracle.health {
            let (status, doc) = get_json(http_addr, &format!("/lights/{}", expect.light.0));
            assert_eq!(status, 200, "health for light {:?}", expect.light);
            assert_eq!(num(&doc, "light") as u32, expect.light.0);
            assert_eq!(doc.get("grade").and_then(Json::as_str).unwrap(), expect.grade.as_str());
            assert_eq!(num(&doc, "observations") as usize, expect.observations);
            assert_eq!(num(&doc, "records_per_hour").to_bits(), expect.records_per_hour.to_bits());
            assert_eq!(num(&doc, "attempts") as u64, expect.attempts);
            assert_eq!(num(&doc, "successes") as u64, expect.successes);
            assert_eq!(num(&doc, "consecutive_failures") as u64, expect.consecutive_failures);
            let failures = doc.get("failures").expect("failures object");
            assert_eq!(num(failures, "no_data") as u64, expect.failures.no_data);
            assert_eq!(num(failures, "cycle") as u64, expect.failures.cycle);
            assert_eq!(num(failures, "red") as u64, expect.failures.red);
            assert_eq!(num(failures, "change_point") as u64, expect.failures.change_point);
            assert_eq!(num(failures, "total") as u64, expect.failures.total());
            assert_eq!(num(&doc, "changes") as u64, expect.changes);
            assert_eq!(num(&doc, "snr").to_bits(), expect.snr.to_bits());
            assert_eq!(num(&doc, "cycle_s").to_bits(), expect.cycle_s.to_bits());
            assert_eq!(num(&doc, "last_version") as u64, expect.last_version);
            match expect.age_s(oracle.watermark) {
                Some(age) => assert_eq!(num(&doc, "age_s").to_bits(), age.to_bits()),
                None => assert!(matches!(doc.get("age_s"), Some(Json::Null))),
            }
        }

        // Error paths and the metrics surfaces stay up under load.
        assert_eq!(http_get(http_addr, "/schedule/notanumber").0, 400);
        assert_eq!(http_get(http_addr, "/schedule/999999").0, 404);
        assert_eq!(http_get(http_addr, "/green_wait/0").0, 400);
        assert_eq!(http_get(http_addr, "/lights/notanumber").0, 400);
        assert_eq!(http_get(http_addr, "/lights/999999").0, 404);
        assert_eq!(http_get(http_addr, "/nope").0, 404);
        match &flight {
            Some(recorder) => {
                // Nothing fires after the drain, so the dump carries this
                // trigger's reason.
                let _ = recorder.trigger("e2e_drained");
                let (status, body) = http_get(http_addr, "/debug/flight");
                assert_eq!(status, 200);
                let dump = json::parse(&body).expect("flight dump parses");
                let summary = validate_flight_dump(&dump).expect("flight dump validates");
                assert_eq!(summary.reason, "e2e_drained");
            }
            None => assert_eq!(http_get(http_addr, "/debug/flight").0, 404),
        }
        let (status, metrics) = http_get(http_addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("taxilightd_records_total"));
        assert!(metrics.contains("taxilight_http_request_duration_seconds_bucket"));
        assert!(metrics.contains("taxilight_http_errors_total"));
        assert!(metrics.contains("taxilight_build_info"));
        assert!(metrics.contains("taxilight_schedule_age_seconds"));
        assert!(metrics.contains("taxilight_lights_by_grade"));
        let (status, snapshot) = get_json(http_addr, "/metrics.json");
        assert_eq!(status, 200);
        let summary = validate_metrics(&snapshot).unwrap_or_else(|e| panic!("/metrics.json: {e}"));
        assert!(summary.volatile > 0, "/metrics.json has no volatile HTTP metrics");

        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
}

#[test]
fn daemon_csv_feed_matches_offline_replay() {
    run_case(FeedFormat::Csv, &world().csv, None);
}

/// The same proof with a flight recorder armed: recording must not
/// change an answer, and the drained daemon serves a valid dump.
#[test]
fn daemon_ndjson_feed_matches_offline_replay() {
    run_case(FeedFormat::NdJson, &world().ndjson, Some(Arc::new(FlightRecorder::new())));
}

/// A round publishes as soon as its trigger record is on the socket, with
/// the feed connection still open: the ND-JSON decoder holds no record
/// back waiting for later lines.
#[test]
fn ndjson_round_publishes_while_the_feed_stays_open() {
    let w = world();
    let cfg = DaemonConfig { format: FeedFormat::NdJson, ..DaemonConfig::default() };
    // Replay the feed record by record to find the first round's trigger
    // and the version that round publishes.
    let mut source =
        FeedSource::new(Cursor::new(w.ndjson.as_bytes()), FeedFormat::NdJson, cfg.chunk);
    let (records, _) = collect_source(&mut source).unwrap();
    let mut engine = RealtimeIdentifier::builder(&w.net)
        .config(cfg.identify.clone())
        .interval_s(cfg.interval_s)
        .reorder_grace_s(cfg.reorder_grace_s)
        .build()
        .unwrap();
    let trigger = records
        .iter()
        .position(|r| {
            engine.extend(std::iter::once(r));
            engine.round_report().rounds > 0
        })
        .expect("the feed fires a round");
    let version = engine.view().version();
    let head: String = w.ndjson.lines().take(trigger + 1).map(|l| format!("{l}\n")).collect();

    let daemon = Daemon::bind(cfg).unwrap();
    let handle = daemon.handle();
    let (feed_addr, http_addr) = (handle.feed_addr(), handle.http_addr());
    // Poll with the feed open, then shut down either way, so a failure
    // reports instead of waiting on a daemon nobody stops.
    let stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&w.net));
        let mut feed = TcpStream::connect(feed_addr).unwrap();
        feed.write_all(head.as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let stats = loop {
            let (_, stats) = get_json(http_addr, "/stats");
            if num(&stats, "version") as u64 == version {
                break Ok(stats);
            }
            if Instant::now() >= deadline {
                break Err(stats);
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        drop(feed);
        handle.shutdown();
        runner.join().unwrap().unwrap();
        stats
    });
    let stats = stats.unwrap_or_else(|stats| {
        panic!("version {version} never published with the feed open: {stats:?}")
    });
    assert_eq!(num(&stats, "records_processed") as usize, trigger + 1);
}

/// Kill the feed before any round can fire: with no snapshot publish
/// inside the threshold, `/healthz` must flip to 503 "stale" — the bug
/// this pins down is the old static-"ok" health check.
#[test]
fn healthz_goes_stale_when_the_feed_dies() {
    let w = world();
    let cfg = DaemonConfig { stale_after_s: 0.3, ..DaemonConfig::default() };
    let daemon = Daemon::bind(cfg).unwrap();
    let handle = daemon.handle();
    let (feed_addr, http_addr) = (handle.feed_addr(), handle.http_addr());
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&w.net));
        // Feed a handful of records — far too few for a round — then
        // kill the connection.
        let mut feed = TcpStream::connect(feed_addr).unwrap();
        let head: String = w.csv.lines().take(50).map(|l| format!("{l}\n")).collect();
        feed.write_all(head.as_bytes()).unwrap();
        drop(feed);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, doc) = get_json(http_addr, "/healthz");
            if status == 503 {
                assert_eq!(doc.get("status").and_then(Json::as_str).unwrap(), "stale");
                // The feed *thread* is still accepting; it is the rounds
                // that stopped.
                assert!(matches!(doc.get("feed_alive"), Some(Json::Bool(true))));
                break;
            }
            assert_eq!(status, 200);
            assert!(Instant::now() < deadline, "healthz never went stale: {doc:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
}

/// A daemon armed with a flight recorder serves a Perfetto-loadable,
/// validator-clean forensic dump at `/debug/flight`.
#[test]
fn debug_flight_serves_a_validated_dump() {
    let w = world();
    let recorder = Arc::new(FlightRecorder::new());
    let cfg = DaemonConfig { flight: Some(Arc::clone(&recorder)), ..DaemonConfig::default() };
    let daemon = Daemon::bind(cfg).unwrap();
    let handle = daemon.handle();
    let http_addr = handle.http_addr();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&w.net));
        let _ = recorder.trigger("e2e_probe");
        let (status, body) = http_get(http_addr, "/debug/flight");
        assert_eq!(status, 200);
        let summary = validate_flight_dump(&json::parse(&body).unwrap()).unwrap();
        assert_eq!(summary.reason, "e2e_probe");
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
}

#[test]
fn keep_alive_connection_answers_many_queries() {
    // The load-generator pattern: many requests down one socket.
    let w = world();
    let daemon = Daemon::bind(DaemonConfig::default()).unwrap();
    let handle = daemon.handle();
    let http_addr = handle.http_addr();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&w.net));
        let mut conn = TcpStream::connect(http_addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for _ in 0..50 {
            write!(conn, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            // Read exactly one framed response off the stream.
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                conn.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            let head = String::from_utf8(head).unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
            assert!(head.contains("Connection: keep-alive\r\n"));
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("Content-Length");
            let mut body = vec![0u8; len];
            conn.read_exact(&mut body).unwrap();
            let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert_eq!(num(&doc, "seq") as u64, 0);
        }
        drop(conn);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    });
}
