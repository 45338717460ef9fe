//! End-to-end observability: an instrumented engine + realtime run under
//! an installed [`ChromeTraceWriter`] must produce a trace that parses as
//! Chrome trace-event JSON, validates (strictly nested begin/end pairs
//! per track), and contains the pipeline's span vocabulary; the metrics
//! registry must snapshot to valid, stable JSON carrying the counters the
//! run incremented.
//!
//! One `#[test]` only: the subscriber is process-global and installable
//! once, so this whole scenario shares a single test binary.

use std::sync::Arc;

use taxilight_core::engine::{Identifier, IdentifyRequest};
use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::{IdentifyConfig, Preprocessor};
use taxilight_obs::chrome::ChromeTraceWriter;
use taxilight_obs::json::{deterministic_section, parse, validate_chrome_trace, validate_metrics};
use taxilight_roadnet::generators::{grid_city, GridConfig};
use taxilight_sim::lights::{IntersectionPlan, PhasePlan, SignalMap};
use taxilight_sim::sim::{SimConfig, Simulator};
use taxilight_trace::time::Timestamp;

#[test]
fn instrumented_run_produces_valid_trace_and_metrics() {
    let city =
        grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
    let mut signals = SignalMap::new();
    let plan = PhasePlan::new(96, 44, 9);
    for &ix in &city.intersections {
        signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
    }
    let start = Timestamp::civil(2014, 12, 5, 10, 0, 0);
    let mut sim = Simulator::new(
        &city.net,
        &signals,
        SimConfig {
            taxi_count: 90,
            start,
            seed: 7,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        },
    );
    sim.run(3600);
    let (mut log, _) = sim.into_log();

    let writer = Arc::new(ChromeTraceWriter::new());
    taxilight_obs::set_subscriber(writer.clone()).expect("first install in this process");
    taxilight_obs::set_track_name(|| "test-main".to_string());

    // Batch path: preprocess + a sharded engine run (worker tracks).
    let pre = Preprocessor::new(&city.net, IdentifyConfig::default());
    let (parts, stats) = pre.preprocess(&mut log);
    assert!(stats.partitioned > 0, "fixture produced no matched records");
    let engine = Identifier::with_defaults(&city.net);
    let at = start.offset(3600);
    let outcome = engine.run(&parts, &IdentifyRequest::all(at).sharded(8, 3));
    assert!(outcome.ok_count() >= 1, "fixture identified nothing");

    // Streaming path: replay the same feed through the realtime engine.
    let mut records = log.into_records();
    records.sort_by_key(|r| r.time);
    let mut rt = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 600);
    rt.extend(records.iter());
    rt.reidentify(at);
    assert!(rt.round_report().rounds >= 1);

    // The trace must parse, validate, and use the pipeline vocabulary.
    let json = writer.to_json();
    let doc = parse(&json).expect("trace is valid JSON");
    let summary = validate_chrome_trace(&doc).expect("trace validates");
    assert!(summary.spans > 0 && summary.events > 0);
    assert!(summary.tracks >= 2, "sharded run should emit on worker tracks");
    assert!(summary.named_tracks >= 1, "worker tracks should be named");
    for name in [
        "\"engine.run\"",
        "\"engine.shard\"",
        "\"engine.merge\"",
        "\"light.identify\"",
        "\"stage.cycle\"",
        "\"stage.red\"",
        "\"stage.change\"",
        "\"signal.resample\"",
        "\"signal.dft\"",
        "\"cycle.fold\"",
        "\"superpose.profile\"",
        "\"change_point.search\"",
        "\"realtime.round\"",
        "\"light.done\"",
        "\"workspace.checkout\"",
        "\"engine-worker-0\"",
    ] {
        assert!(json.contains(name), "trace is missing {name}");
    }

    // The metrics snapshot must validate, be reproducible call-to-call,
    // and carry the counters this run incremented in the right sections.
    let snap = taxilight_obs::metrics::global().snapshot_json();
    let mdoc = parse(&snap).expect("metrics snapshot is valid JSON");
    validate_metrics(&mdoc).expect("metrics snapshot validates");
    assert_eq!(snap, taxilight_obs::metrics::global().snapshot_json());
    let det = deterministic_section(&snap).expect("deterministic section present");
    assert!(det.contains("taxilight_preprocess_records_total"));
    assert!(det.contains("taxilight_realtime_watermark_lag_s"));
    assert!(
        !det.contains("taxilight_plan_cache_lookups_total"),
        "plan-cache counters are scheduling-dependent and must stay volatile"
    );
    assert!(snap.contains("taxilight_plan_cache_lookups_total"));

    // Prometheus exposition of the same registry stays consistent.
    let prom = taxilight_obs::metrics::global().prometheus_text();
    assert!(prom.contains("# TYPE taxilight_preprocess_records_total counter"));
    assert!(prom.contains("taxilight_realtime_watermark_lag_s"));
}
