//! The streaming promise, proven differentially: feeding the pipeline
//! through a bounded-memory [`RecordSource`] is **bit-identical** to the
//! in-memory path, for any chunk size, batch boundary, or interleaving.
//!
//! Mirrors `engine_equivalence.rs` (sharded == serial): one seeded
//! simulated city built once, every case re-runs an intake variant over
//! it and compares at the `f64::to_bits` level — `PartialEq` on floats
//! would hide `-0.0` vs `0.0` drift. Three layers are pinned:
//!
//! * `Preprocessor::preprocess_source` == `Preprocessor::preprocess`
//!   (same `PartitionedTraces`, same stats) and the engine outcome on top
//!   of both is bit-identical — including when the source is a
//!   [`CsvChunkReader`] decoding the feed from CSV bytes.
//! * `RealtimeIdentifier`: push-by-push == one giant `extend` ==
//!   `extend_source` at any chunk size — same `round_report()`, same
//!   schedules — across reorder-grace settings.
//! * The deterministic metrics the laps emit (preprocess reject-reason
//!   counters, realtime dedup/out-of-grace counters, the watermark-lag
//!   gauge) advance by identical deltas on every intake variant.

use std::io::Cursor;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard};

use proptest::prelude::*;
use taxilight_core::engine::{Identifier, IdentifyRequest};
use taxilight_core::pipeline::{IdentifyError, LightSchedule};
use taxilight_core::preprocess::{PartitionedTraces, PreprocessStats, Preprocessor};
use taxilight_core::realtime::{RealtimeIdentifier, RoundReport};
use taxilight_core::IdentifyConfig;
use taxilight_roadnet::generators::{grid_city, GeneratedCity, GridConfig};
use taxilight_roadnet::graph::LightId;
use taxilight_sim::lights::{IntersectionPlan, PhasePlan, SignalMap};
use taxilight_sim::sim::{SimConfig, Simulator};
use taxilight_trace::csv::encode_log;
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::source::{CsvChunkReader, MemorySource, RecordSource};
use taxilight_trace::stream::TraceLog;
use taxilight_trace::time::Timestamp;

struct World {
    city: GeneratedCity,
    /// The live feed: chronological arrival order, not per-taxi grouping.
    feed: Vec<TaxiRecord>,
    csv: String,
    at: Timestamp,
}

/// The metric-delta test reads process-global counters that every lap in
/// this binary advances, and the harness runs tests on parallel threads.
/// That test holds this lock for writing and every other test holds it
/// for reading, so laps still overlap each other but never its
/// measurement window.
static METRICS: RwLock<()> = RwLock::new(());

/// Shared hold on [`METRICS`] for a test that runs laps.
fn laps_running() -> RwLockReadGuard<'static, ()> {
    METRICS.read().unwrap_or_else(PoisonError::into_inner)
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let city =
            grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
        let mut signals = SignalMap::new();
        let plan = PhasePlan::new(92, 41, 9);
        for &ix in &city.intersections {
            signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
        }
        let start = Timestamp::civil(2014, 12, 5, 7, 30, 0);
        let mut sim = Simulator::new(
            &city.net,
            &signals,
            SimConfig {
                taxi_count: 120,
                start,
                seed: 58,
                hourly_activity: [1.0; 24],
                ..SimConfig::default()
            },
        );
        sim.run(5000);
        let (log, fleet) = sim.into_log();
        let mut feed = log.into_records();
        feed.sort_by_key(|r| r.time);
        let csv = encode_log(&feed, &fleet).unwrap();
        World { city, feed, csv, at: start.offset(5000) }
    })
}

/// Exact bit patterns of an engine result set (copied from
/// `engine_equivalence.rs` — the comparator itself is part of the proof).
fn bits(
    results: &[(LightId, Result<LightSchedule, IdentifyError>)],
) -> Vec<(u32, Result<[u64; 5], String>)> {
    results
        .iter()
        .map(|(l, r)| {
            (
                l.0,
                r.as_ref()
                    .map(|s| {
                        [
                            s.cycle_s.to_bits(),
                            s.red_s.to_bits(),
                            s.green_s.to_bits(),
                            s.red_start_s.to_bits(),
                            s.snr.to_bits(),
                        ]
                    })
                    .map_err(|e| format!("{e:?}")),
            )
        })
        .collect()
}

/// Exact bit patterns of a realtime engine's current schedules.
fn schedule_bits(engine: &RealtimeIdentifier) -> Vec<(u32, [u64; 5])> {
    engine
        .schedules()
        .map(|(l, s)| {
            (
                l.0,
                [
                    s.cycle_s.to_bits(),
                    s.red_s.to_bits(),
                    s.green_s.to_bits(),
                    s.red_start_s.to_bits(),
                    s.snr.to_bits(),
                ],
            )
        })
        .collect()
}

/// Per-light engine outcome as bit patterns (`Err` keeps the message).
type OutcomeBits = Vec<(u32, Result<[u64; 5], String>)>;

/// One realtime lap's result: round report plus per-light schedule bits.
type LapResult = (RoundReport, Vec<(u32, [u64; 5])>);

/// Runs the batch engine over a partition; the downstream half of the
/// preprocess differential.
fn outcome_bits(parts: &PartitionedTraces) -> OutcomeBits {
    let w = world();
    let engine = Identifier::with_defaults(&w.city.net);
    bits(&engine.run(parts, &IdentifyRequest::all(w.at)).results)
}

fn in_memory() -> (PartitionedTraces, PreprocessStats) {
    let w = world();
    let pre = Preprocessor::new(&w.city.net, IdentifyConfig::default());
    pre.preprocess(&mut TraceLog::from_records(w.feed.clone()))
}

fn streamed(src: &mut impl RecordSource) -> (PartitionedTraces, PreprocessStats) {
    let w = world();
    let pre = Preprocessor::new(&w.city.net, IdentifyConfig::default());
    pre.preprocess_source(src).expect("in-memory sources cannot fail")
}

fn assert_parts_identical(a: &PartitionedTraces, b: &PartitionedTraces, what: &str) {
    assert_eq!(a.lights_with_data(), b.lights_with_data(), "{what}: light sets diverged");
    assert_eq!(a.total(), b.total(), "{what}: totals diverged");
    for light in a.lights_with_data() {
        let (oa, ob) = (a.observations(light), b.observations(light));
        assert_eq!(oa.len(), ob.len(), "{what}: bucket {light:?} length diverged");
        for (x, y) in oa.iter().zip(ob) {
            assert_eq!(x.taxi, y.taxi, "{what}: {light:?}");
            assert_eq!(x.time, y.time, "{what}: {light:?}");
            assert_eq!(x.speed_kmh.to_bits(), y.speed_kmh.to_bits(), "{what}: {light:?}");
            assert_eq!(x.dist_to_stop_m.to_bits(), y.dist_to_stop_m.to_bits(), "{what}: {light:?}");
            assert_eq!(x.passenger, y.passenger, "{what}: {light:?}");
        }
    }
}

#[test]
fn fixture_is_nontrivial() {
    let _laps = laps_running();
    let (parts, stats) = in_memory();
    assert!(stats.partitioned > 1000, "fixture too sparse: {stats:?}");
    assert!(parts.lights_with_data().len() >= 2);
    let identified = outcome_bits(&parts).iter().filter(|(_, r)| r.is_ok()).count();
    assert!(identified >= 2, "fixture identified only {identified} lights");
}

#[test]
fn preprocess_source_bit_identical_for_selected_chunks() {
    let _laps = laps_running();
    let w = world();
    let (want_parts, want_stats) = in_memory();
    let want_outcome = outcome_bits(&want_parts);
    for chunk in [1usize, 7, 256, 10_000, usize::MAX] {
        let (parts, stats) = streamed(&mut MemorySource::new(&w.feed, chunk.min(w.feed.len() + 1)));
        assert_eq!(stats, want_stats, "stats diverged at chunk_records={chunk}");
        assert_parts_identical(&parts, &want_parts, &format!("chunk_records={chunk}"));
        assert_eq!(outcome_bits(&parts), want_outcome, "outcome diverged at {chunk}");
    }
}

#[test]
fn csv_chunked_decode_bit_identical_to_in_memory_decode() {
    let _laps = laps_running();
    let w = world();
    // Reference: whole-text decode, then the in-memory pass. The decoder
    // assigns taxi ids in feed-first-seen order, so both sides must use
    // the *decoded* records, not the simulator's.
    let mut fleet = taxilight_trace::record::Fleet::new();
    let (decoded, errors) = taxilight_trace::csv::decode_log(&w.csv, &mut fleet);
    assert!(errors.is_empty(), "fixture CSV must be clean");
    let pre = Preprocessor::new(&w.city.net, IdentifyConfig::default());
    let (want_parts, want_stats) = pre.preprocess(&mut TraceLog::from_records(decoded));
    let want_outcome = outcome_bits(&want_parts);
    for chunk_bytes in [1usize, 53, 4096, 1 << 22] {
        let mut src = CsvChunkReader::new(Cursor::new(w.csv.as_bytes()), chunk_bytes);
        let (parts, stats) = streamed(&mut src);
        assert_eq!(stats, want_stats, "stats diverged at chunk_bytes={chunk_bytes}");
        assert_parts_identical(&parts, &want_parts, &format!("chunk_bytes={chunk_bytes}"));
        assert_eq!(outcome_bits(&parts), want_outcome, "outcome diverged at {chunk_bytes}");
    }
}

/// One realtime lap; `chunk_records = None` means push record-by-record,
/// `Some(0)` means one giant `extend`, `Some(n)` means `extend_source`
/// over a [`MemorySource`] of that chunk size.
fn realtime_lap(grace: u32, chunk_records: Option<usize>) -> LapResult {
    let w = world();
    let mut engine =
        RealtimeIdentifier::builder(&w.city.net).reorder_grace_s(grace).build().unwrap();
    match chunk_records {
        None => {
            for r in &w.feed {
                engine.push(r);
            }
        }
        Some(0) => engine.extend(w.feed.iter()),
        Some(n) => {
            let consumed = engine.extend_source(&mut MemorySource::new(&w.feed, n)).unwrap();
            assert_eq!(consumed, w.feed.len() as u64);
        }
    }
    (engine.round_report(), schedule_bits(&engine))
}

/// The satellite pin: one-record-at-a-time, one-big-batch and chunked
/// streaming agree on every observable — rounds, watermark lag, dedup
/// and out-of-grace counts, and every schedule bit — across grace
/// settings (grace changes *which* rounds fire, so each setting is its
/// own fixture).
#[test]
fn realtime_intake_variants_agree_across_grace_settings() {
    let _laps = laps_running();
    for grace in [0u32, 45, 300] {
        let (push_report, push_scheds) = realtime_lap(grace, None);
        assert!(push_report.rounds >= 1, "no rounds at grace={grace}");
        assert!(!push_scheds.is_empty(), "no schedules at grace={grace}");
        for chunk in [Some(0), Some(1), Some(13), Some(997)] {
            let (report, scheds) = realtime_lap(grace, chunk);
            assert_eq!(report, push_report, "report diverged: grace={grace} chunk={chunk:?}");
            assert_eq!(scheds, push_scheds, "schedules diverged: grace={grace} chunk={chunk:?}");
        }
    }
}

/// The deterministic metrics the laps emit advance by identical deltas
/// whichever intake variant runs — the registry view of equivalence.
#[test]
fn deterministic_metric_deltas_are_intake_invariant() {
    let _exclusive = METRICS.write().unwrap_or_else(PoisonError::into_inner);
    use taxilight_obs::metrics::{self, MetricClass};
    let reg = metrics::global();
    let class = MetricClass::Deterministic;
    let reason = |r| {
        reg.counter(
            "taxilight_preprocess_records_total",
            &[("reason", r)],
            class,
            "Records by map-matching outcome",
        )
    };
    let counters = [
        reason("implausible"),
        reason("unmatched"),
        reason("unsignalized"),
        reason("partitioned"),
        reg.counter(
            "taxilight_realtime_records_deduped_total",
            &[],
            class,
            "Matched records dropped as (taxi, timestamp) duplicates",
        ),
        reg.counter(
            "taxilight_realtime_out_of_grace_total",
            &[],
            class,
            "Matched records dropped for arriving after their window's round",
        ),
    ];
    let snap = |c: &[metrics::Counter]| c.iter().map(|x| x.get()).collect::<Vec<u64>>();
    let delta = |before: &[u64], after: &[u64]| {
        before.iter().zip(after).map(|(b, a)| a - b).collect::<Vec<u64>>()
    };

    let before = snap(&counters);
    let _ = realtime_lap(45, Some(0));
    let batch_delta = delta(&before, &snap(&counters));

    let before = snap(&counters);
    let _ = realtime_lap(45, Some(17));
    let chunked_delta = delta(&before, &snap(&counters));

    let before = snap(&counters);
    let _ = realtime_lap(45, None);
    let push_delta = delta(&before, &snap(&counters));

    assert_eq!(batch_delta, chunked_delta, "chunked lap shifted the metrics");
    assert_eq!(batch_delta, push_delta, "push lap shifted the metrics");
    assert!(batch_delta.iter().sum::<u64>() > 0, "laps emitted no metrics at all");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chunk sizes: the preprocess differential, engine outcome
    /// included, holds for every batch split.
    #[test]
    fn preprocess_source_bit_identical_for_any_chunk(chunk in 1usize..5_000) {
        let _laps = laps_running();
        static WANT: OnceLock<(OutcomeBits, PreprocessStats)> = OnceLock::new();
        let (want_outcome, want_stats) = WANT.get_or_init(|| {
            let (parts, stats) = in_memory();
            (outcome_bits(&parts), stats)
        });
        let w = world();
        let (parts, stats) = streamed(&mut MemorySource::new(&w.feed, chunk));
        prop_assert_eq!(&stats, want_stats, "stats diverged at chunk_records={}", chunk);
        prop_assert_eq!(&outcome_bits(&parts), want_outcome, "outcome diverged at {}", chunk);
    }

    /// Arbitrary chunk sizes through the realtime engine: rounds fire at
    /// the same instants with the same results whatever the batch split.
    #[test]
    fn realtime_streaming_bit_identical_for_any_chunk(
        chunk in 1usize..3_000,
        grace_sel in 0usize..3,
    ) {
        let _laps = laps_running();
        let grace = [0u32, 45, 300][grace_sel];
        static WANT: OnceLock<std::sync::Mutex<std::collections::HashMap<u32, LapResult>>> =
            OnceLock::new();
        let cache = WANT.get_or_init(Default::default);
        let want = {
            let mut map = cache.lock().unwrap();
            map.entry(grace).or_insert_with(|| realtime_lap(grace, Some(0))).clone()
        };
        let (report, scheds) = realtime_lap(grace, Some(chunk));
        prop_assert_eq!(report, want.0, "report diverged at chunk={} grace={}", chunk, grace);
        prop_assert_eq!(scheds, want.1, "schedules diverged at chunk={} grace={}", chunk, grace);
    }
}
