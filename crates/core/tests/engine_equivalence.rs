//! The engine's one hard promise: sharded execution is **bit-identical**
//! to serial, for any shard count and any thread count (including 1).
//!
//! The fixture is a seeded simulated city, built once; every case re-runs
//! the full engine over it and compares schedules at the `f64::to_bits`
//! level — `PartialEq` on floats would hide `-0.0` vs `0.0` drift.

use std::sync::OnceLock;

use proptest::prelude::*;
use taxilight_core::engine::{ExecMode, Identifier, IdentifyRequest};
use taxilight_core::pipeline::{IdentifyError, LightSchedule};
use taxilight_core::preprocess::{PartitionedTraces, Preprocessor};
use taxilight_core::IdentifyConfig;
use taxilight_roadnet::generators::{grid_city, GeneratedCity, GridConfig};
use taxilight_roadnet::graph::LightId;
use taxilight_sim::lights::{IntersectionPlan, PhasePlan, SignalMap};
use taxilight_sim::sim::{SimConfig, Simulator};
use taxilight_trace::time::Timestamp;

struct World {
    city: GeneratedCity,
    parts: PartitionedTraces,
    at: Timestamp,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let city =
            grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
        let mut signals = SignalMap::new();
        let plan = PhasePlan::new(100, 45, 10);
        for &ix in &city.intersections {
            signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
        }
        let start = Timestamp::civil(2014, 12, 5, 14, 0, 0);
        let cfg = SimConfig {
            taxi_count: 90,
            start,
            seed: 42,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&city.net, &signals, cfg);
        sim.run(3600);
        let (mut log, _) = sim.into_log();
        let pre = Preprocessor::new(&city.net, IdentifyConfig::default());
        let (parts, _) = pre.preprocess(&mut log);
        World { city, parts, at: start.offset(3600) }
    })
}

/// Collapses one result set into exact bit patterns, so comparing two runs
/// tolerates nothing.
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

fn run(exec: ExecMode) -> Vec<(LightId, Result<LightSchedule, IdentifyError>)> {
    let w = world();
    let engine = Identifier::with_defaults(&w.city.net);
    let req = IdentifyRequest { exec, ..IdentifyRequest::all(w.at) };
    engine.run(&w.parts, &req).results
}

#[test]
fn fixture_identifies_lights() {
    let serial = run(ExecMode::Serial);
    assert!(serial.iter().filter(|(_, r)| r.is_ok()).count() >= 2, "fixture too sparse");
    // Ascending id order is part of the contract.
    assert!(serial.windows(2).all(|w| w[0].0 .0 < w[1].0 .0));
}

#[test]
fn auto_sharded_matches_serial() {
    assert_eq!(bits(&run(ExecMode::Serial)), bits(&run(ExecMode::default())));
}

#[test]
fn single_thread_single_shard_matches_serial() {
    let serial = bits(&run(ExecMode::Serial));
    assert_eq!(serial, bits(&run(ExecMode::Sharded { shards: 1, threads: 1 })));
    assert_eq!(serial, bits(&run(ExecMode::Sharded { shards: 1, threads: 8 })));
    assert_eq!(serial, bits(&run(ExecMode::Sharded { shards: 16, threads: 1 })));
}

#[test]
fn sharded_stage_and_plan_totals_merge_like_serial() {
    let w = world();
    let serial =
        Identifier::with_defaults(&w.city.net).run(&w.parts, &IdentifyRequest::all(w.at).serial());
    let sharded = Identifier::with_defaults(&w.city.net)
        .run(&w.parts, &IdentifyRequest::all(w.at).sharded(16, 4));
    // Same per-light work → exactly the same number of plan-cache lookups,
    // regardless of how many worker workspaces the lookups spread over
    // (the hit/miss split differs — each cold workspace misses once per
    // shape — but the total is execution-invariant).
    assert_eq!(serial.stats.plan_cache.total(), sharded.stats.plan_cache.total());
    // Stage timings merge in integer nanoseconds, so the sharded total is
    // a true sum over workers: every stage must be positive, and the
    // cross-mode totals must agree within a generous factor — wall-clock
    // noise, not merge error, is the only admissible source of drift.
    let (sc, sr, sch) = serial.stats.stage_timings.as_nanos();
    let (pc, pr, pch) = sharded.stats.stage_timings.as_nanos();
    for v in [sc, sr, sch, pc, pr, pch] {
        assert!(v > 0, "a stage accumulated zero time: {:?} {:?}", (sc, sr, sch), (pc, pr, pch));
    }
    let s = serial.stats.stage_timings.total_s();
    let p = sharded.stats.stage_timings.total_s();
    assert!(p < s * 4.0 + 0.5 && s < p * 4.0 + 0.5, "serial {s} s vs sharded {p} s");
    // The cycle stage's split — resample, spectrum, fold validation —
    // merges the same way: every part positive, the parts within their
    // stage, and the two modes' totals within the same generous factor.
    for (mode, timings) in
        [("serial", serial.stats.stage_timings), ("sharded", sharded.stats.stage_timings)]
    {
        let (resample, spectrum, fold) = timings.cycle_split_nanos();
        let (cycle, _, _) = timings.as_nanos();
        for v in [resample, spectrum, fold] {
            assert!(
                v > 0,
                "{mode}: a cycle-stage part accumulated zero time: {resample} {spectrum} {fold}"
            );
        }
        assert!(
            resample + spectrum + fold <= cycle,
            "{mode}: the parts {resample} + {spectrum} + {fold} ns exceed the cycle stage's {cycle} ns"
        );
    }
    let split_s = |t: taxilight_core::StageTimings| t.resample_s() + t.spectrum_s() + t.fold_s();
    let (s, p) = (split_s(serial.stats.stage_timings), split_s(sharded.stats.stage_timings));
    assert!(p < s * 4.0 + 0.5 && s < p * 4.0 + 0.5, "serial split {s} s vs sharded {p} s");
}

#[test]
fn more_shards_than_lights_is_fine() {
    let serial = bits(&run(ExecMode::Serial));
    assert_eq!(serial, bits(&run(ExecMode::Sharded { shards: 997, threads: 3 })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary shard × thread grids, all bit-identical to serial.
    #[test]
    fn sharded_bit_identical_to_serial(shards in 1usize..=33, threads in 1usize..=9) {
        let serial = bits(&run(ExecMode::Serial));
        let sharded = bits(&run(ExecMode::Sharded { shards, threads }));
        prop_assert_eq!(serial, sharded, "diverged at shards={} threads={}", shards, threads);
    }
}
