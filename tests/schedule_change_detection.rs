//! Integration: the continuous monitor detects a pre-programmed programme
//! switch from simulated traces (the paper's Sec. VII / Fig. 12 behaviour),
//! with the right direction, levels and latency.

use taxilight::core::monitor::ScheduleMonitor;
use taxilight::core::{Identifier, IdentifyConfig, IdentifyRequest, Preprocessor};
use taxilight::roadnet::generators::{grid_city, GridConfig};
use taxilight::sim::lights::{DailyProgram, IntersectionPlan, PhasePlan, Schedule, SignalMap};
use taxilight::sim::{SimConfig, Simulator};
use taxilight::trace::Timestamp;

#[test]
fn detects_preprogrammed_switch_from_traces() {
    let city =
        grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
    let off_peak = PhasePlan::new(80, 36, 5);
    let peak = PhasePlan::new(140, 64, 5);
    let mut signals = SignalMap::new();
    for &ix in &city.intersections {
        signals.install_intersection_with(&city.net, ix, IntersectionPlan { ns: off_peak }, |p| {
            let peak_plan = if p == off_peak { peak } else { peak.antiphase() };
            Schedule::PreProgrammed(DailyProgram::new(vec![(0, p), (8 * 3600, peak_plan)]))
        });
    }

    // Simulate 06:30 → 10:00, across the 08:00 switch.
    let start = Timestamp::civil(2014, 5, 21, 6, 30, 0);
    let horizon = 12_600i64; // 3.5 h
    let mut sim = Simulator::new(
        &city.net,
        &signals,
        SimConfig {
            taxi_count: 110,
            start,
            seed: 13,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        },
    );
    sim.run(horizon as u64);
    let (mut log, _) = sim.into_log();

    let cfg = IdentifyConfig { window_s: 1800, ..IdentifyConfig::default() };
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let engine = Identifier::new(&city.net, cfg.clone()).expect("config is valid");
    let (parts, _) = pre.preprocess(&mut log);
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("a light has data");

    let mut monitor = ScheduleMonitor::new(25.0, 2);
    let mut history = Vec::new();
    let mut t = start.offset(cfg.window_s as i64);
    while t <= start.offset(horizon) {
        let cycle = engine
            .run(&parts, &IdentifyRequest::one(t, light))
            .into_single()
            .ok()
            .map(|e| e.cycle_s);
        monitor.push(t, cycle);
        history.push((t, cycle));
        t = t.offset(600);
    }

    let events = monitor.changes();
    assert!(!events.is_empty(), "the 80→140 s switch must be detected; history: {history:?}");
    let switch = &events[0];
    assert!(
        switch.to_cycle_s > switch.from_cycle_s,
        "first change must be the morning increase: {switch:?}"
    );
    // Detection latency is bounded by the analysis window plus the
    // monitoring interval.
    let switch_truth = Timestamp::civil(2014, 5, 21, 8, 0, 0);
    let latency = switch.at.delta(switch_truth);
    assert!(
        (-600..=(cfg.window_s as i64 + 1200)).contains(&latency),
        "detection at {} is {}s from the true switch",
        switch.at,
        latency
    );
    // Levels are near the truth.
    assert!((switch.from_cycle_s - 80.0).abs() < 12.0, "from level {}", switch.from_cycle_s);
    assert!((switch.to_cycle_s - 140.0).abs() < 12.0, "to level {}", switch.to_cycle_s);
}
