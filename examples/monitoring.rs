//! Scheduling-change identification (paper Sec. VII, Fig. 12): monitor a
//! pre-programmed light through a peak/off-peak programme switch by
//! re-estimating its cycle length periodically, then detect the switch
//! from the cleaned series.
//!
//! ```text
//! cargo run --release --example monitoring
//! ```

use taxilight::core::monitor::ScheduleMonitor;
use taxilight::core::{Identifier, IdentifyConfig, IdentifyRequest, Preprocessor};
use taxilight::roadnet::generators::{grid_city, GridConfig};
use taxilight::sim::lights::{DailyProgram, IntersectionPlan, PhasePlan, Schedule, SignalMap};
use taxilight::sim::{SimConfig, Simulator};
use taxilight::trace::Timestamp;

fn main() {
    // A small city whose lights switch from a 90 s to a 150 s programme at
    // 07:00 and back at 09:00 — the pre-programmed category.
    let city =
        grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
    let off_peak = PhasePlan::new(90, 40, 10);
    let peak = PhasePlan::new(150, 70, 10);
    let mut signals = SignalMap::new();
    for &ix in &city.intersections {
        signals.install_intersection_with(
            &city.net,
            ix,
            IntersectionPlan { ns: off_peak },
            |plan| {
                let peak_plan = if plan == off_peak { peak } else { peak.antiphase() };
                Schedule::PreProgrammed(DailyProgram::new(vec![
                    (0, plan),
                    (7 * 3600, peak_plan),
                    (9 * 3600, plan),
                ]))
            },
        );
    }

    // Simulate 05:00 → 11:00, through both programme switches.
    let start = Timestamp::civil(2014, 5, 21, 5, 0, 0);
    let horizon_s: i64 = 6 * 3600;
    println!("simulating 6 h of traffic through the 07:00 and 09:00 programme switches…");
    let mut sim = Simulator::new(
        &city.net,
        &signals,
        SimConfig {
            taxi_count: 90,
            start,
            seed: 3,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        },
    );
    sim.run(horizon_s as u64);
    let (mut log, _) = sim.into_log();

    let cfg = IdentifyConfig { window_s: 1800, ..IdentifyConfig::default() };
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let engine = Identifier::new(&city.net, cfg.clone()).expect("default config is valid");
    let (parts, _) = pre.preprocess(&mut log);

    // Monitor the busiest light: re-estimate every 10 minutes (the paper
    // uses 5; the window is the limiting factor either way).
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("some light has data");
    println!("monitoring light {:?}\n", light);

    let mut monitor = ScheduleMonitor::new(20.0, 2);
    println!("{:>8} {:>12} {:>12}", "time", "est cycle", "truth");
    let mut t = start.offset(cfg.window_s as i64);
    while t <= start.offset(horizon_s) {
        let estimate = engine.run(&parts, &IdentifyRequest::one(t, light)).into_single().ok();
        let cycle = estimate.map(|e| e.cycle_s);
        monitor.push(t, cycle);
        let truth = signals.plan(light, t).cycle_s;
        let shown = cycle.map(|c| format!("{c:.1}")).unwrap_or_else(|| "--".into());
        println!("{:>8} {:>12} {:>12}", t.format()[11..16].to_string(), shown, truth);
        t = t.offset(600);
    }

    // Detect the programme switches from the monitored series.
    let events = monitor.changes();
    println!("\ndetected scheduling changes:");
    if events.is_empty() {
        println!("  (none)");
    }
    for e in &events {
        println!("  at {}: cycle {:.0} s → {:.0} s", e.at.format(), e.from_cycle_s, e.to_cycle_s);
    }
}
