//! Runs one scenario end to end: simulate → preprocess → identify →
//! compare against simulator ground truth (and, for switch scenarios,
//! monitor → detection latency). Everything downstream of the scenario's
//! seed is deterministic, so two runs of the same scenario produce
//! byte-identical reports.

use crate::report::{cdf_points, LightRow, ScenarioReport};
use crate::scenario::{Scenario, ScheduleFamily};
use taxilight_core::monitor::ScheduleMonitor;
use taxilight_core::pipeline::mean_sample_interval;
use taxilight_core::{
    compare, grade_counts, red_bin_error, ErrorSummary, Identifier, IdentifyConfig,
    IdentifyRequest, Preprocessor, ScheduleTruth,
};
use taxilight_sim::custom_city;

/// CDF thresholds for cycle/change errors, seconds (Fig. 14's x-axis).
const SECONDS_THRESHOLDS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0];
/// CDF thresholds for red errors, sample-interval bins (Fig. 13's unit).
const BIN_THRESHOLDS: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 5.0];

/// Runs `scenario` and judges it against its gates.
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    run_scenario_with_base(scenario, &IdentifyConfig::default())
}

/// Like [`run_scenario`] but layering the scenario's window length over a
/// caller-supplied base configuration — the hook pipeline variants (e.g.
/// the padded-FFT spectrum path) use to prove they hold the same gates.
pub fn run_scenario_with_base(scenario: &Scenario, base: &IdentifyConfig) -> ScenarioReport {
    let mut report = match scenario.family {
        ScheduleFamily::PreProgrammedSwitch => run_change_detection(scenario, base),
        _ => run_identification(scenario, base),
    };
    report.judge();
    report
}

fn base_report(scenario: &Scenario) -> ScenarioReport {
    ScenarioReport {
        name: scenario.name.to_string(),
        seed: scenario.seed,
        topology: scenario.topology_tag(),
        family: scenario.family.tag().to_string(),
        taxis: scenario.taxis,
        attempts: 0,
        identified: 0,
        success_rate: 0.0,
        cycle_err_s: ErrorSummary::of(&[]),
        red_err_bins: ErrorSummary::of(&[]),
        change_err_s: ErrorSummary::of(&[]),
        cycle_err_cdf: Vec::new(),
        red_bins_cdf: Vec::new(),
        change_err_cdf: Vec::new(),
        quality_grades: [0; 4],
        detect_latency_s: None,
        detections: 0,
        gates: scenario.gates,
        pass: false,
        failures: Vec::new(),
        lights: Vec::new(),
    }
}

/// The Figs. 13–14 workload: analysis windows at off-peak instants, every
/// light identified each time and compared against the signal map.
fn run_identification(scenario: &Scenario, base: &IdentifyConfig) -> ScenarioReport {
    let city = custom_city(&scenario.spec());
    let cfg = IdentifyConfig { window_s: scenario.window_s, ..base.clone() };
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let engine = Identifier::new(&city.net, cfg.clone()).expect("scenario config is valid");
    let mut report = base_report(scenario);

    let mut cycle_errs = Vec::new();
    let mut red_bins = Vec::new();
    let mut change_errs = Vec::new();

    for instant in 0..scenario.instants {
        // Off-peak windows (09:30 onward, strides co-prime with common
        // cycle lengths) keep ground truth single-valued even for the
        // mixed family's pre-programmed intersections.
        let day = scenario.spec().start;
        let start = day.offset(9 * 3600 + 1800 + (instant as i64) * 4271);
        let duration = scenario.window_s as u64 + 300;
        let (mut log, _) = city.run_from(start, duration);
        let (parts, _) = pre.preprocess(&mut log);
        let at = start.offset(duration as i64);

        let quality = taxilight_core::assess_all(&parts, start, at, &cfg);
        let grades = grade_counts(&quality);
        for (k, n) in grades.into_iter().enumerate() {
            report.quality_grades[k] += n;
        }

        for (light, result) in engine.run(&parts, &IdentifyRequest::all(at)).results {
            let plan = city.signals.plan(light, at);
            let truth = ScheduleTruth {
                cycle_s: plan.cycle_s as f64,
                red_s: plan.red_s as f64,
                red_start_mod_cycle_s: plan.offset_s as f64,
            };
            report.attempts += 1;
            let row = match result {
                Ok(est) => {
                    let errors = compare(&est, &truth);
                    let interval = mean_sample_interval(parts.observations(light));
                    let bins = (interval > 0.0).then(|| red_bin_error(errors.red_err_s, interval));
                    report.identified += 1;
                    cycle_errs.push(errors.cycle_err_s);
                    if let Some(b) = bins {
                        red_bins.push(b);
                    }
                    change_errs.push(errors.change_err_s);
                    LightRow {
                        light: light.0,
                        instant,
                        true_cycle_s: truth.cycle_s,
                        est_cycle_s: Some(est.cycle_s),
                        cycle_err_s: Some(errors.cycle_err_s),
                        red_err_s: Some(errors.red_err_s),
                        red_err_bins: bins,
                        change_err_s: Some(errors.change_err_s),
                        snr: est.snr,
                        samples: est.samples,
                    }
                }
                Err(_) => LightRow {
                    light: light.0,
                    instant,
                    true_cycle_s: truth.cycle_s,
                    est_cycle_s: None,
                    cycle_err_s: None,
                    red_err_s: None,
                    red_err_bins: None,
                    change_err_s: None,
                    snr: 0.0,
                    samples: 0,
                },
            };
            report.lights.push(row);
        }
    }

    report.success_rate =
        if report.attempts == 0 { 0.0 } else { report.identified as f64 / report.attempts as f64 };
    report.cycle_err_s = ErrorSummary::of(&cycle_errs);
    report.red_err_bins = ErrorSummary::of(&red_bins);
    report.change_err_s = ErrorSummary::of(&change_errs);
    report.cycle_err_cdf = cdf_points(&cycle_errs, &SECONDS_THRESHOLDS);
    report.red_bins_cdf = cdf_points(&red_bins, &BIN_THRESHOLDS);
    report.change_err_cdf = cdf_points(&change_errs, &SECONDS_THRESHOLDS);
    report
}

/// The Sec.-VII / Fig. 12 workload: simulate across the 07:00 programme
/// switch, re-identify on a monitoring cadence, and measure how long the
/// monitor takes to confirm the change on each busy light.
fn run_change_detection(scenario: &Scenario, base: &IdentifyConfig) -> ScenarioReport {
    let mut city = custom_city(&scenario.spec());
    // A uniformly active fleet: the workload measures the monitor, not
    // the pre-dawn activity dip.
    city.sim_config.hourly_activity = [1.0; 24];

    let cfg = IdentifyConfig { window_s: scenario.window_s, ..base.clone() };
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let engine = Identifier::new(&city.net, cfg.clone()).expect("scenario config is valid");
    let mut report = base_report(scenario);

    // 06:00 → 09:00 spans the 07:00 off-peak→peak switch with warm-up.
    let day = scenario.spec().start;
    let sim_start = day.offset(6 * 3600);
    let switch_truth = day.offset(7 * 3600);
    let horizon = 3 * 3600i64;
    let (mut log, _) = city.run_from(sim_start, horizon as u64);
    let (parts, _) = pre.preprocess(&mut log);

    // Monitor the busiest lights — the ones a deployment would trust.
    let mut by_density: Vec<_> =
        parts.lights_with_data().into_iter().map(|l| (l, parts.observations(l).len())).collect();
    by_density.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

    const MONITOR_INTERVAL_S: i64 = 600;
    let mut latencies = Vec::new();
    for &(light, samples) in by_density.iter().take(5) {
        let mut monitor = ScheduleMonitor::new(25.0, 2);
        let mut t = sim_start.offset(cfg.window_s as i64);
        while t <= sim_start.offset(horizon) {
            let cycle = engine
                .run(&parts, &IdentifyRequest::one(t, light))
                .into_single()
                .ok()
                .map(|e| e.cycle_s);
            monitor.push(t, cycle);
            t = t.offset(MONITOR_INTERVAL_S);
        }
        report.attempts += 1;
        // The first confirmed increase at or after the switch (minus one
        // monitoring interval of timestamp slack) is the detection.
        let event = monitor.changes().into_iter().find(|e| {
            e.to_cycle_s > e.from_cycle_s && e.at.delta(switch_truth) >= -MONITOR_INTERVAL_S
        });
        let (latency, est_cycle) = match event {
            Some(e) => {
                report.detections += 1;
                report.identified += 1;
                latencies.push(e.at.delta(switch_truth) as f64);
                (Some(e.at.delta(switch_truth) as f64), Some(e.to_cycle_s))
            }
            None => (None, None),
        };
        let truth_plan = city.signals.plan(light, sim_start.offset(horizon));
        report.lights.push(LightRow {
            light: light.0,
            instant: 0,
            true_cycle_s: truth_plan.cycle_s as f64,
            est_cycle_s: est_cycle,
            cycle_err_s: est_cycle.map(|c| (c - truth_plan.cycle_s as f64).abs()),
            red_err_s: None,
            red_err_bins: None,
            // Reuse the change-error column for the per-light latency so
            // the JSON stays one schema across families.
            change_err_s: latency,
            snr: 0.0,
            samples,
        });
    }

    report.success_rate =
        if report.attempts == 0 { 0.0 } else { report.detections as f64 / report.attempts as f64 };
    if !latencies.is_empty() {
        report.detect_latency_s = Some(ErrorSummary::of(&latencies).median);
    }
    report
}
