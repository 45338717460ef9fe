//! Robustness scenario axis: degradation curves under seeded trace
//! corruption.
//!
//! One base world is simulated once, then every corruption profile from
//! [`taxilight_trace::corrupt::Profile`] is applied across a severity
//! ladder and the full `preprocess → identify → monitor` pipeline is
//! re-run on the corrupted records. Per point we record identification
//! success, median cycle/red/change errors against the simulator's exact
//! ground truth, and the rate of spurious schedule-change detections a
//! [`ScheduleMonitor`] would raise against the clean baseline. Low
//! severities are gated per profile; higher severities only chart the
//! degradation curve.
//!
//! Everything derives from explicit `u64` seeds — the base world from
//! [`BASE_SEED`], each corruption pass from `(profile, severity)` — so
//! two runs of the same ladder serialise to byte-identical
//! `BENCH_robustness.json` reports.

use crate::report::{cdf_points, JsonWriter};
use std::collections::BTreeMap;
use taxilight_core::monitor::ScheduleMonitor;
use taxilight_core::pipeline::mean_sample_interval;
use taxilight_core::{
    compare, red_bin_error, ErrorSummary, Identifier, IdentifyConfig, IdentifyRequest,
    Preprocessor, ScheduleTruth,
};
use taxilight_sim::{custom_city, CityTopology, ScenarioSpec, ScheduleGenConfig};
use taxilight_trace::corrupt::{corrupt_records, Profile};
use taxilight_trace::time::Timestamp;
use taxilight_trace::TraceLog;

/// Master seed of the robustness base world (street grid, schedules,
/// fleet, demand — everything upstream of the corruption layer).
pub const BASE_SEED: u64 = 4801;
/// Fleet size of the base world.
pub const BASE_TAXIS: usize = 150;
/// Analysis-window length, seconds.
pub const WINDOW_S: u32 = 3600;
/// The full severity ladder `evalsuite --robustness` sweeps.
pub const FULL_SEVERITIES: [f64; 6] = [0.0, 0.15, 0.3, 0.5, 0.75, 1.0];
/// The fast ladder the test tier runs: the identity point plus the
/// gated low-severity point.
pub const FAST_SEVERITIES: [f64; 2] = [0.0, 0.15];
/// Severities at or below this value must satisfy the profile's gate.
pub const GATE_SEVERITY: f64 = 0.15;

/// CDF thresholds for the cycle-error curve, seconds.
const SECONDS_THRESHOLDS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0];

/// One `(profile, severity)` evaluation.
#[derive(Debug, Clone)]
pub struct RobustnessPoint {
    /// Corruption severity in `[0, 1]` (0 = pristine records).
    pub severity: f64,
    /// Identification attempts (= lights with truth at the instant).
    pub attempts: usize,
    /// Successful identifications.
    pub identified: usize,
    /// `identified / attempts` (0 when no attempts).
    pub success_rate: f64,
    /// Median absolute cycle-length error, seconds.
    pub median_cycle_err_s: f64,
    /// Median red-duration error, sample-interval bins.
    pub median_red_bins: f64,
    /// Median circular red-onset error, seconds.
    pub median_change_err_s: f64,
    /// Cycle-error CDF at 1, 2, 5, 10, 20 and 40 s.
    pub cycle_err_cdf: Vec<(f64, f64)>,
    /// Fraction of comparable lights where a [`ScheduleMonitor`] fed the
    /// clean estimate then the corrupted estimate confirms a (spurious)
    /// schedule change.
    pub spurious_change_rate: f64,
}

/// Per-profile tolerance bounds, applied to every point with
/// `severity <= `[`GATE_SEVERITY`].
#[derive(Debug, Clone, Copy)]
pub struct RobustnessGate {
    /// Minimum identification success rate.
    pub min_success_rate: f64,
    /// Median cycle-error bound, seconds.
    pub max_median_cycle_err_s: f64,
    /// Median red-error bound, sample-interval bins.
    pub max_median_red_bins: f64,
    /// Spurious change-detection rate bound.
    pub max_spurious_change_rate: f64,
}

/// One corruption profile's degradation curve plus its gate verdict.
#[derive(Debug, Clone)]
pub struct ProfileCurve {
    /// Stable profile name (JSON key, replay handle).
    pub profile: String,
    /// Operator names active at full severity, composition order.
    pub ops: Vec<String>,
    /// One point per severity, ladder order.
    pub points: Vec<RobustnessPoint>,
    /// The gate low-severity points were judged against.
    pub gate: RobustnessGate,
    /// Gate verdict.
    pub pass: bool,
    /// Human-readable gate failures (empty when `pass`).
    pub failures: Vec<String>,
}

impl ProfileCurve {
    /// One-line console summary.
    pub fn summary_line(&self) -> String {
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        let low = self.points.iter().find(|p| p.severity > 0.0).or(self.points.first());
        let high = self.points.last();
        match (low, high) {
            (Some(lo), Some(hi)) => format!(
                "{verdict}  {:<16} low s={:.2}: ok {:.2} cycle {:.2} s  |  high s={:.2}: ok {:.2} cycle {:.2} s",
                self.profile,
                lo.severity,
                lo.success_rate,
                lo.median_cycle_err_s,
                hi.severity,
                hi.success_rate,
                hi.median_cycle_err_s,
            ),
            _ => format!("{verdict}  {:<16} (no points)", self.profile),
        }
    }
}

/// The whole robustness sweep — what `evalsuite --robustness --json`
/// writes and CI archives as `BENCH_robustness.json`.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Base-world seed.
    pub seed: u64,
    /// Base-world topology tag.
    pub topology: String,
    /// Base-world fleet size.
    pub taxis: usize,
    /// Analysis-window length, seconds.
    pub window_s: u32,
    /// Severity ladder the sweep ran.
    pub severities: Vec<f64>,
    /// Per-profile curves, [`Profile::ALL`] order.
    pub profiles: Vec<ProfileCurve>,
}

impl RobustnessReport {
    /// True when every profile passed its gate.
    pub fn all_pass(&self) -> bool {
        self.profiles.iter().all(|p| p.pass)
    }

    /// Deterministic JSON encoding (schema `taxilight-robustness/1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("schema");
        w.string("taxilight-robustness/1");
        w.raw(",");
        w.key("seed");
        w.raw(&self.seed.to_string());
        w.raw(",");
        w.key("topology");
        w.string(&self.topology);
        w.raw(",");
        w.key("taxis");
        w.raw(&self.taxis.to_string());
        w.raw(",");
        w.key("window_s");
        w.raw(&self.window_s.to_string());
        w.raw(",");
        w.key("gate_severity");
        w.f64(GATE_SEVERITY);
        w.raw(",");
        w.key("severities");
        w.raw("[");
        for (i, &s) in self.severities.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.f64(s);
        }
        w.raw("],");
        w.key("pass");
        w.raw(if self.all_pass() { "true" } else { "false" });
        w.raw(",");
        w.key("profiles");
        w.raw("[");
        for (i, p) in self.profiles.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            write_profile(&mut w, p);
        }
        w.raw("]}");
        w.finish()
    }
}

fn write_profile(w: &mut JsonWriter, p: &ProfileCurve) {
    w.raw("{");
    w.key("profile");
    w.string(&p.profile);
    w.raw(",");
    w.key("ops");
    w.raw("[");
    for (i, op) in p.ops.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.string(op);
    }
    w.raw("],");
    w.key("gate");
    w.raw("{");
    w.key("min_success_rate");
    w.f64(p.gate.min_success_rate);
    w.raw(",");
    w.key("max_median_cycle_err_s");
    w.f64(p.gate.max_median_cycle_err_s);
    w.raw(",");
    w.key("max_median_red_bins");
    w.f64(p.gate.max_median_red_bins);
    w.raw(",");
    w.key("max_spurious_change_rate");
    w.f64(p.gate.max_spurious_change_rate);
    w.raw("},");
    w.key("pass");
    w.raw(if p.pass { "true" } else { "false" });
    w.raw(",");
    w.key("failures");
    w.raw("[");
    for (i, f) in p.failures.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.string(f);
    }
    w.raw("],");
    w.key("points");
    w.raw("[");
    for (i, pt) in p.points.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_point(w, pt);
    }
    w.raw("]}");
}

fn write_point(w: &mut JsonWriter, p: &RobustnessPoint) {
    w.raw("{");
    w.key("severity");
    w.f64(p.severity);
    w.raw(",");
    w.key("attempts");
    w.raw(&p.attempts.to_string());
    w.raw(",");
    w.key("identified");
    w.raw(&p.identified.to_string());
    w.raw(",");
    w.key("success_rate");
    w.f64(p.success_rate);
    w.raw(",");
    w.key("median_cycle_err_s");
    w.f64(p.median_cycle_err_s);
    w.raw(",");
    w.key("median_red_bins");
    w.f64(p.median_red_bins);
    w.raw(",");
    w.key("median_change_err_s");
    w.f64(p.median_change_err_s);
    w.raw(",");
    w.key("cycle_err_cdf");
    w.raw("[");
    for (i, &(t, frac)) in p.cycle_err_cdf.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("[");
        w.f64(t);
        w.raw(",");
        w.f64(frac);
        w.raw("]");
    }
    w.raw("],");
    w.key("spurious_change_rate");
    w.f64(p.spurious_change_rate);
    w.raw("}");
}

/// The gate each profile's low-severity points must satisfy. Bounds sit
/// well above the clean baseline (cycle ≈ 1 s median, success ≈ 0.9 on
/// this world) but low enough that a regression in the hardened
/// consumers — dedup, plausibility rejection, typed degenerate-window
/// errors — trips them.
fn gate_for(profile: Profile) -> RobustnessGate {
    // The spurious-change bound is looser than intuition suggests: even
    // mild corruption flips harmonically ambiguous lights between cycle
    // multiples (60 ↔ 120 s), and each flip reads as a >25 s "change".
    // Observed rates at s = 0.15 sit near 0.25–0.38; the bound catches a
    // collapse, not the flips.
    let base = RobustnessGate {
        min_success_rate: 0.55,
        max_median_cycle_err_s: 8.0,
        max_median_red_bins: 3.0,
        max_spurious_change_rate: 0.40,
    };
    match profile {
        // Thinning to the slow half of the reporting mix costs samples;
        // success and red resolution degrade first.
        Profile::SparseReports => RobustnessGate {
            min_success_rate: 0.35,
            max_median_cycle_err_s: 10.0,
            max_median_red_bins: 4.0,
            ..base
        },
        // Whole-taxi dropout removes entire trajectories.
        Profile::TaxiDropout => RobustnessGate { min_success_rate: 0.45, ..base },
        // Per-taxi clock skew shifts stop events directly.
        Profile::ClockSkew => RobustnessGate {
            max_median_cycle_err_s: 10.0,
            max_median_red_bins: 4.0,
            max_spurious_change_rate: 0.50,
            ..base
        },
        _ => base,
    }
}

/// Seed of one corruption pass. Mixing the profile index and the raw
/// severity bits (not a ladder index) keeps a given `(profile,
/// severity)` point bit-identical whether it is reached from the fast or
/// the full ladder.
fn corruption_seed(profile_idx: usize, severity: f64) -> u64 {
    BASE_SEED
        ^ (profile_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ severity.to_bits().rotate_left(17)
}

/// The base-world recipe: the paper-city grid with static schedules, so
/// ground truth is single-valued in every window and all degradation is
/// attributable to the corruption layer.
fn base_spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: BASE_SEED,
        taxi_count: BASE_TAXIS,
        topology: CityTopology::Grid { dim: 6, spacing_m: 700.0 },
        schedule: ScheduleGenConfig {
            preprogrammed_fraction: 0.0,
            manual_fraction: 0.0,
            ..ScheduleGenConfig::default()
        },
        report_period_weights: None,
        start: Timestamp::civil(2014, 12, 5, 0, 0, 0),
    }
}

/// Runs the corruption sweep over `severities` (each in `[0, 1]`,
/// ascending) for every profile in [`Profile::ALL`].
pub fn run_robustness(severities: &[f64]) -> RobustnessReport {
    run_robustness_with_base(severities, &IdentifyConfig::default())
}

/// Like [`run_robustness`] but over a caller-supplied base configuration —
/// used to prove pipeline variants (e.g. the padded-FFT spectrum path)
/// hold the same corruption gates.
pub fn run_robustness_with_base(severities: &[f64], base: &IdentifyConfig) -> RobustnessReport {
    let spec = base_spec();
    let city = custom_city(&spec);
    let cfg = IdentifyConfig { window_s: WINDOW_S, ..base.clone() };
    let pre = Preprocessor::new(&city.net, cfg.clone());

    // Simulate once; every (profile, severity) point corrupts copies of
    // the same pristine record set.
    let start = spec.start.offset(9 * 3600 + 1800);
    let duration = WINDOW_S as u64 + 300;
    let (mut log, _) = city.run_from(start, duration);
    let base_records = log.records().to_vec();
    let at = start.offset(duration as i64);

    // Clean-baseline estimates anchor the spurious-change metric.
    let clean = evaluate(&base_records, &city, &pre, &cfg, at);

    let mut profiles = Vec::new();
    for (pi, profile) in Profile::ALL.into_iter().enumerate() {
        let mut points = Vec::new();
        for &severity in severities {
            let ops = profile.ops(severity);
            let records = corrupt_records(&base_records, &ops, corruption_seed(pi, severity));
            let eval = evaluate(&records, &city, &pre, &cfg, at);
            points.push(point_from(severity, &eval, &clean, at));
        }
        let gate = gate_for(profile);
        let failures = judge(&points, &gate);
        taxilight_obs::metrics::global()
            .gauge(
                "taxilight_robustness_gate_pass",
                &[("profile", profile.name())],
                taxilight_obs::metrics::MetricClass::Deterministic,
                "1 when the corruption profile passed its degradation gate",
            )
            .set(if failures.is_empty() { 1.0 } else { 0.0 });
        profiles.push(ProfileCurve {
            profile: profile.name().to_string(),
            ops: profile.ops(1.0).iter().map(|op| op.name().to_string()).collect(),
            points,
            gate,
            pass: failures.is_empty(),
            failures,
        });
    }

    RobustnessReport {
        seed: BASE_SEED,
        topology: "grid-6x700m".to_string(),
        taxis: BASE_TAXIS,
        window_s: WINDOW_S,
        severities: severities.to_vec(),
        profiles,
    }
}

/// Raw per-light outcome of one pipeline run on one record set.
struct Evaluation {
    attempts: usize,
    identified: usize,
    cycle_errs: Vec<f64>,
    red_bins: Vec<f64>,
    change_errs: Vec<f64>,
    /// Successful estimates, keyed by light id.
    est_cycles: BTreeMap<u32, f64>,
}

fn evaluate(
    records: &[taxilight_trace::TaxiRecord],
    city: &taxilight_sim::CityScenario,
    pre: &Preprocessor,
    cfg: &IdentifyConfig,
    at: Timestamp,
) -> Evaluation {
    let mut log = TraceLog::from_records(records.to_vec());
    let (parts, _) = pre.preprocess(&mut log);
    let mut eval = Evaluation {
        attempts: 0,
        identified: 0,
        cycle_errs: Vec::new(),
        red_bins: Vec::new(),
        change_errs: Vec::new(),
        est_cycles: BTreeMap::new(),
    };
    let engine = Identifier::new(&city.net, cfg.clone()).expect("robustness config is valid");
    for (light, result) in engine.run(&parts, &IdentifyRequest::all(at)).results {
        let plan = city.signals.plan(light, at);
        let truth = ScheduleTruth {
            cycle_s: plan.cycle_s as f64,
            red_s: plan.red_s as f64,
            red_start_mod_cycle_s: plan.offset_s as f64,
        };
        eval.attempts += 1;
        if let Ok(est) = result {
            let errors = compare(&est, &truth);
            let interval = mean_sample_interval(parts.observations(light));
            eval.identified += 1;
            eval.cycle_errs.push(errors.cycle_err_s);
            if interval > 0.0 {
                eval.red_bins.push(red_bin_error(errors.red_err_s, interval));
            }
            eval.change_errs.push(errors.change_err_s);
            eval.est_cycles.insert(light.0, est.cycle_s);
        }
    }
    eval
}

fn point_from(
    severity: f64,
    eval: &Evaluation,
    clean: &Evaluation,
    at: Timestamp,
) -> RobustnessPoint {
    // A monitor fed the clean estimate then the corrupted estimate, each
    // held for six monitoring intervals: a confirmed change event means
    // the corruption alone would trip a Sec.-VII schedule-change alarm.
    let mut compared = 0usize;
    let mut spurious = 0usize;
    for (light, &clean_cycle) in &clean.est_cycles {
        let Some(&corrupt_cycle) = eval.est_cycles.get(light) else {
            continue;
        };
        compared += 1;
        let mut monitor = ScheduleMonitor::new(25.0, 2);
        let mut t = at;
        for _ in 0..6 {
            monitor.push(t, Some(clean_cycle));
            t = t.offset(600);
        }
        for _ in 0..6 {
            monitor.push(t, Some(corrupt_cycle));
            t = t.offset(600);
        }
        if !monitor.changes().is_empty() {
            spurious += 1;
        }
    }
    RobustnessPoint {
        severity,
        attempts: eval.attempts,
        identified: eval.identified,
        success_rate: if eval.attempts == 0 {
            0.0
        } else {
            eval.identified as f64 / eval.attempts as f64
        },
        median_cycle_err_s: ErrorSummary::of(&eval.cycle_errs).median,
        median_red_bins: ErrorSummary::of(&eval.red_bins).median,
        median_change_err_s: ErrorSummary::of(&eval.change_errs).median,
        cycle_err_cdf: cdf_points(&eval.cycle_errs, &SECONDS_THRESHOLDS),
        spurious_change_rate: if compared == 0 { 0.0 } else { spurious as f64 / compared as f64 },
    }
}

fn judge(points: &[RobustnessPoint], gate: &RobustnessGate) -> Vec<String> {
    let mut failures = Vec::new();
    for p in points.iter().filter(|p| p.severity <= GATE_SEVERITY + 1e-12) {
        if p.success_rate < gate.min_success_rate {
            failures.push(format!(
                "s={:.2}: success rate {:.3} < {:.3}",
                p.severity, p.success_rate, gate.min_success_rate
            ));
        }
        if p.median_cycle_err_s > gate.max_median_cycle_err_s {
            failures.push(format!(
                "s={:.2}: median cycle error {:.2} s > {:.2} s",
                p.severity, p.median_cycle_err_s, gate.max_median_cycle_err_s
            ));
        }
        if p.median_red_bins > gate.max_median_red_bins {
            failures.push(format!(
                "s={:.2}: median red error {:.2} bins > {:.2} bins",
                p.severity, p.median_red_bins, gate.max_median_red_bins
            ));
        }
        if p.spurious_change_rate > gate.max_spurious_change_rate {
            failures.push(format!(
                "s={:.2}: spurious change rate {:.3} > {:.3}",
                p.severity, p.spurious_change_rate, gate.max_spurious_change_rate
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_seeds_are_distinct_and_ladder_independent() {
        let mut seen = std::collections::BTreeSet::new();
        for pi in 0..Profile::ALL.len() {
            for s in FULL_SEVERITIES {
                assert!(seen.insert(corruption_seed(pi, s)), "seed collision at ({pi}, {s})");
            }
        }
        // Same (profile, severity) → same seed regardless of which
        // ladder contains it.
        assert_eq!(corruption_seed(3, 0.15), corruption_seed(3, FAST_SEVERITIES[1]));
    }

    #[test]
    fn json_encoding_is_deterministic_and_wellformed() {
        let report = RobustnessReport {
            seed: 1,
            topology: "grid-2x100m".into(),
            taxis: 10,
            window_s: 600,
            severities: vec![0.0, 0.5],
            profiles: vec![ProfileCurve {
                profile: "gps_noise".into(),
                ops: vec!["gps_noise".into(), "heading_noise".into()],
                points: vec![RobustnessPoint {
                    severity: 0.5,
                    attempts: 4,
                    identified: 3,
                    success_rate: 0.75,
                    median_cycle_err_s: 2.0,
                    median_red_bins: 1.0,
                    median_change_err_s: 10.0,
                    cycle_err_cdf: vec![(1.0, 0.25), (5.0, 1.0)],
                    spurious_change_rate: 0.0,
                }],
                gate: gate_for(Profile::GpsNoise),
                pass: true,
                failures: vec![],
            }],
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"taxilight-robustness/1\""));
        assert!(a.contains("\"profile\":\"gps_noise\""));
        assert!(a.contains("\"severity\":0.5"));
        let balance = |open: char, close: char| {
            a.chars().filter(|&c| c == open).count() == a.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn judge_flags_only_low_severity_points() {
        let gate = RobustnessGate {
            min_success_rate: 0.5,
            max_median_cycle_err_s: 5.0,
            max_median_red_bins: 2.0,
            max_spurious_change_rate: 0.1,
        };
        let mk = |severity: f64, success: f64| RobustnessPoint {
            severity,
            attempts: 10,
            identified: (success * 10.0) as usize,
            success_rate: success,
            median_cycle_err_s: 1.0,
            median_red_bins: 0.5,
            median_change_err_s: 5.0,
            cycle_err_cdf: vec![],
            spurious_change_rate: 0.0,
        };
        // High-severity collapse is charted, not gated.
        assert!(judge(&[mk(0.0, 0.9), mk(0.15, 0.8), mk(1.0, 0.0)], &gate).is_empty());
        // The same collapse at gate severity fails.
        let failures = judge(&[mk(0.15, 0.0)], &gate);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("success rate"));
    }
}
