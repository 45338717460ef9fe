//! Shared workloads and evaluation harnesses for the two binaries:
//! `figures` regenerates the paper's tables and figures (plus the
//! `ablation`, `spectrum` and `kernels` studies), and `throughput` runs
//! the engine-throughput ([`throughput`]) and city-day ingestion
//! ([`cityday`]) laps. [`summary`] holds the sample statistics every
//! timed axis reports, the serving-path benchmark (`perfbench/`)
//! included.
//!
//! Everything here is deterministic in the seeds it is given, so the
//! printed tables in EXPERIMENTS.md are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cityday;
pub mod kernels;
pub mod summary;
pub mod throughput;

use taxilight_core::evaluate::{compare, ScheduleErrors, ScheduleTruth};
use taxilight_core::{Identifier, IdentifyConfig, IdentifyRequest, LightSchedule, Preprocessor};
use taxilight_roadnet::graph::LightId;
use taxilight_sim::{paper_city, CityScenario};
use taxilight_trace::time::Timestamp;

/// One light's evaluation at one instant.
#[derive(Debug, Clone)]
pub struct LightEval {
    /// Which light.
    pub light: LightId,
    /// Evaluation instant.
    pub at: Timestamp,
    /// Ground truth at that instant.
    pub truth: ScheduleTruth,
    /// The estimate when identification succeeded; `None` on failure.
    pub estimate: Option<LightSchedule>,
    /// Errors when identification succeeded; `None` on failure.
    pub errors: Option<ScheduleErrors>,
    /// Periodogram confidence (0 on failure).
    pub snr: f64,
    /// Observations in the window (0 on failure).
    pub samples: usize,
}

/// City-scale evaluation: simulate analysis windows at several instants
/// and identify every light each time (the Figs. 13–14 workload).
pub struct CityEval {
    /// The scenario evaluated.
    pub scenario: CityScenario,
    /// All per-(light, instant) outcomes.
    pub evals: Vec<LightEval>,
}

/// Runs the city evaluation. `instants` analysis instants are spread over
/// the simulated day starting 09:00.
pub fn run_city_eval(seed: u64, taxis: usize, instants: usize, cfg: &IdentifyConfig) -> CityEval {
    let scenario = paper_city(seed, taxis);
    let pre = Preprocessor::new(&scenario.net, cfg.clone());
    let engine = Identifier::new(&scenario.net, cfg.clone()).expect("eval config is valid");
    let mut evals = Vec::new();
    for k in 0..instants {
        // Stable-plan windows: 09:30 onward keeps every window clear of
        // the 07–09 h peak programmes, so ground truth is single-valued
        // inside the analysis window. (Windows straddling a programme
        // switch are the monitor's job — Fig. 12 — not Fig. 13/14's.)
        let start = Timestamp::civil(2014, 12, 5, 9, 30, 0).offset((k as i64) * 4271);
        let window = cfg.window_s as u64 + 300;
        let (mut log, _) = scenario.run_from(start, window);
        let (parts, _) = pre.preprocess(&mut log);
        let at = start.offset(window as i64);
        for (light, result) in engine.run(&parts, &IdentifyRequest::all(at)).results {
            let plan = scenario.signals.plan(light, at);
            let truth = ScheduleTruth {
                cycle_s: plan.cycle_s as f64,
                red_s: plan.red_s as f64,
                red_start_mod_cycle_s: plan.offset_s as f64,
            };
            let (estimate, errors, snr, samples) = match result {
                Ok(est) => (Some(est), Some(compare(&est, &truth)), est.snr, est.samples),
                Err(_) => (None, None, 0.0, 0),
            };
            evals.push(LightEval { light, at, truth, estimate, errors, snr, samples });
        }
    }
    CityEval { scenario, evals }
}

impl CityEval {
    /// Successful identifications.
    pub fn ok(&self) -> impl Iterator<Item = (&LightEval, &ScheduleErrors)> {
        self.evals.iter().filter_map(|e| e.errors.as_ref().map(|err| (e, err)))
    }

    /// Fraction of attempts that produced an estimate.
    pub fn success_rate(&self) -> f64 {
        if self.evals.is_empty() {
            return 0.0;
        }
        self.ok().count() as f64 / self.evals.len() as f64
    }

    /// Error vectors `(cycle, red, change)` over successful attempts.
    pub fn error_vectors(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut cycle = Vec::new();
        let mut red = Vec::new();
        let mut change = Vec::new();
        for (_, err) in self.ok() {
            cycle.push(err.cycle_err_s);
            red.push(err.red_err_s);
            change.push(err.change_err_s);
        }
        (cycle, red, change)
    }
}

/// Formats a CDF row: fraction of `errs` at or below each threshold.
pub fn cdf_row(name: &str, errs: &[f64], thresholds: &[f64]) -> String {
    use taxilight_signal::histogram::Ecdf;
    let ecdf = Ecdf::new(errs);
    let mut out = format!("{name:<16}");
    for &t in thresholds {
        out.push_str(&format!(" ≤{t:>3.0}s:{:>6.1}%", 100.0 * ecdf.fraction_at_or_below(t)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_eval_produces_outcomes() {
        let cfg = IdentifyConfig::default();
        let eval = run_city_eval(3, 60, 1, &cfg);
        assert!(!eval.evals.is_empty());
        assert!(eval.success_rate() > 0.0);
        let (cycle, red, change) = eval.error_vectors();
        assert_eq!(cycle.len(), red.len());
        assert_eq!(red.len(), change.len());
        assert_eq!(cycle.len(), eval.ok().count());
    }

    #[test]
    fn cdf_row_formats() {
        let row = cdf_row("cycle", &[1.0, 3.0, 100.0], &[2.0, 10.0]);
        assert!(row.contains("cycle"));
        assert!(row.contains("33.3%"));
        assert!(row.contains("66.7%"));
    }
}
