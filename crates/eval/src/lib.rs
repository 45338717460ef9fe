//! # taxilight-eval
//!
//! Deterministic conformance and accuracy-regression harness.
//!
//! A fixed matrix of seeded scenarios ([`scenario::matrix`], extended by
//! `--features slow-eval` / [`scenario::extended_matrix`]) sweeps the axes
//! the paper's evaluation varies — topology (grid/irregular), fleet size,
//! reporting-period mix, schedule family — and runs the full
//! `Preprocessor → Identifier → monitor` pipeline against the
//! simulator's exact ground truth. Results carry the Figs. 13–14 metrics
//! (cycle error, red error in sample-interval bins, change-point offset,
//! their CDFs) plus the Sec.-VII change-detection latency, and each
//! scenario is judged against explicit tolerance gates.
//!
//! Three entry points:
//!
//! * `cargo test -p taxilight-eval` — the conformance tier
//!   (`tests/conformance.rs`): one test per fast-matrix scenario, failing
//!   with the violated gate and the seed to replay.
//! * `cargo run --release -p taxilight-eval --bin evalsuite -- --json
//!   out.json` — the full suite as a machine-readable report (CI archives
//!   it as `BENCH_accuracy.json`).
//! * [`run_matrix`] — library API used by `taxilight-bench`.
//! * `evalsuite --robustness --json BENCH_robustness.json` — the seeded
//!   fault-injection sweep ([`robustness`]): every corruption profile ×
//!   severity ladder, gated at low severities.
//!
//! Every scenario is reproducible bit-for-bit from its `u64` seed: the
//! seed derives the street geometry, the schedules, the monitored set,
//! the demand field and the GPS noise, and the pipeline itself is
//! deterministic (seeded PRNGs, order-preserving parallelism, sorted
//! iteration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod robustness;
pub mod runner;
pub mod scenario;

pub use report::{AccuracyReport, JsonWriter, ScenarioReport};
pub use robustness::{
    run_robustness, run_robustness_with_base, ProfileCurve, RobustnessPoint, RobustnessReport,
};
pub use runner::{run_scenario, run_scenario_with_base};
pub use scenario::{extended_matrix, matrix, Gates, Scenario, ScheduleFamily};

/// Runs a list of scenarios into one report.
pub fn run_matrix(scenarios: &[Scenario]) -> AccuracyReport {
    AccuracyReport { scenarios: scenarios.iter().map(run_scenario).collect() }
}

/// Like [`run_matrix`] but with a caller-supplied base
/// [`taxilight_core::IdentifyConfig`] layered under every scenario.
pub fn run_matrix_with_base(
    scenarios: &[Scenario],
    base: &taxilight_core::IdentifyConfig,
) -> AccuracyReport {
    AccuracyReport {
        scenarios: scenarios.iter().map(|s| run_scenario_with_base(s, base)).collect(),
    }
}
