//! The full per-light identification pipeline and the city-scale parallel
//! driver (paper Fig. 4).
//!
//! For one light at evaluation instant `at`, the pipeline analyses the
//! window `[at − window, at)`:
//!
//! 1. cycle length via frequency analysis, falling back to the
//!    intersection-based enhancement when the approach's data is sparse;
//! 2. red duration via longest-stop statistics;
//! 3. signal change via superposition + sliding-window minimum, with the
//!    fold anchored at the window start so cycle-quantisation error cannot
//!    scramble the phase.
//!
//! After partitioning, lights are independent — the parallelism the paper
//! points out in Sec. IV. The sharded fan-out lives in [`crate::engine`];
//! this module holds the per-light stages the engine drives. The 0.2-era
//! deprecated free functions were removed in 0.3 — see `docs/api.md`.

use std::sync::OnceLock;
use std::time::Instant;

use taxilight_obs::metrics::{self, Counter, MetricClass};
use taxilight_obs::{event, span};

use crate::change_point::ChangePointError;
use crate::config::{ConfigError, IdentifyConfig};
use crate::cycle::CycleError;
use crate::preprocess::{LightObs, PartitionedTraces};
use crate::red::{extract_stops, red_duration, RedError};
use crate::workspace::IdentifyWorkspace;
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_trace::geo::heading_difference;
use taxilight_trace::time::Timestamp;

/// Registry name of the kernel-time counter: nanoseconds spent inside
/// `taxilight-signal` kernels (spectrum, resample grid evaluation),
/// labelled with the butterfly's instruction path. A subset of the
/// stage wall-clock counters — lets traces and snapshots separate
/// vectorized-kernel time from surrounding orchestration.
pub const STAGE_KERNEL_NANOS_METRIC: &str = "taxilight_stage_kernel_ns_total";

/// Drains kernel nanoseconds accumulated by the signal workspace since the
/// last drain into the stage timings and the process-wide counter. Called
/// after each timed stage so `kernel_ns` stays a subset of the stage
/// totals. The counter handle is registered once (registration locks the
/// registry); updates are a single relaxed atomic add — hot-path safe.
fn drain_kernel_time(ws: &mut IdentifyWorkspace) {
    let ns = ws.signal.take_kernel_nanos();
    if ns == 0 {
        return;
    }
    ws.timings.add_kernel_ns(ns);
    static KERNEL_COUNTER: OnceLock<Counter> = OnceLock::new();
    KERNEL_COUNTER
        .get_or_init(|| {
            // Volatile: wall-clock time, never byte-reproducible.
            metrics::global().counter(
                STAGE_KERNEL_NANOS_METRIC,
                &[("path", taxilight_signal::kernels::active_path_name())],
                MetricClass::Volatile,
                "Nanoseconds spent inside taxilight-signal kernels",
            )
        })
        .add(ns);
}

/// The identified schedule of one light — the paper's Fig. 3 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightSchedule {
    /// Which light.
    pub light: LightId,
    /// Cycle length, seconds.
    pub cycle_s: f64,
    /// Red duration, seconds (yellow folded into red).
    pub red_s: f64,
    /// Green duration: `cycle_s − red_s`.
    pub green_s: f64,
    /// An absolute time (seconds since the epoch, near the analysis
    /// window) at which a red phase starts; red onsets repeat every
    /// `cycle_s`.
    pub red_start_s: f64,
    /// Periodogram confidence of the cycle estimate.
    pub snr: f64,
    /// Observations that entered the analysis.
    pub samples: usize,
}

impl LightSchedule {
    /// Red-onset phase within the cycle, `[0, cycle_s)`.
    pub fn red_start_mod_cycle(&self) -> f64 {
        self.red_start_s.rem_euclid(self.cycle_s)
    }

    /// True when an absolute time falls in the red phase of this estimate.
    ///
    /// Defined as `wait_for_green(t) > 0` so the two can never disagree:
    /// a `t` landing exactly on the red→green change instant is green
    /// (zero wait, not red), and exactly on the green→red instant is red.
    pub fn is_red_at(&self, t: Timestamp) -> bool {
        self.wait_for_green(t) > 0.0
    }

    /// Seconds from `t` until the estimated next green; 0 when green.
    ///
    /// Phase boundaries: the red interval is half-open, `[red_start,
    /// red_start + red_s)` modulo the cycle. At `t` exactly on the
    /// red→green change instant the light has already turned, so the wait
    /// is 0; at `t` exactly on the red onset the full red remains.
    pub fn wait_for_green(&self, t: Timestamp) -> f64 {
        let pos = (t.0 as f64 - self.red_start_s).rem_euclid(self.cycle_s);
        if pos < self.red_s {
            self.red_s - pos
        } else {
            0.0
        }
    }
}

/// Why identification failed for a light — the one error type every stage
/// funnels into ([`CycleError`], [`RedError`], [`ChangePointError`] and
/// [`ConfigError`] all convert via `From`).
#[derive(Debug, Clone, PartialEq)]
pub enum IdentifyError {
    /// No observations in the analysis window.
    NoData,
    /// The configuration itself was degenerate.
    Config(ConfigError),
    /// Cycle-length identification failed (even with enhancement).
    Cycle(CycleError),
    /// Red-duration identification failed.
    Red(RedError),
    /// Change-point identification failed.
    ChangePoint(ChangePointError),
}

impl std::fmt::Display for IdentifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdentifyError::NoData => write!(f, "no observations in window"),
            IdentifyError::Config(e) => write!(f, "config: {e}"),
            IdentifyError::Cycle(e) => write!(f, "cycle: {e}"),
            IdentifyError::Red(e) => write!(f, "red duration: {e}"),
            IdentifyError::ChangePoint(e) => write!(f, "change point: {e}"),
        }
    }
}

impl std::error::Error for IdentifyError {}

impl From<ConfigError> for IdentifyError {
    fn from(e: ConfigError) -> Self {
        IdentifyError::Config(e)
    }
}

impl From<CycleError> for IdentifyError {
    fn from(e: CycleError) -> Self {
        IdentifyError::Cycle(e)
    }
}

impl From<RedError> for IdentifyError {
    fn from(e: RedError) -> Self {
        IdentifyError::Red(e)
    }
}

impl From<ChangePointError> for IdentifyError {
    fn from(e: ChangePointError) -> Self {
        IdentifyError::ChangePoint(e)
    }
}

/// Typical consecutive-update interval of the window's observations,
/// falling back to the paper's fleet-wide 20.14 s when no usable pairs
/// exist.
///
/// A taxi that leaves the approach and returns twenty minutes later also
/// produces a "consecutive" pair, so deltas are capped at a few report
/// periods and summarised by the median — the quantity that matters is the
/// device reporting period, not the revisit pattern.
pub fn mean_sample_interval(obs: &[LightObs]) -> f64 {
    use std::collections::HashMap;
    let mut last: HashMap<u32, Timestamp> = HashMap::new();
    let mut deltas: Vec<f64> = Vec::new();
    for o in obs {
        if let Some(prev) = last.insert(o.taxi.0, o.time) {
            let d = o.time.delta(prev);
            if d > 0 && d <= 180 {
                deltas.push(d as f64);
            }
        }
    }
    taxilight_signal::stats::median(&deltas).unwrap_or(20.14)
}

/// Pools the whole intersection's observations for the enhancement path:
/// same-axis approaches (which share this light's phase plan) pool
/// directly with the primary; perpendicular approaches form the
/// to-be-mirrored pool of the paper's Eq. (3). Returns `(primary,
/// perpendicular)` as `(seconds since t0, speed)` samples.
/// `(t, speed)` sample series.
type Samples = Vec<(f64, f64)>;

#[allow(clippy::too_many_arguments)]
fn intersection_pools_into(
    parts: &PartitionedTraces,
    net: &RoadNetwork,
    light: LightId,
    t0: Timestamp,
    t1: Timestamp,
    influence_radius_m: f64,
    primary: &mut Samples,
    perpendicular: &mut Samples,
) {
    primary.clear();
    perpendicular.clear();
    let Some(this) = net.light(light) else {
        return;
    };
    let intersection = net.intersection(this.intersection);
    for l in &intersection.lights {
        let d = heading_difference(l.heading_deg, this.heading_deg);
        let pool = if (45.0..=135.0).contains(&d) { &mut *perpendicular } else { &mut *primary };
        pool.extend(
            parts
                .window(l.id, t0, t1)
                .iter()
                .filter(|o| o.dist_to_stop_m <= influence_radius_m)
                .map(|o| (o.time.delta(t0) as f64, o.speed_kmh)),
        );
    }
}

/// Identifies the schedule of one light at evaluation instant `at`,
/// analysing the window `[at − cfg.window_s, at)` — shared by the engine
/// and the consensus pass. The workspace supplies every scratch buffer and
/// the FFT plan cache — one per worker thread, reused across lights.
///
/// The 0.2-era free-function entry points (`identify_light`,
/// `identify_light_with_cycle`, `identify_all`) were removed in 0.3 per
/// their published deprecation schedule; use [`crate::engine::Identifier`].
pub(crate) fn identify_light_impl(
    parts: &PartitionedTraces,
    net: &RoadNetwork,
    light: LightId,
    at: Timestamp,
    cfg: &IdentifyConfig,
    ws: &mut IdentifyWorkspace,
) -> Result<LightSchedule, IdentifyError> {
    let t0 = at.offset(-(cfg.window_s as i64));
    let obs = parts.window(light, t0, at);
    if obs.is_empty() {
        return Err(IdentifyError::NoData);
    }
    let _light_span = span!("light.identify", light = light.0, obs = obs.len());
    let plan_before = ws.plan_stats();

    // Stage 1: cycle length, enhanced when sparse. `ws.speed` doubles as
    // the in-radius sample series and its length as the sparsity count.
    let stage_start = Instant::now();
    let stage_span = span!("stage.cycle", light = light.0);
    ws.speed.clear();
    ws.speed.extend(
        obs.iter()
            .filter(|o| o.dist_to_stop_m <= cfg.influence_radius_m)
            .map(|o| (o.time.delta(t0) as f64, o.speed_kmh)),
    );
    let near = ws.speed.len();
    let window_len = at.delta(t0) as usize;
    let solo = {
        let speed = std::mem::take(&mut ws.speed);
        let r = ws.cycle_from_samples(&speed, window_len, cfg);
        ws.speed = speed;
        r
    };
    let cycle_est = if near < cfg.enhance_below_samples || solo.is_err() {
        let _enhance_span = span!("stage.enhance", light = light.0, near = near);
        intersection_pools_into(
            parts,
            net,
            light,
            t0,
            at,
            cfg.influence_radius_m,
            &mut ws.pool_primary,
            &mut ws.pool_perpendicular,
        );
        ws.mirror_enhance_pools();
        // Prefer the pooled estimate — four approaches' worth of data —
        // and fall back to the solo result when pooling fails outright.
        let merged = std::mem::take(&mut ws.enhanced);
        let pooled = ws.cycle_from_samples(&merged, window_len, cfg);
        ws.enhanced = merged;
        pooled.or(solo)
    } else {
        solo
    };
    drop(stage_span);
    ws.timings.add_cycle(stage_start.elapsed());
    drain_kernel_time(ws);
    let cycle_est = cycle_est.map_err(IdentifyError::Cycle)?;
    let result = finish_identification(light, obs, t0, cycle_est.cycle_s, cycle_est.snr, cfg, ws);
    event!(
        "light.done",
        light = light.0,
        ok = result.is_ok(),
        cycle_s = cycle_est.cycle_s,
        snr = cycle_est.snr,
        plan_hits = ws.plan_stats().hits() - plan_before.hits(),
        plan_misses = ws.plan_stats().misses() - plan_before.misses()
    );
    result
}

/// Identifies a light's red duration and change point with the cycle
/// length *given* — used when the cycle is known from elsewhere (the
/// intersection consensus, or an external source such as a monitoring
/// history).
pub(crate) fn identify_light_with_cycle_impl(
    parts: &PartitionedTraces,
    light: LightId,
    at: Timestamp,
    cfg: &IdentifyConfig,
    cycle_s: f64,
    ws: &mut IdentifyWorkspace,
) -> Result<LightSchedule, IdentifyError> {
    let t0 = at.offset(-(cfg.window_s as i64));
    let obs = parts.window(light, t0, at);
    if obs.is_empty() {
        return Err(IdentifyError::NoData);
    }
    finish_identification(light, obs, t0, cycle_s, 0.0, cfg, ws)
}

/// Stages 2–3 shared by [`identify_light_impl`] and
/// [`identify_light_with_cycle_impl`].
fn finish_identification(
    light: LightId,
    obs: &[LightObs],
    t0: Timestamp,
    cycle_s: f64,
    snr: f64,
    cfg: &IdentifyConfig,
    ws: &mut IdentifyWorkspace,
) -> Result<LightSchedule, IdentifyError> {
    // Stage 2: red duration from stop statistics. Waits in deep queues can
    // exceed the red itself (discharge delay), so the estimate is clamped
    // strictly inside the cycle.
    let stage_start = Instant::now();
    let stage_span = span!("stage.red", light = light.0);
    ws.stops.clear();
    ws.stops.extend(
        extract_stops(obs, cfg.stationary_threshold_m)
            .into_iter()
            // "The longest stop duration *before a red light*": only stops
            // in the queueing zone count; curbside idles further up the
            // approach are exactly the error class the paper filters out.
            .filter(|s| s.dist_to_stop_m <= cfg.influence_radius_m),
    );
    let interval = mean_sample_interval(obs);
    let red_result = red_duration(&ws.stops, cycle_s, interval);
    drop(stage_span);
    ws.timings.add_red(stage_start.elapsed());
    let red_est = red_result.map_err(IdentifyError::Red)?;
    let red_s = red_est.red_s.min(cycle_s - 1.0).max(1.0);

    // Stage 3: change point. Primary: the queue-dissolution estimator —
    // every stop ends when the light turns green, so the per-stop
    // green-onset estimates cluster sharply at the change (an extension of
    // the paper's sliding-window minimum; ablated in EXPERIMENTS.md).
    // Fallback: the paper's superposition + sliding-window minimum, fold
    // anchored at the window start.
    let stage_start = Instant::now();
    let stage_span = span!("stage.change", light = light.0);
    ws.onsets.clear();
    ws.onsets.extend(
        ws.stops
            .iter()
            .filter(|s| !s.passenger_changed && s.duration_s <= cycle_s)
            .map(|s| s.green_onset_estimate_s() - t0.0 as f64),
    );
    ws.speed.clear();
    ws.speed.extend(
        obs.iter()
            .filter(|o| o.dist_to_stop_m <= cfg.influence_radius_m)
            .map(|o| (o.time.delta(t0) as f64, o.speed_kmh)),
    );
    // Two independent red-onset estimates are fused:
    //  (a) the paper's sliding-window minimum over the superposed cycle
    //      (edge-refined) — tight but biased late by queue formation;
    //  (b) the stop-dissolution estimate: the circular mode of the
    //      per-stop green-onset estimates minus the red duration —
    //      unbiased but inheriting the red-duration spread.
    // Their circular average halves both defects. With too few stops for
    // (b), (a) stands alone.
    let window_result = {
        let speed = std::mem::take(&mut ws.speed);
        let r = ws.change_point(&speed, cycle_s, red_s);
        ws.speed = speed;
        r
    };
    let window_onset = match window_result {
        Ok(est) => est.red_start_s,
        Err(e) => {
            drop(stage_span);
            ws.timings.add_change(stage_start.elapsed());
            drain_kernel_time(ws);
            return Err(IdentifyError::ChangePoint(e));
        }
    };
    let green_onset = {
        let onsets = std::mem::take(&mut ws.onsets);
        let r = ws.green_onset_from_stops(&onsets, cycle_s, 8);
        ws.onsets = onsets;
        r
    };
    let red_start_rel = match green_onset {
        Some(green) => {
            let stop_onset = (green - red_s).rem_euclid(cycle_s);
            let mut delta = (stop_onset - window_onset).rem_euclid(cycle_s);
            if delta >= cycle_s / 2.0 {
                delta -= cycle_s;
            }
            (window_onset + delta / 2.0).rem_euclid(cycle_s)
        }
        None => window_onset,
    };
    drop(stage_span);
    ws.timings.add_change(stage_start.elapsed());
    drain_kernel_time(ws);

    Ok(LightSchedule {
        light,
        cycle_s,
        red_s,
        green_s: cycle_s - red_s,
        red_start_s: t0.0 as f64 + red_start_rel,
        snr,
        samples: obs.len(),
    })
}

/// Sequential, consensus-free sweep over every light with data — the
/// reference the engine-equivalence tests compare the sharded engine to.
pub(crate) fn identify_all_seq(
    parts: &PartitionedTraces,
    net: &RoadNetwork,
    at: Timestamp,
    cfg: &IdentifyConfig,
) -> Vec<(LightId, Result<LightSchedule, IdentifyError>)> {
    let mut ws = IdentifyWorkspace::new();
    parts
        .lights_with_data()
        .into_iter()
        .map(|light| (light, identify_light_impl(parts, net, light, at, cfg, &mut ws)))
        .collect()
}

/// The consensus pass: every light at one crossroad shares the cycle
/// length (paper Sec. V-B — the very fact the enhancement builds on), so
/// when the majority of an intersection's approaches agree and one
/// deviates, the deviator is re-identified with the period band pinned to
/// the consensus neighbourhood.
pub(crate) fn reconcile_intersections(
    results: &mut [(LightId, Result<LightSchedule, IdentifyError>)],
    parts: &PartitionedTraces,
    net: &RoadNetwork,
    at: Timestamp,
    cfg: &IdentifyConfig,
    ws: &mut IdentifyWorkspace,
) {
    use std::collections::HashMap;
    let mut index: HashMap<u32, usize> = HashMap::new();
    for (k, (light, _)) in results.iter().enumerate() {
        index.insert(light.0, k);
    }

    for intersection in net.intersections() {
        // Collect this intersection's successful cycle estimates.
        let mut cycles: Vec<f64> = intersection
            .lights
            .iter()
            .filter_map(|l| index.get(&l.id.0))
            .filter_map(|&k| results[k].1.as_ref().ok().map(|e| e.cycle_s))
            .collect();
        if cycles.len() < 2 {
            continue;
        }
        cycles.sort_by(f64::total_cmp);
        let consensus = cycles[(cycles.len() - 1) / 2];
        // Require an actual majority agreeing within 10 % of the median.
        let agreeing = cycles.iter().filter(|&&c| (c - consensus).abs() <= 0.1 * consensus).count();
        if agreeing * 2 <= cycles.len() {
            continue;
        }
        let pinned_band = taxilight_signal::periodogram::PeriodBand::new(
            (consensus * 0.9).max(5.0),
            consensus * 1.1 + 1.0,
        );
        for l in &intersection.lights {
            let Some(&k) = index.get(&l.id.0) else { continue };
            let deviates = match &results[k].1 {
                Ok(e) => (e.cycle_s - consensus).abs() > 0.1 * consensus,
                Err(_) => true,
            };
            if !deviates {
                continue;
            }
            let pinned_cfg = IdentifyConfig { band: pinned_band, ..cfg.clone() };
            let redone = identify_light_impl(parts, net, l.id, at, &pinned_cfg, ws)
                // The shared-cycle fact is as solid as facts get at a
                // crossroad; when even the pinned band cannot re-identify
                // this approach, adopt the consensus cycle and derive red
                // and phase from it.
                .or_else(|_| identify_light_with_cycle_impl(parts, l.id, at, cfg, consensus, ws));
            if redone.is_ok() {
                results[k].1 = redone;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Identifier, IdentifyRequest};
    use crate::evaluate::{compare, ScheduleTruth};
    use crate::preprocess::Preprocessor;
    use taxilight_roadnet::generators::{grid_city, GridConfig};
    use taxilight_sim::lights::{IntersectionPlan, PhasePlan, SignalMap};
    use taxilight_sim::sim::{SimConfig, Simulator};

    /// End-to-end fixture: simulate a small signalized city, preprocess,
    /// and return everything needed to identify lights.
    pub(crate) fn simulated_world(
        plan: PhasePlan,
        taxis: usize,
        duration_s: u64,
    ) -> (taxilight_roadnet::generators::GeneratedCity, SignalMap, PartitionedTraces, Timestamp)
    {
        let city =
            grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
        let mut signals = SignalMap::new();
        for &ix in &city.intersections {
            signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
        }
        let start = Timestamp::civil(2014, 12, 5, 14, 0, 0);
        let cfg = SimConfig {
            taxi_count: taxis,
            start,
            seed: 42,
            street_hail_prob_per_s: 2.0e-4,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&city.net, &signals, cfg);
        sim.run(duration_s);
        let (mut log, _) = sim.into_log();
        let pre = Preprocessor::new(&city.net, IdentifyConfig::default());
        let (parts, _) = pre.preprocess(&mut log);
        (city, signals, parts, start.offset(duration_s as i64))
    }

    #[test]
    fn end_to_end_identifies_simulated_light() {
        let plan = PhasePlan::new(100, 45, 10);
        let (city, signals, parts, at) = simulated_world(plan, 120, 3600);
        let engine = Identifier::with_defaults(&city.net);
        let results = engine.run(&parts, &IdentifyRequest::all(at)).results;
        assert!(!results.is_empty());

        let mut ok = 0;
        let mut cycle_hits = 0;
        for (light, result) in &results {
            let Ok(est) = result else { continue };
            ok += 1;
            let truth_plan = signals.plan(*light, at);
            let truth = ScheduleTruth {
                cycle_s: truth_plan.cycle_s as f64,
                red_s: truth_plan.red_s as f64,
                red_start_mod_cycle_s: truth_plan.offset_s as f64,
            };
            let errors = compare(est, &truth);
            if errors.cycle_err_s < 8.0 {
                cycle_hits += 1;
            }
        }
        assert!(ok >= 2, "at least a couple of lights should be identifiable, got {ok}");
        assert!(
            cycle_hits * 2 >= ok,
            "at least half the identified cycles should be near 100 s ({cycle_hits}/{ok})"
        );
    }

    #[test]
    fn end_to_end_red_and_change_within_band() {
        // Fig. 14's framing is statistical: the estimator is "either very
        // accurate, or has notable errors", so we require the *median*
        // confident light to be accurate rather than every light.
        let plan = PhasePlan::new(90, 40, 25);
        let (city, signals, parts, at) = simulated_world(plan, 150, 5400);
        let engine = Identifier::with_defaults(&city.net);
        let results = engine.run(&parts, &IdentifyRequest::all(at)).results;

        let mut cycle_errs = Vec::new();
        let mut red_errs = Vec::new();
        let mut change_errs = Vec::new();
        for (light, result) in &results {
            let Ok(est) = result else { continue };
            if est.snr < 2.0 {
                continue;
            }
            let truth_plan = signals.plan(*light, at);
            let truth = ScheduleTruth {
                cycle_s: truth_plan.cycle_s as f64,
                red_s: truth_plan.red_s as f64,
                red_start_mod_cycle_s: truth_plan.offset_s as f64,
            };
            let errors = compare(est, &truth);
            cycle_errs.push(errors.cycle_err_s);
            red_errs.push(errors.red_err_s);
            change_errs.push(errors.change_err_s);
        }
        assert!(cycle_errs.len() >= 3, "need several confident lights, got {}", cycle_errs.len());
        // Lower median: with only a handful of lights and the estimator's
        // bimodal error profile (near-exact or grossly wrong), the lower
        // median asks "are at least half the confident lights accurate".
        let median = |xs: &mut Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[(xs.len() - 1) / 2]
        };
        assert!(median(&mut cycle_errs) < 8.0, "median cycle err {cycle_errs:?}");
        assert!(median(&mut red_errs) < 25.0, "median red err {red_errs:?}");
        assert!(median(&mut change_errs) < 30.0, "median change err {change_errs:?}");
    }

    #[test]
    fn no_data_light_reports_no_data() {
        let plan = PhasePlan::new(100, 45, 0);
        let (city, _signals, parts, at) = simulated_world(plan, 5, 300);
        // A light id beyond any data.
        let empty_light =
            city.net.lights().iter().map(|l| l.id).find(|l| parts.observations(*l).is_empty());
        if let Some(light) = empty_light {
            let engine = Identifier::with_defaults(&city.net);
            let err =
                engine.run(&parts, &IdentifyRequest::one(at, light)).into_single().unwrap_err();
            assert_eq!(err, IdentifyError::NoData);
        }
    }

    #[test]
    fn schedule_convenience_methods() {
        let est = LightSchedule {
            light: LightId(0),
            cycle_s: 100.0,
            red_s: 40.0,
            green_s: 60.0,
            red_start_s: 1000.0,
            snr: 3.0,
            samples: 50,
        };
        assert_eq!(est.red_start_mod_cycle(), 0.0);
        assert!(est.is_red_at(Timestamp(1000)));
        assert!(est.is_red_at(Timestamp(1039)));
        assert!(!est.is_red_at(Timestamp(1040)));
        assert!(est.is_red_at(Timestamp(1100)));
        assert_eq!(est.wait_for_green(Timestamp(1000)), 40.0);
        assert_eq!(est.wait_for_green(Timestamp(1030)), 10.0);
        assert_eq!(est.wait_for_green(Timestamp(1050)), 0.0);
    }

    #[test]
    fn wait_for_green_boundary_instants() {
        let est = LightSchedule {
            light: LightId(0),
            cycle_s: 100.0,
            red_s: 40.0,
            green_s: 60.0,
            red_start_s: 1000.0,
            snr: 3.0,
            samples: 50,
        };
        // Exactly on the red→green change instant: already green.
        assert_eq!(est.wait_for_green(Timestamp(1040)), 0.0);
        assert!(!est.is_red_at(Timestamp(1040)));
        // One cycle later, same boundary.
        assert_eq!(est.wait_for_green(Timestamp(1140)), 0.0);
        assert!(!est.is_red_at(Timestamp(1140)));
        // Exactly on the red onset: the full red remains.
        assert_eq!(est.wait_for_green(Timestamp(1100)), 40.0);
        assert!(est.is_red_at(Timestamp(1100)));
        // is_red_at and wait_for_green agree everywhere by construction.
        for t in 900..1300 {
            assert_eq!(est.is_red_at(Timestamp(t)), est.wait_for_green(Timestamp(t)) > 0.0);
        }
        // A fractional red onset keeps the half-open convention: the
        // change instant at 1010.5 + 40 = 1050.5 means t = 1050 is still
        // red with half a second to wait, t = 1051 is green.
        let frac = LightSchedule { red_start_s: 1010.5, ..est };
        assert!(frac.is_red_at(Timestamp(1050)));
        assert!((frac.wait_for_green(Timestamp(1050)) - 0.5).abs() < 1e-9);
        assert!(!frac.is_red_at(Timestamp(1051)));
    }

    #[test]
    fn mean_interval_computation() {
        use crate::cycle::testutil::planted_obs;
        let obs = planted_obs(100, 40, 0, 1000, 20.0, 3);
        let m = mean_sample_interval(&obs);
        // planted_obs cycles taxi ids mod 40, so same-taxi gaps ≈ 40 × mean
        // gap; we mostly validate it is positive and finite here.
        assert!(m > 0.0 && m.is_finite());
        assert_eq!(mean_sample_interval(&[]), 20.14);
    }

    #[test]
    fn error_display() {
        assert!(IdentifyError::NoData.to_string().contains("no observations"));
        let e = IdentifyError::Cycle(CycleError::NoPeriodicity);
        assert!(e.to_string().contains("cycle"));
    }
}
