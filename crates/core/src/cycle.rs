//! Cycle-length identification (paper Sec. V).
//!
//! The speed of traffic near an intersection is a periodic signal with the
//! traffic light's frequency. The identifier (V-A):
//!
//! 1. collects the window's speed samples near the stop line, merging
//!    same-second reports by their mean;
//! 2. spline-interpolates them onto a 1 Hz grid (negative interpolated
//!    speeds are tolerated — only the periodicity matters);
//! 3. runs the Eq. (1) DFT and picks the strongest admissible bin;
//! 4. converts bin → cycle length via Eq. (2): `l = N / argmax|x_n|`.

use crate::config::{CycleMethod, IdentifyConfig};
use crate::preprocess::LightObs;
use crate::workspace::IdentifyWorkspace;
use std::time::Instant;
use taxilight_obs::{span, Field, FieldValue};
use taxilight_signal::interpolate::InterpolateError;
use taxilight_signal::periodogram::PeriodEstimate;
use taxilight_trace::time::Timestamp;

/// A cycle-length estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEstimate {
    /// Estimated cycle length, seconds.
    pub cycle_s: f64,
    /// Winning DFT bin.
    pub bin: usize,
    /// Peak-to-median magnitude ratio in the searched band.
    pub snr: f64,
    /// Number of raw speed samples that entered the analysis.
    pub samples_used: usize,
}

/// Why cycle identification failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CycleError {
    /// Fewer than `need` samples in the window.
    TooFewSamples {
        /// Samples available.
        have: usize,
        /// Samples required ([`IdentifyConfig::min_samples`]).
        need: usize,
    },
    /// The periodogram found no admissible peak, or its SNR was below
    /// [`IdentifyConfig::min_snr`].
    NoPeriodicity,
    /// Interpolation failed (e.g. all samples coincide).
    Interpolation(InterpolateError),
    /// The analysis window itself was degenerate (zero length).
    DegenerateWindow {
        /// Grid length requested, seconds.
        window_len_s: usize,
    },
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleError::TooFewSamples { have, need } => {
                write!(f, "TooFewSamples: {have} speed samples in window, need {need}")
            }
            CycleError::NoPeriodicity => write!(f, "NoPeriodicity: no confident in-band peak"),
            CycleError::Interpolation(e) => write!(f, "Interpolation: {e}"),
            CycleError::DegenerateWindow { window_len_s } => {
                write!(f, "DegenerateWindow: {window_len_s} s analysis window")
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// Extracts `(seconds since t0, speed km/h)` samples from observations,
/// keeping only fixes within `influence_radius_m` of the stop line.
pub fn speed_samples(obs: &[LightObs], t0: Timestamp, influence_radius_m: f64) -> Vec<(f64, f64)> {
    obs.iter()
        .filter(|o| o.dist_to_stop_m <= influence_radius_m)
        .map(|o| (o.time.delta(t0) as f64, o.speed_kmh))
        .collect()
}

/// Identifies the cycle length from the observations of one light in the
/// window `[t0, t1)`.
pub fn identify_cycle(
    obs: &[LightObs],
    t0: Timestamp,
    t1: Timestamp,
    cfg: &IdentifyConfig,
) -> Result<CycleEstimate, CycleError> {
    let samples = speed_samples(obs, t0, cfg.influence_radius_m);
    identify_cycle_from_samples(&samples, t1.delta(t0) as usize, cfg)
}

/// Core of [`identify_cycle`], reusable by the enhancement path: samples
/// are `(seconds since window start, speed)`, `window_len_s` the grid
/// length. A wrapper over [`IdentifyWorkspace::cycle_from_samples`] with a
/// fresh workspace.
pub fn identify_cycle_from_samples(
    samples: &[(f64, f64)],
    window_len_s: usize,
    cfg: &IdentifyConfig,
) -> Result<CycleEstimate, CycleError> {
    IdentifyWorkspace::new().cycle_from_samples(samples, window_len_s, cfg)
}

/// A fold-validation candidate: its locally refined `period` (seconds)
/// and fold contrast `score` there, plus the DFT `bin` and `snr` it came
/// from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    period: f64,
    score: f64,
    bin: usize,
    snr: f64,
}

impl IdentifyWorkspace {
    /// [`identify_cycle_from_samples`] with every buffer and FFT plan kept
    /// in the workspace: zero steady-state heap allocations once the
    /// buffers and plans for a signal shape exist.
    pub fn cycle_from_samples(
        &mut self,
        samples: &[(f64, f64)],
        window_len_s: usize,
        cfg: &IdentifyConfig,
    ) -> Result<CycleEstimate, CycleError> {
        if window_len_s == 0 {
            return Err(CycleError::DegenerateWindow { window_len_s });
        }
        // Non-finite samples come from corrupted feeds bypassing the
        // preprocessor; they must surface as a typed failure, never as NaN
        // poisoning the spectrum.
        self.finite.clear();
        self.finite
            .extend(samples.iter().copied().filter(|&(t, v)| t.is_finite() && v.is_finite()));
        if self.finite.len() < cfg.min_samples {
            return Err(CycleError::TooFewSamples {
                have: self.finite.len(),
                need: cfg.min_samples,
            });
        }
        let resample_start = Instant::now();
        let resampled = self.signal.resample_into(
            &self.finite,
            0.0,
            1.0,
            window_len_s,
            cfg.interpolation,
            &mut self.grid,
        );
        self.timings.add_resample(resample_start.elapsed());
        resampled.map_err(CycleError::Interpolation)?;
        // A light leaves km/h-scale modulation; anything below this is flat
        // traffic (or pure numerical ripple) and the periodogram would only
        // amplify noise.
        if taxilight_signal::stats::stddev(&self.grid).unwrap_or(0.0) < 0.5 {
            return Err(CycleError::NoPeriodicity);
        }
        // One spectrum yields both the argmax estimate and, for fold
        // validation, the strongest DFT bins.
        let fold_validate = cfg.cycle_method == CycleMethod::Dft && cfg.fold_validate;
        let spectrum_start = Instant::now();
        let est = match cfg.cycle_method {
            CycleMethod::Dft => self.signal.period_search(
                &self.grid,
                1.0,
                cfg.band,
                cfg.refine_peak,
                cfg.spectrum,
                if fold_validate { cfg.fold_candidates } else { 0 },
                &mut self.candidates,
            ),
            CycleMethod::Autocorrelation => {
                taxilight_signal::autocorr::dominant_period_autocorr(&self.grid, 1.0, cfg.band)
            }
        };
        self.timings.add_spectrum(spectrum_start.elapsed());
        let est = est.ok_or(CycleError::NoPeriodicity)?;
        if est.snr < cfg.min_snr {
            return Err(CycleError::NoPeriodicity);
        }
        // The autocorrelation peak is already a time-domain statistic; it
        // bypasses the DFT-candidate fold validation below.
        if !fold_validate {
            return Ok(CycleEstimate {
                cycle_s: est.period,
                bin: est.bin,
                snr: est.snr,
                samples_used: self.finite.len(),
            });
        }

        // Fold validation: re-rank the strongest DFT bins (and their half,
        // third and quarter periods, so a sub-harmonic winner still exposes
        // its fundamental) by epoch-folding contrast on the *raw* samples.
        // Subdivisions are pushed candidate-major, divisor-minor, after all
        // the DFT candidates; the dedup below and the first-maximum winner
        // depend on this order.
        let original_len = self.candidates.len();
        for i in 0..original_len {
            let c = self.candidates[i];
            for k in [2.0, 3.0, 4.0] {
                let period = c.period / k;
                if period >= cfg.band.min_period {
                    self.candidates.push(PeriodEstimate {
                        period,
                        bin: (c.bin as f64 * k) as usize,
                        magnitude: c.magnitude,
                        snr: c.snr,
                    });
                }
            }
        }
        self.candidates.dedup_by(|a, b| (a.period - b.period).abs() < 0.5);

        // Fold contrast collapses once the candidate period drifts by more
        // than ~T²/window across the window, so every candidate is locally
        // refined (fine hill-climb of the contrast) before comparison. This
        // both rescues subdivided candidates — whose periods inherit the
        // parent bin's quantisation — and removes the Eq. (2) integer-bin
        // quantisation from the final estimate.
        let samples = self.finite.as_slice();
        let fold_span =
            span!("cycle.fold", samples = samples.len(), candidates = self.candidates.len());
        let fold_start = Instant::now();
        // The fold kernel's columns, filled once for every period below.
        self.fold.fill(samples);
        let columns = &self.fold;
        let mut folds = 0u64;
        let mut fold_at = |p: f64| {
            folds += 1;
            crate::superpose::fold_contrast_of(columns, p)
        };
        // Scored in candidate order; `max_by` keeps the last of equal
        // scores. The refinement depends only on the period, so a period
        // bit-identical to an earlier candidate's (the k = 2 subdivision of
        // bin b is bin 2b's period, halving being exact) copies that
        // candidate's refined `(period, score)` and keeps its own `bin` and
        // `snr`.
        self.scored.clear();
        for c in &self.candidates {
            let p0 = c.period;
            let earlier = self
                .candidates
                .iter()
                .zip(&self.scored)
                .find(|(e, _)| e.period.to_bits() == p0.to_bits());
            let (period, score) = match earlier {
                Some((_, s)) => (s.period, s.score),
                None => {
                    let half_width = (p0 * p0 / window_len_s as f64).clamp(1.5, 8.0);
                    let mut best = (p0, fold_at(p0));
                    let steps = (2.0 * half_width / 0.25) as i64;
                    for k in 0..=steps {
                        let p = p0 - half_width + 0.25 * k as f64;
                        // A step landing on `p0` itself cannot beat the
                        // strict `>`: its score is the starting one.
                        if p < cfg.band.min_period
                            || p > cfg.band.max_period
                            || p.to_bits() == p0.to_bits()
                        {
                            continue;
                        }
                        let s = fold_at(p);
                        if s > best.1 {
                            best = (p, s);
                        }
                    }
                    best
                }
            };
            self.scored.push(Scored { period, score, bin: c.bin, snr: c.snr });
        }
        self.timings.add_fold(fold_start.elapsed());
        fold_span.end_with(&[Field { key: "folds", value: FieldValue::U64(folds) }]);
        let scored = &self.scored;
        let best_idx = (0..scored.len())
            .max_by(|&a, &b| scored[a].score.total_cmp(&scored[b].score))
            .expect("non-empty scored set");
        if scored[best_idx].score <= 0.0 {
            return Err(CycleError::NoPeriodicity);
        }
        // Take the best-scoring candidate, then descend its *harmonic chain*:
        // a multiple of the true cycle folds just as cleanly (the pattern
        // simply repeats inside the fold), so when ~period/k of the winner
        // scores nearly as well, the shorter one is the fundamental. The
        // preference is restricted to the winner's own chain — comparing
        // unrelated candidates by length would let spurious short periods
        // steal wins.
        let mut winner_idx = best_idx;
        for (i, c) in scored.iter().enumerate() {
            let ratio = scored[best_idx].period / c.period;
            let harmonic = ratio.round() >= 2.0 && (ratio - ratio.round()).abs() < 0.1;
            if harmonic
                && c.score >= 0.8 * scored[best_idx].score
                && c.period < scored[winner_idx].period
            {
                winner_idx = i;
            }
        }
        let winner = scored[winner_idx];
        Ok(CycleEstimate {
            cycle_s: winner.period,
            bin: winner.bin,
            snr: winner.snr,
            samples_used: samples.len(),
        })
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared synthetic-observation builders for the pipeline unit tests: a
    //! queue-free toy model where speed near the light alternates between a
    //! red crawl and a green flow, sampled sparsely like the taxi feed.

    use super::*;
    use taxilight_trace::record::{PassengerState, TaxiId};
    use taxilight_trace::GeoPoint;

    /// Deterministic LCG for test reproducibility without rand.
    pub struct Lcg(pub u64);

    impl Lcg {
        pub fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Red/green square-wave speed with noise.
    pub fn planted_speed(t_abs: i64, cycle: u32, red: u32, offset: u32, rng: &mut Lcg) -> f64 {
        let pos = (t_abs - offset as i64).rem_euclid(cycle as i64) as u32;
        if pos < red {
            rng.range(0.0, 4.0)
        } else {
            rng.range(28.0, 45.0)
        }
    }

    /// Builds sparse observations over `[0, span_s)` with roughly one
    /// sample every `mean_gap_s` seconds.
    pub fn planted_obs(
        cycle: u32,
        red: u32,
        offset: u32,
        span_s: i64,
        mean_gap_s: f64,
        seed: u64,
    ) -> Vec<LightObs> {
        let mut rng = Lcg(seed.max(1));
        let mut obs = Vec::new();
        let mut t = 0i64;
        let mut taxi = 0u32;
        while t < span_s {
            obs.push(LightObs {
                taxi: TaxiId(taxi % 40),
                time: Timestamp(t),
                speed_kmh: planted_speed(t, cycle, red, offset, &mut rng),
                position: GeoPoint::new(22.5, 114.0),
                dist_to_stop_m: rng.range(5.0, 200.0),
                passenger: PassengerState::Vacant,
            });
            t += rng.range(0.3 * mean_gap_s, 1.7 * mean_gap_s).max(1.0) as i64;
            taxi += 1;
        }
        obs
    }

    /// Sparse `(t, speed)` samples of a red/green square wave whose red
    /// phase starts at `red_start` within each cycle.
    pub fn square_samples(
        cycle: f64,
        red: f64,
        red_start: f64,
        span: f64,
        gap: f64,
        seed: u64,
    ) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut state = seed.max(1);
        while t < span {
            let pos = (t - red_start).rem_euclid(cycle);
            let v = if pos < red { 1.5 } else { 38.0 };
            out.push((t, v));
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += gap * (0.5 + (state >> 40) as f64 / (1u64 << 24) as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::planted_obs;
    use super::*;

    #[test]
    fn recovers_planted_cycle_from_dense_data() {
        // ~1 sample / 5 s over an hour: rich data.
        let obs = planted_obs(98, 39, 0, 3600, 5.0, 1);
        let est = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &IdentifyConfig::default())
            .unwrap();
        assert!(
            (est.cycle_s - 98.0).abs() < 3.0,
            "cycle {} (bin {}, snr {})",
            est.cycle_s,
            est.bin,
            est.snr
        );
        assert!(est.snr > 2.0);
    }

    #[test]
    fn recovers_planted_cycle_from_sparse_data() {
        // ~1 sample / 20 s — the paper's actual feed density.
        let obs = planted_obs(106, 63, 30, 3600, 20.0, 7);
        let est = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &IdentifyConfig::default())
            .unwrap();
        assert!((est.cycle_s - 106.0).abs() < 6.0, "cycle {}", est.cycle_s);
    }

    #[test]
    fn paper_worked_example_bin_37() {
        // One hour, truth 98 s: the paper reads bin 37 → 97.3 s.
        let obs = planted_obs(98, 39, 0, 3600, 4.0, 3);
        let est = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &IdentifyConfig::default())
            .unwrap();
        assert!(est.bin == 36 || est.bin == 37, "bin {}", est.bin);
    }

    #[test]
    fn too_few_samples_is_reported() {
        let obs = planted_obs(98, 39, 0, 200, 30.0, 5);
        let err = identify_cycle(&obs, Timestamp(0), Timestamp(200), &IdentifyConfig::default())
            .unwrap_err();
        assert!(matches!(err, CycleError::TooFewSamples { .. }), "{err:?}");
    }

    #[test]
    fn aperiodic_signal_gives_no_periodicity() {
        // Constant-speed traffic (no light modulation).
        let mut obs = planted_obs(98, 39, 0, 3600, 10.0, 9);
        for o in &mut obs {
            o.speed_kmh = 35.0;
        }
        let err = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &IdentifyConfig::default())
            .unwrap_err();
        assert_eq!(err, CycleError::NoPeriodicity);
    }

    #[test]
    fn influence_radius_filters_far_samples() {
        let obs = planted_obs(98, 39, 0, 3600, 10.0, 11);
        let far = speed_samples(&obs, Timestamp(0), 1.0);
        let near = speed_samples(&obs, Timestamp(0), 500.0);
        assert!(far.len() < near.len());
        assert_eq!(near.len(), obs.len());
    }

    #[test]
    fn interpolation_method_ablation_spline_at_least_as_good() {
        // DESIGN.md ablation hook: with sparse data the spline (paper's
        // choice) must not be worse than the zero-fill baseline.
        let obs = planted_obs(120, 55, 10, 3600, 25.0, 13);
        let spline_cfg = IdentifyConfig::default();
        let zero_cfg = IdentifyConfig {
            interpolation: taxilight_signal::interpolate::Method::NearestOrZero,
            ..IdentifyConfig::default()
        };
        let spline = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &spline_cfg);
        let zero = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &zero_cfg);
        let err_of = |r: &Result<CycleEstimate, CycleError>| {
            r.as_ref().map(|e| (e.cycle_s - 120.0).abs()).unwrap_or(f64::INFINITY)
        };
        assert!(
            err_of(&spline) <= err_of(&zero) + 2.0,
            "spline {:?} vs zero-fill {:?}",
            spline,
            zero
        );
    }

    #[test]
    fn refined_peak_not_worse_than_integer_bin() {
        let obs = planted_obs(98, 39, 0, 3600, 6.0, 17);
        let base = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &IdentifyConfig::default())
            .unwrap();
        let refined = identify_cycle(
            &obs,
            Timestamp(0),
            Timestamp(3600),
            &IdentifyConfig { refine_peak: true, ..IdentifyConfig::default() },
        )
        .unwrap();
        assert!((refined.cycle_s - 98.0).abs() <= (base.cycle_s - 98.0).abs() + 1.0);
    }

    #[test]
    fn autocorrelation_method_also_recovers_cycle() {
        let obs = planted_obs(98, 39, 0, 3600, 8.0, 23);
        let cfg = IdentifyConfig {
            cycle_method: crate::config::CycleMethod::Autocorrelation,
            ..IdentifyConfig::default()
        };
        let est = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &cfg).unwrap();
        assert!((est.cycle_s - 98.0).abs() < 4.0, "autocorr cycle {}", est.cycle_s);
    }

    #[test]
    fn padded_fft_spectrum_recovers_cycle() {
        // The radix-2 padded spectrum changes the bin grid but — with fold
        // validation refining the final period on the raw samples — must
        // still land on the planted cycle.
        let obs = planted_obs(98, 39, 0, 3600, 8.0, 29);
        let cfg = IdentifyConfig {
            spectrum: taxilight_signal::periodogram::SpectrumPath::PaddedPow2,
            ..IdentifyConfig::default()
        };
        let est = identify_cycle(&obs, Timestamp(0), Timestamp(3600), &cfg).unwrap();
        assert!((est.cycle_s - 98.0).abs() < 4.0, "padded cycle {}", est.cycle_s);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CycleError::TooFewSamples { have: 3, need: 12 };
        assert!(e.to_string().contains("TooFewSamples"));
        let d = CycleError::DegenerateWindow { window_len_s: 0 };
        assert!(d.to_string().contains("DegenerateWindow"));
    }

    #[test]
    fn zero_length_window_is_a_typed_error() {
        let samples: Vec<(f64, f64)> = (0..50).map(|k| (k as f64, 20.0)).collect();
        let err = identify_cycle_from_samples(&samples, 0, &IdentifyConfig::default()).unwrap_err();
        assert!(matches!(err, CycleError::DegenerateWindow { .. }), "{err:?}");
    }

    #[test]
    fn non_finite_samples_are_filtered_not_propagated() {
        // Plant a clean periodic signal, then splice NaN/Inf samples in:
        // the estimate must survive and stay finite.
        let obs = planted_obs(98, 39, 0, 3600, 8.0, 19);
        let mut samples = speed_samples(&obs, Timestamp(0), 500.0);
        for k in (0..samples.len()).step_by(9) {
            samples[k].1 = f64::NAN;
        }
        samples.push((f64::INFINITY, 30.0));
        samples.push((120.0, f64::NEG_INFINITY));
        let est = identify_cycle_from_samples(&samples, 3600, &IdentifyConfig::default()).unwrap();
        assert!(est.cycle_s.is_finite());
        assert!((est.cycle_s - 98.0).abs() < 6.0, "cycle {}", est.cycle_s);
        // All-garbage input degrades to a typed error, not a panic.
        let garbage: Vec<(f64, f64)> = (0..60).map(|k| (k as f64, f64::NAN)).collect();
        let err =
            identify_cycle_from_samples(&garbage, 3600, &IdentifyConfig::default()).unwrap_err();
        assert!(matches!(err, CycleError::TooFewSamples { .. }), "{err:?}");
    }
}
