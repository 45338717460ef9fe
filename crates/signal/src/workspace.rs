//! Reusable scratch for the identification hot path.
//!
//! [`SignalWorkspace`] owns a [`PlanCache`] plus every intermediate buffer
//! the per-light pipeline needs from this crate: merge/sort scratch and
//! spline coefficients for resampling, the complex spectrum and Bluestein
//! convolution buffer behind the Eq. (1) transform, the magnitude
//! spectrum, and the banded median/candidate buffers of the period search.
//! Its methods are the only implementation of those steps: the free
//! functions [`crate::interpolate::resample`],
//! [`crate::periodogram::dominant_period`] and
//! [`crate::periodogram::band_candidates`] wrap them with a fresh
//! workspace per call. The period search has one body,
//! [`SignalWorkspace::period_search`]: one spectrum per call, from which
//! it returns the argmax estimate and ranks the top-k candidates;
//! [`SignalWorkspace::dominant_period`] and
//! [`SignalWorkspace::band_candidates_into`] each call it for one of the
//! two. No spectrum is kept from one call to the next. After a warmup
//! call per signal shape, the methods perform **zero heap allocations**;
//! the golden digests in `tests/golden.rs` pin their output bits, for a
//! fresh workspace and for one reused across calls.
//!
//! Ownership rule: one workspace per thread. The type is deliberately not
//! `Sync`-shareable state — give each worker its own and reuse it across
//! calls; never share one behind a lock.

use crate::complex::Complex64;
use crate::fft::next_power_of_two;
use crate::interpolate::{
    merge_coincident_into, spline_coeffs, validate, InterpolateError, Method, ThomasScratch,
};
use crate::periodogram::{PeriodBand, PeriodEstimate, SpectrumPath};
use crate::plan::{PlanCache, PlanCacheStats};
use taxilight_obs::span;

/// Per-thread scratch + plan cache for allocation-free signal processing.
///
/// See the [module docs](self) for the ownership rules.
#[derive(Debug, Default)]
pub struct SignalWorkspace {
    plans: PlanCache,
    /// Bluestein convolution buffer (length `m = next_pow2(2N−1)`).
    conv: Vec<Complex64>,
    /// Complex signal/spectrum buffer for the Eq. (1) transform.
    spec: Vec<Complex64>,
    /// Demeaned (and possibly zero-padded) real signal.
    real: Vec<f64>,
    /// Magnitude spectrum, bins `0 ..= N/2`.
    mags: Vec<f64>,
    /// In-band magnitudes, sorted for the median noise floor.
    band: Vec<f64>,
    /// `(bin, magnitude)` candidate ranking.
    bins: Vec<(usize, f64)>,
    /// `(t, v, filtered-index)` sort scratch of same-slot merging.
    tagged: Vec<(f64, f64, usize)>,
    /// Output of same-slot mean-merging; doubles as the spline knots.
    merged: Vec<(f64, f64)>,
    /// Natural-cubic-spline solve scratch.
    thomas: ThomasScratch,
    /// Spline second derivatives at the knots.
    m2: Vec<f64>,
    /// Nanoseconds spent inside dispatched [`crate::kernels`] regions since
    /// the last [`take_kernel_nanos`](Self::take_kernel_nanos) call.
    kernel_ns: u64,
}

impl SignalWorkspace {
    /// An empty workspace; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        SignalWorkspace::default()
    }

    /// Hit/miss counters of the owned plan cache.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Resets the plan-cache counters (plans stay cached).
    pub fn reset_plan_stats(&mut self) {
        self.plans.reset_stats();
    }

    /// Drains the nanoseconds accumulated inside signal-kernel regions
    /// (spectrum + resample grid evaluation) since the last call. The
    /// pipeline folds this into its `stage.kernel` timing so Chrome traces
    /// separate vectorized-kernel time from surrounding orchestration.
    pub fn take_kernel_nanos(&mut self) -> u64 {
        std::mem::take(&mut self.kernel_ns)
    }

    /// Finds the dominant period of `signal` sampled every `sample_dt`
    /// seconds, searching only periods inside `band`, over the spectrum
    /// `path` selects: [`period_search`](Self::period_search) without
    /// candidates.
    ///
    /// Implements Eq. (2): the winning bin `n` maps to period `N·dt/n`.
    /// With `refine`, parabolic interpolation around the winning bin gives
    /// sub-bin period resolution. Returns `None` when the signal is too
    /// short for the band (no bin falls inside it) or has no in-band
    /// energy.
    ///
    /// # Panics
    /// Panics when `sample_dt` is not positive.
    pub fn dominant_period(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        refine: bool,
        path: SpectrumPath,
    ) -> Option<PeriodEstimate> {
        self.period_search(signal, sample_dt, band, refine, path, 0, &mut Vec::new())
    }

    /// The `k` strongest in-band bins into `out` (cleared first), strongest
    /// first, each with its Eq. (2) period and its magnitude over the band
    /// median as `snr`: [`period_search`](Self::period_search) without the
    /// argmax estimate. Used when the raw argmax is ambiguous and the
    /// caller re-ranks candidates with an orthogonal criterion (e.g.
    /// epoch-folding contrast).
    ///
    /// # Panics
    /// Panics when `sample_dt` is not positive.
    pub fn band_candidates_into(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        k: usize,
        path: SpectrumPath,
        out: &mut Vec<PeriodEstimate>,
    ) {
        self.period_search(signal, sample_dt, band, false, path, k, out);
    }

    /// The period search over one Eq. (1) spectrum of `signal`: returns
    /// the [`dominant_period`](Self::dominant_period) estimate and writes
    /// the [`band_candidates_into`](Self::band_candidates_into) ranking of
    /// the `k` strongest in-band bins into `out` (cleared first). A caller
    /// that needs both pays for one transform and one sort of the band;
    /// nothing of the spectrum outlives the call.
    ///
    /// # Panics
    /// Panics when `sample_dt` is not positive.
    #[allow(clippy::too_many_arguments)]
    pub fn period_search(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        refine: bool,
        path: SpectrumPath,
        k: usize,
        out: &mut Vec<PeriodEstimate>,
    ) -> Option<PeriodEstimate> {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        out.clear();
        let _span = span!("signal.dft", n = signal.len(), refine = refine);
        let (total, lo_bin, hi_bin, median) = self.in_band(signal, sample_dt, band, path)?;
        let mags = &self.mags;
        let snr_of = |mag: f64| if median > 0.0 { mag / median } else { f64::INFINITY };
        if k > 0 {
            self.bins.clear();
            self.bins.extend((lo_bin..=hi_bin).map(|b| (b, mags[b])).filter(|&(_, m)| m > 0.0));
            // Descending magnitude; equal magnitudes rank by ascending bin.
            self.bins.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            self.bins.truncate(k);
            out.extend(self.bins.iter().map(|&(bin, magnitude)| PeriodEstimate {
                period: total / bin as f64,
                bin,
                magnitude,
                snr: snr_of(magnitude),
            }));
        }

        let (mut best_bin, mut best_mag) = (lo_bin, mags[lo_bin]);
        for (k, &mag) in mags.iter().enumerate().take(hi_bin + 1).skip(lo_bin) {
            if mag > best_mag {
                best_mag = mag;
                best_bin = k;
            }
        }
        if best_mag == 0.0 {
            return None;
        }

        let mut bin_pos = best_bin as f64;
        if refine && best_bin > lo_bin && best_bin < hi_bin {
            // Parabolic (quadratic) interpolation on the three bins around
            // the peak: offset = ½(α−γ)/(α−2β+γ).
            let alpha = mags[best_bin - 1];
            let beta = mags[best_bin];
            let gamma = mags[best_bin + 1];
            let denom = alpha - 2.0 * beta + gamma;
            if denom.abs() > 1e-12 {
                let delta = 0.5 * (alpha - gamma) / denom;
                if delta.abs() <= 0.5 {
                    bin_pos += delta;
                }
            }
        }

        Some(PeriodEstimate {
            period: total / bin_pos,
            bin: best_bin,
            magnitude: best_mag,
            snr: snr_of(best_mag),
        })
    }

    /// [`crate::interpolate::merge_coincident`] into `out`, with the sort
    /// scratch reused. Exposed for the per-light enhancement stage, which
    /// merges the primary and perpendicular pools before mirroring.
    pub fn merge_coincident_into(&mut self, samples: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
        merge_coincident_into(samples, &mut self.tagged, out);
    }

    /// Resamples irregular `(t, v)` samples onto the regular grid
    /// `t0, t0+dt, …` (`count` points) into `out`, after same-slot
    /// mean-merging. Returns `Err(Empty)` when no finite samples exist.
    pub fn resample_into(
        &mut self,
        samples: &[(f64, f64)],
        t0: f64,
        dt: f64,
        count: usize,
        method: Method,
        out: &mut Vec<f64>,
    ) -> Result<(), InterpolateError> {
        let _span = span!("signal.resample", samples = samples.len(), count = count);
        merge_coincident_into(samples, &mut self.tagged, &mut self.merged);
        if self.merged.is_empty() {
            return Err(InterpolateError::Empty);
        }
        out.clear();
        match method {
            Method::NearestOrZero => {
                out.resize(count, 0.0);
                for &(t, v) in &self.merged {
                    let slot = ((t - t0) / dt).round();
                    if slot >= 0.0 && (slot as usize) < count {
                        out[slot as usize] = v;
                    }
                }
                Ok(())
            }
            Method::Linear => {
                validate(&self.merged)?;
                let _kspan = span!("stage.kernel", kernel = 1, count = count);
                let kstart = std::time::Instant::now();
                crate::kernels::lerp_grid_into(&self.merged, t0, dt, count, out);
                self.kernel_ns += kstart.elapsed().as_nanos() as u64;
                Ok(())
            }
            Method::CubicSpline => {
                validate(&self.merged)?;
                spline_coeffs(&self.merged, &mut self.thomas, &mut self.m2);
                let _kspan = span!("stage.kernel", kernel = 1, count = count);
                let kstart = std::time::Instant::now();
                crate::kernels::spline_grid_into(&self.merged, &self.m2, t0, dt, count, out);
                self.kernel_ns += kstart.elapsed().as_nanos() as u64;
                Ok(())
            }
        }
    }

    /// The spectrum of [`banded_spectrum`](Self::banded_spectrum) mapped
    /// onto `band`: `(total, lo, hi, median)`, where bin `k` has period
    /// `total / k`, `lo..=hi` are the in-band bins and `median` is their
    /// median magnitude, the noise floor. `None` when the signal has fewer
    /// than four samples or no bin falls inside the band.
    fn in_band(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        path: SpectrumPath,
    ) -> Option<(f64, usize, usize, f64)> {
        if signal.len() < 4 {
            return None;
        }
        let total = self.banded_spectrum(signal, sample_dt, path);
        let lo = ((total / band.max_period).ceil() as usize).max(1);
        let hi =
            ((total / band.min_period).floor() as usize).min(self.mags.len().saturating_sub(1));
        if lo > hi {
            return None;
        }
        // `total_cmp` is a total order whose equal keys are bit-identical,
        // so the unstable sort yields one well-defined array.
        self.band.clear();
        self.band.extend_from_slice(&self.mags[lo..=hi]);
        self.band.sort_unstable_by(f64::total_cmp);
        Some((total, lo, hi, self.band[self.band.len() / 2]))
    }

    /// Magnitudes of the Eq. (1) spectrum of the demeaned signal, bins
    /// `0 ..= N/2`, into `self.mags`; returns the total duration for the
    /// bin→period mapping. Demeaning keeps the DC component from dwarfing
    /// the cycle peak. With `PaddedPow2` the spectrum (and the bin grid) is
    /// that of the zero-padded, power-of-two-length signal. Callers pass at
    /// least four samples.
    fn banded_spectrum(&mut self, signal: &[f64], sample_dt: f64, path: SpectrumPath) -> f64 {
        let _kspan = span!("stage.kernel", kernel = 1, n = signal.len());
        let kstart = std::time::Instant::now();
        let mean = crate::kernels::sum(signal) / signal.len() as f64;
        crate::kernels::subtract_scalar_into(signal, mean, &mut self.real);
        if path == SpectrumPath::PaddedPow2 {
            self.real.resize(next_power_of_two(self.real.len()), 0.0);
        }
        let total = self.real.len() as f64 * sample_dt;

        self.spec.clear();
        self.spec.extend(self.real.iter().map(|&v| Complex64::from_real(v)));
        let plan = self.plans.get_or_build(self.spec.len());
        plan.eq1_in_place(&mut self.spec, &mut self.conv);
        let half = (self.spec.len() / 2 + 1).min(self.spec.len());
        crate::kernels::magnitudes_into(&self.spec[..half], &mut self.mags);
        self.kernel_ns += kstart.elapsed().as_nanos() as u64;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, period: f64, amp: f64, dc: f64) -> Vec<f64> {
        (0..n).map(|k| dc + amp * (2.0 * std::f64::consts::PI * k as f64 / period).sin()).collect()
    }

    #[test]
    fn resample_into_propagates_errors() {
        let mut ws = SignalWorkspace::new();
        let mut out = Vec::new();
        assert_eq!(
            ws.resample_into(&[], 0.0, 1.0, 10, Method::CubicSpline, &mut out).unwrap_err(),
            InterpolateError::Empty
        );
        assert_eq!(
            ws.resample_into(&[(f64::NAN, 1.0)], 0.0, 1.0, 10, Method::Linear, &mut out)
                .unwrap_err(),
            InterpolateError::Empty
        );
    }

    #[test]
    fn plan_stats_reflect_reuse() {
        let mut ws = SignalWorkspace::new();
        let sig = tone(3600, 98.0, 5.0, 15.0);
        ws.dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, false, SpectrumPath::Exact);
        ws.dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, false, SpectrumPath::Exact);
        let s = ws.plan_stats();
        assert_eq!(s.misses(), 1, "one plan build for N = 3600");
        assert_eq!(s.hits(), 1, "second call must hit the cache");
        ws.reset_plan_stats();
        assert_eq!(ws.plan_stats(), PlanCacheStats::default());
    }
}
