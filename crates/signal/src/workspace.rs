//! Reusable scratch for the identification hot path.
//!
//! [`SignalWorkspace`] owns a [`PlanCache`] plus every intermediate buffer
//! the per-light pipeline needs from this crate — merge/sort scratch and
//! spline coefficients for [`crate::interpolate::resample`], the complex
//! spectrum and Bluestein convolution buffer behind
//! [`crate::fft::eq1_spectrum`], the magnitude spectrum, and the banded
//! median/candidate buffers of [`crate::periodogram`]. After a warmup call
//! per signal shape, the `*_into`/`*_ws` entry points below perform **zero
//! heap allocations** and return results **bit-identical** to the allocating
//! free functions (same summation order, same bin grid) — pinned by the
//! proptests in `tests/plan_identity.rs`.
//!
//! Ownership rule: one workspace per thread. The type is deliberately not
//! `Sync`-shareable state — give each worker its own and reuse it across
//! calls; never share one behind a lock.

use crate::complex::Complex64;
use crate::fft::next_power_of_two;
use crate::interpolate::{validate, InterpolateError, Method};
use crate::periodogram::{PeriodBand, PeriodEstimate, SpectrumPath};
use crate::plan::{PlanCache, PlanCacheStats};
use taxilight_obs::span;

/// Per-thread scratch + plan cache for allocation-free signal processing.
///
/// See the [module docs](self) for the ownership rules and the bit-identity
/// contract with the allocating free functions.
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
    /// The one reused banded buffer that replaces the two per-call
    /// allocations in `periodogram::search`/`band_candidates_with`: first
    /// the median copy, then (as `bins`) the candidate ranking.
    band: Vec<f64>,
    bins: Vec<(usize, f64)>,
    /// `(t, v, filtered-index)` sort scratch reproducing the stable
    /// sort order of `merge_coincident` without its allocation.
    tagged: Vec<(f64, f64, usize)>,
    /// Output of same-slot mean-merging; doubles as the spline knots.
    merged: Vec<(f64, f64)>,
    // Natural-cubic-spline scratch (Thomas solve).
    h: Vec<f64>,
    diag: Vec<f64>,
    sub: Vec<f64>,
    sup: Vec<f64>,
    rhs: Vec<f64>,
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

    /// In-place forward FFT of `buf` (any length), bit-identical to
    /// [`crate::fft::fft`]. Plans are cached per length; allocation-free
    /// once the plan and scratch for this length exist.
    pub fn fft_in_place(&mut self, buf: &mut [Complex64]) {
        if buf.is_empty() {
            return;
        }
        let plan = self.plans.get_or_build(buf.len());
        plan.fft_in_place(buf, &mut self.conv);
    }

    /// In-place inverse FFT of `buf` (including the `1/N` factor),
    /// bit-identical to [`crate::fft::ifft`].
    pub fn ifft_in_place(&mut self, buf: &mut [Complex64]) {
        if buf.is_empty() {
            return;
        }
        let plan = self.plans.get_or_build(buf.len());
        plan.ifft_in_place(buf, &mut self.conv);
    }

    /// Eq. (1) spectrum of a real signal into `out`, bit-identical to
    /// [`crate::fft::eq1_spectrum`].
    pub fn eq1_spectrum_into(&mut self, signal: &[f64], out: &mut Vec<Complex64>) {
        out.clear();
        let n = signal.len();
        if n == 0 {
            return;
        }
        let inv_n = 1.0 / n as f64;
        out.extend(signal.iter().map(|&v| Complex64::from_real(v)));
        self.fft_in_place(out);
        crate::kernels::conj_scale_in_place(out, inv_n);
    }

    /// Dominant-period search, bit-identical to
    /// [`crate::periodogram::dominant_period_with`] (`refine = false`) /
    /// [`crate::periodogram::dominant_period_refined_with`] (`refine = true`).
    pub fn dominant_period(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        refine: bool,
        path: SpectrumPath,
    ) -> Option<PeriodEstimate> {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        let _span = span!("signal.dft", n = signal.len(), refine = refine);
        let n = signal.len();
        if n < 4 {
            return None;
        }
        let total = self.banded_spectrum(signal, sample_dt, path);
        let mags = &self.mags;

        let lo_bin = ((total / band.max_period).ceil() as usize).max(1);
        let hi_bin = ((total / band.min_period).floor() as usize).min(mags.len().saturating_sub(1));
        if lo_bin > hi_bin {
            return None;
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

        // Median magnitude in the band as the noise floor — one reused
        // buffer instead of a fresh `to_vec` per call. Sorting by
        // `total_cmp` is a total order, so the unstable sort yields the
        // same array (equal keys are bit-identical) and the same median.
        self.band.clear();
        self.band.extend_from_slice(&mags[lo_bin..=hi_bin]);
        self.band.sort_unstable_by(f64::total_cmp);
        let median = self.band[self.band.len() / 2];
        let snr = if median > 0.0 { best_mag / median } else { f64::INFINITY };

        let mut bin_pos = best_bin as f64;
        if refine && best_bin > lo_bin && best_bin < hi_bin {
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

        Some(PeriodEstimate { period: total / bin_pos, bin: best_bin, magnitude: best_mag, snr })
    }

    /// The `k` strongest in-band bins into `out` (cleared first),
    /// bit-identical to [`crate::periodogram::band_candidates_with`].
    pub fn band_candidates_into(
        &mut self,
        signal: &[f64],
        sample_dt: f64,
        band: PeriodBand,
        k: usize,
        path: SpectrumPath,
        out: &mut Vec<PeriodEstimate>,
    ) {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        out.clear();
        let n = signal.len();
        if n < 4 || k == 0 {
            return;
        }
        let total = self.banded_spectrum(signal, sample_dt, path);
        let mags = &self.mags;
        let lo_bin = ((total / band.max_period).ceil() as usize).max(1);
        let hi_bin = ((total / band.min_period).floor() as usize).min(mags.len().saturating_sub(1));
        if lo_bin > hi_bin {
            return;
        }
        self.band.clear();
        self.band.extend_from_slice(&mags[lo_bin..=hi_bin]);
        self.band.sort_unstable_by(f64::total_cmp);
        let median = self.band[self.band.len() / 2];

        self.bins.clear();
        self.bins.extend((lo_bin..=hi_bin).map(|b| (b, mags[b])).filter(|&(_, m)| m > 0.0));
        // The allocating path uses a stable descending sort over bins that
        // were pushed in ascending order; descending magnitude with the bin
        // index as tiebreak reproduces that order without the stable sort's
        // temporary buffer.
        self.bins.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        self.bins.truncate(k);
        out.extend(self.bins.iter().map(|&(bin, magnitude)| PeriodEstimate {
            period: total / bin as f64,
            bin,
            magnitude,
            snr: if median > 0.0 { magnitude / median } else { f64::INFINITY },
        }));
    }

    /// Same-slot mean-merge of irregular `(t, v)` samples into `out`,
    /// bit-identical to [`crate::interpolate::merge_coincident`]. Exposed
    /// for the per-light enhancement stage, which merges the primary and
    /// perpendicular pools before mirroring.
    pub fn merge_coincident_into(&mut self, samples: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
        merge_coincident_into(samples, &mut self.tagged, out);
    }

    /// Resamples irregular `(t, v)` samples onto the regular grid into
    /// `out`, bit-identical to [`crate::interpolate::resample`].
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
                spline_coeffs(
                    &self.merged,
                    &mut self.h,
                    &mut self.diag,
                    &mut self.sub,
                    &mut self.sup,
                    &mut self.rhs,
                    &mut self.m2,
                );
                let _kspan = span!("stage.kernel", kernel = 1, count = count);
                let kstart = std::time::Instant::now();
                crate::kernels::spline_grid_into(&self.merged, &self.m2, t0, dt, count, out);
                self.kernel_ns += kstart.elapsed().as_nanos() as u64;
                Ok(())
            }
        }
    }

    /// Demeaned magnitude spectrum into `self.mags`; returns the total
    /// duration for the bin→period mapping. Mirrors the private
    /// `periodogram::banded_spectrum`.
    fn banded_spectrum(&mut self, signal: &[f64], sample_dt: f64, path: SpectrumPath) -> f64 {
        let _kspan = span!("stage.kernel", kernel = 1, n = signal.len());
        let kstart = std::time::Instant::now();
        if signal.is_empty() {
            self.real.clear();
        } else {
            let mean = crate::kernels::sum(signal) / signal.len() as f64;
            crate::kernels::subtract_scalar_into(signal, mean, &mut self.real);
        }
        if path == SpectrumPath::PaddedPow2 {
            self.real.resize(next_power_of_two(self.real.len()), 0.0);
        }
        let total = self.real.len() as f64 * sample_dt;

        // magnitude_spectrum: Eq. (1) spectrum, then |·| of bins 0 ..= N/2.
        let inv_n = if self.real.is_empty() { 0.0 } else { 1.0 / self.real.len() as f64 };
        self.spec.clear();
        self.spec.extend(self.real.iter().map(|&v| Complex64::from_real(v)));
        if !self.spec.is_empty() {
            let plan = self.plans.get_or_build(self.spec.len());
            plan.fft_in_place(&mut self.spec, &mut self.conv);
            crate::kernels::conj_scale_in_place(&mut self.spec, inv_n);
        }
        let half = (self.spec.len() / 2 + 1).min(self.spec.len());
        crate::kernels::magnitudes_into(&self.spec[..half], &mut self.mags);
        self.kernel_ns += kstart.elapsed().as_nanos() as u64;
        total
    }
}

/// Same-slot mean-merge into `out`, bit-identical to
/// [`crate::interpolate::merge_coincident`]. `tagged` carries the filtered
/// index so an unstable sort reproduces the stable order (ties in `t` keep
/// input order).
fn merge_coincident_into(
    samples: &[(f64, f64)],
    tagged: &mut Vec<(f64, f64, usize)>,
    out: &mut Vec<(f64, f64)>,
) {
    tagged.clear();
    tagged.extend(
        samples
            .iter()
            .filter(|(t, v)| t.is_finite() && v.is_finite())
            .enumerate()
            .map(|(i, &(t, v))| (t, v, i)),
    );
    tagged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    out.clear();
    let mut i = 0;
    while i < tagged.len() {
        let slot = tagged[i].0.floor();
        let mut sum = 0.0;
        let mut count = 0.0;
        while i < tagged.len() && tagged[i].0.floor() == slot {
            sum += tagged[i].1;
            count += 1.0;
            i += 1;
        }
        out.push((slot, sum / count));
    }
}

/// Natural-cubic-spline second derivatives into `m2`, with the identical
/// Thomas-solve arithmetic of [`crate::interpolate::CubicSpline::new`].
#[allow(clippy::too_many_arguments)]
fn spline_coeffs(
    points: &[(f64, f64)],
    h: &mut Vec<f64>,
    diag: &mut Vec<f64>,
    sub: &mut Vec<f64>,
    sup: &mut Vec<f64>,
    rhs: &mut Vec<f64>,
    m2: &mut Vec<f64>,
) {
    let n = points.len();
    m2.clear();
    m2.resize(n, 0.0);
    if n < 3 {
        return;
    }
    h.clear();
    h.extend(points.windows(2).map(|w| w[1].0 - w[0].0));
    let interior = n - 2;
    diag.clear();
    diag.resize(interior, 0.0);
    rhs.clear();
    rhs.resize(interior, 0.0);
    sub.clear();
    sub.resize(interior, 0.0);
    sup.clear();
    sup.resize(interior, 0.0);
    for i in 0..interior {
        let hi = h[i];
        let hi1 = h[i + 1];
        diag[i] = 2.0 * (hi + hi1);
        sub[i] = hi;
        sup[i] = hi1;
        rhs[i] = 6.0
            * ((points[i + 2].1 - points[i + 1].1) / hi1 - (points[i + 1].1 - points[i].1) / hi);
    }
    for i in 1..interior {
        let w = sub[i] / diag[i - 1];
        diag[i] -= w * sup[i - 1];
        rhs[i] -= w * rhs[i - 1];
    }
    m2[n - 2] = rhs[interior - 1] / diag[interior - 1];
    for i in (0..interior - 1).rev() {
        m2[i + 1] = (rhs[i] - sup[i] * m2[i + 2]) / diag[i];
    }
}

/// Spline evaluation with the identical arithmetic of
/// [`crate::interpolate::CubicSpline::eval`], reading knots from `points`.
pub(crate) fn spline_eval(points: &[(f64, f64)], m2: &[f64], x: f64) -> f64 {
    let n = points.len();
    if n == 1 || x <= points[0].0 {
        return if x <= points[0].0 { points[0].1 } else { points[n - 1].1 };
    }
    if x >= points[n - 1].0 {
        return points[n - 1].1;
    }
    let idx = points.partition_point(|&(t, _)| t <= x);
    let (x0, x1) = (points[idx - 1].0, points[idx].0);
    let (y0, y1) = (points[idx - 1].1, points[idx].1);
    let (m0, m1) = (m2[idx - 1], m2[idx]);
    let h = x1 - x0;
    let a = (x1 - x) / h;
    let b = (x - x0) / h;
    a * y0 + b * y1 + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpolate::{merge_coincident, resample};
    use crate::periodogram::{
        band_candidates_with, dominant_period_refined_with, dominant_period_with,
    };

    fn tone(n: usize, period: f64, amp: f64, dc: f64) -> Vec<f64> {
        (0..n).map(|k| dc + amp * (2.0 * std::f64::consts::PI * k as f64 / period).sin()).collect()
    }

    fn assert_estimates_bit_equal(a: Option<PeriodEstimate>, b: Option<PeriodEstimate>) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.bin, y.bin);
                assert_eq!(x.period.to_bits(), y.period.to_bits());
                assert_eq!(x.magnitude.to_bits(), y.magnitude.to_bits());
                assert_eq!(x.snr.to_bits(), y.snr.to_bits());
            }
            (x, y) => panic!("mismatch: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn dominant_period_matches_free_function_bitwise() {
        let mut ws = SignalWorkspace::new();
        for n in [1200usize, 2048, 3600] {
            for path in [SpectrumPath::Exact, SpectrumPath::PaddedPow2] {
                for refine in [false, true] {
                    let sig = tone(n, 98.0, 5.0, 15.0);
                    let reference = if refine {
                        dominant_period_refined_with(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, path)
                    } else {
                        dominant_period_with(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, path)
                    };
                    let ws_est =
                        ws.dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, refine, path);
                    assert_estimates_bit_equal(ws_est, reference);
                }
            }
        }
    }

    #[test]
    fn band_candidates_match_free_function_bitwise() {
        let mut ws = SignalWorkspace::new();
        let mut out = Vec::new();
        for n in [900usize, 3600] {
            for k in [1usize, 5, 100] {
                let sig = tone(n, 120.0, 6.0, 20.0);
                let reference = band_candidates_with(
                    &sig,
                    1.0,
                    PeriodBand::TRAFFIC_LIGHTS,
                    k,
                    SpectrumPath::Exact,
                );
                ws.band_candidates_into(
                    &sig,
                    1.0,
                    PeriodBand::TRAFFIC_LIGHTS,
                    k,
                    SpectrumPath::Exact,
                    &mut out,
                );
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(&reference) {
                    assert_estimates_bit_equal(Some(*a), Some(*b));
                }
            }
        }
    }

    #[test]
    fn merge_into_matches_free_function() {
        let samples =
            vec![(10.2, 4.0), (10.7, 6.0), (f64::NAN, 1.0), (20.0, 3.0), (10.4, 8.0), (5.9, 2.0)];
        let mut tagged = Vec::new();
        let mut out = Vec::new();
        merge_coincident_into(&samples, &mut tagged, &mut out);
        let reference = merge_coincident(&samples);
        assert_eq!(out.len(), reference.len());
        for (a, b) in out.iter().zip(&reference) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn resample_into_matches_free_function_bitwise() {
        let mut ws = SignalWorkspace::new();
        let mut out = Vec::new();
        let samples: Vec<(f64, f64)> =
            (0..40).map(|k| (k as f64 * 19.7, ((k * 13) % 47) as f64)).collect();
        for method in [Method::NearestOrZero, Method::Linear, Method::CubicSpline] {
            let reference = resample(&samples, 0.0, 1.0, 800, method).unwrap();
            ws.resample_into(&samples, 0.0, 1.0, 800, method, &mut out).unwrap();
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "method {method:?}");
            }
        }
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
