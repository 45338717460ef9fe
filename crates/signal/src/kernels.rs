//! The inner loops of the signal hot path.
//!
//! Every inner loop that dominates a per-light identification lap — complex
//! magnitudes, radix-2 butterfly passes, Bluestein's pointwise complex
//! products, the grid-resample evaluations and the 4-lane sums behind means
//! and variances — lives here once, as portable scalar code written so the
//! autovectorizer can lift it. Only [`butterfly_stage`] keeps a second,
//! explicit SSE2 body on `x86_64` (part of the baseline ABI, so no feature
//! detection), chosen at compile time: measured at the shapes the pipeline
//! runs, it is the one kernel whose SIMD body pays end to end.
//!
//! # Numeric contract
//!
//! The SSE2 butterfly is bit-identical to [`scalar::butterfly_stage`] on
//! finite inputs (pinned by `tests/kernel_identity.rs`): it performs the
//! same IEEE-754 operations in the same order. Relative to the *legacy*
//! (pre-kernel) code two classes exist:
//!
//! * **bit-identity class** — element-wise kernels (butterflies, complex
//!   products, conjugate/scale, resample evaluations, demean subtraction)
//!   preserve the legacy summation order and stay bit-identical to it;
//! * **accuracy-gated class** — reductions ([`sum`], [`sum_sq_diff`])
//!   reassociate into four lanes combined as `(l0+l2)+(l1+l3)`, and
//!   [`magnitudes_into`] computes `sqrt(re² + im²)` instead of
//!   `f64::hypot`; these change low-order bits vs. the legacy code and are
//!   validated end-to-end by the `evalsuite` accuracy and robustness gates,
//!   the same discipline as `SpectrumPath::PaddedPow2`. Every digest depends
//!   on this exact operation order.
//!
//! Kernels never allocate: callers pass slices or reuse output `Vec`s
//! (cleared/resized, so warm calls stay inside the zero-alloc gate).

use crate::complex::Complex64;

/// Name of the butterfly's instruction path, for benchmark environment
/// capture: `"sse2"` on `x86_64`, `"portable"` elsewhere.
pub const fn active_path_name() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
}

/// 4-lane-chunked sum; lanes combine as `(l0+l2)+(l1+l3)`, the remainder
/// is appended sequentially. Reassociates relative to a sequential
/// `iter().sum()` (accuracy-gated class).
pub fn sum(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        lanes[0] += c[0];
        lanes[1] += c[1];
        lanes[2] += c[2];
        lanes[3] += c[3];
    }
    let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for &x in chunks.remainder() {
        total += x;
    }
    total
}

/// 4-lane-chunked `Σ (x − m)²` — the variance numerator. Accuracy-gated
/// class.
pub fn sum_sq_diff(xs: &[f64], m: f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        let d0 = c[0] - m;
        let d1 = c[1] - m;
        let d2 = c[2] - m;
        let d3 = c[3] - m;
        lanes[0] += d0 * d0;
        lanes[1] += d1 * d1;
        lanes[2] += d2 * d2;
        lanes[3] += d3 * d3;
    }
    let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for &x in chunks.remainder() {
        let d = x - m;
        total += d * d;
    }
    total
}

/// Complex magnitudes `sqrt(re² + im²)` into `out` (cleared first).
/// Element-wise, but `sqrt(re² + im²)` differs from the legacy
/// `f64::hypot` in low-order bits — accuracy-gated class.
pub fn magnitudes_into(spec: &[Complex64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(spec.iter().map(|c| (c.re * c.re + c.im * c.im).sqrt()));
}

/// `out[i] = src[i] − m` (cleared first) — the demean loop. Bit-identity
/// class.
pub fn subtract_scalar_into(src: &[f64], m: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(src.iter().map(|&v| v - m));
}

/// One radix-2 butterfly stage over the whole buffer: for every block of
/// `2·half` elements, `buf[k] = even + odd`, `buf[k+half] = even − odd`
/// with `odd = buf[k+half] · twiddles[j]`. Bit-identity class (the complex
/// product preserves the `Complex64: Mul` operand order).
///
/// # Panics
/// Panics when `twiddles.len() != half` or `buf.len()` is not a multiple
/// of `2·half`.
#[inline]
pub fn butterfly_stage(buf: &mut [Complex64], half: usize, twiddles: &[Complex64]) {
    assert_eq!(twiddles.len(), half, "stage twiddle table must have `half` entries");
    assert!(
        half > 0 && buf.len() % (2 * half) == 0,
        "buffer length {} is not a multiple of 2*half = {}",
        buf.len(),
        2 * half
    );
    // SAFETY: the two asserts above are exactly the preconditions of
    // `sse2::butterfly_stage`.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        sse2::butterfly_stage(buf, half, twiddles);
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::butterfly_stage(buf, half, twiddles);
}

/// Pointwise complex product `out[i] = a[i] · b[i]`. Bit-identity class
/// (complex multiplication is bitwise commutative — IEEE `×` and `+` are —
/// so one kernel serves both operand orders).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn cmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert!(a.len() == b.len() && a.len() == out.len(), "cmul_into requires equal-length slices");
    for ((x, y), o) in a.iter().zip(b).zip(out) {
        *o = *x * *y;
    }
}

/// Pointwise complex product `a[i] *= b[i]`. Bit-identity class.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn cmul_in_place(a: &mut [Complex64], b: &[Complex64]) {
    assert_eq!(a.len(), b.len(), "cmul_in_place requires equal-length slices");
    for (x, y) in a.iter_mut().zip(b) {
        *x *= *y;
    }
}

/// Conjugates every element in place. Bit-identity class.
pub fn conj_in_place(buf: &mut [Complex64]) {
    for c in buf {
        *c = c.conj();
    }
}

/// `buf[i] = conj(buf[i]) · k` in place — the IFFT epilogue. Bit-identity
/// class.
pub fn conj_scale_in_place(buf: &mut [Complex64], k: f64) {
    for c in buf {
        *c = c.conj().scale(k);
    }
}

/// Piecewise-linear evaluation of `points` on the regular grid
/// `t0, t0+dt, …` (`count` points) into `out` (cleared first),
/// bit-identical to per-point [`crate::interpolate::linear_eval`] —
/// including the boundary clamping — but using a monotone segment scan
/// (`O(n + count)`) instead of a binary search per query when `dt > 0`.
/// Bit-identity class.
///
/// # Panics
/// Panics when `points` is empty.
pub fn lerp_grid_into(points: &[(f64, f64)], t0: f64, dt: f64, count: usize, out: &mut Vec<f64>) {
    assert!(!points.is_empty(), "lerp_grid_into requires at least one point");
    out.clear();
    if dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
        // Non-monotone grid: fall back to the per-point binary search
        // (identical arithmetic — this *is* the legacy evaluation).
        out.extend((0..count).map(|k| crate::interpolate::linear_eval(points, t0 + dt * k as f64)));
        return;
    }
    let n = points.len();
    let (t_first, y_first) = points[0];
    let (t_last, y_last) = points[n - 1];
    let mut idx = 1usize;
    for k in 0..count {
        let x = t0 + dt * k as f64;
        let y = if x <= t_first {
            y_first
        } else if x >= t_last {
            y_last
        } else {
            while points[idx].0 <= x {
                idx += 1;
            }
            let (x0, y0) = points[idx - 1];
            let (x1, y1) = points[idx];
            let w = (x - x0) / (x1 - x0);
            y0 + w * (y1 - y0)
        };
        out.push(y);
    }
}

/// Natural-cubic-spline evaluation of (`points`, second derivatives `m2`)
/// on the regular grid into `out` (cleared first), bit-identical to the
/// per-point spline evaluation used by `SignalWorkspace::resample_into`
/// and `CubicSpline::eval`, with a monotone segment scan. Bit-identity
/// class.
///
/// # Panics
/// Panics when `points` is empty or `m2.len() != points.len()`.
pub fn spline_grid_into(
    points: &[(f64, f64)],
    m2: &[f64],
    t0: f64,
    dt: f64,
    count: usize,
    out: &mut Vec<f64>,
) {
    assert!(!points.is_empty(), "spline_grid_into requires at least one point");
    assert_eq!(m2.len(), points.len(), "one second derivative per knot");
    out.clear();
    let n = points.len();
    if n == 1 {
        // `spline_eval` returns the single knot value on both sides of
        // its clamp branch.
        out.extend(std::iter::repeat_n(points[0].1, count));
        return;
    }
    if dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
        out.extend(
            (0..count).map(|k| crate::workspace::spline_eval(points, m2, t0 + dt * k as f64)),
        );
        return;
    }
    let (t_first, y_first) = points[0];
    let (t_last, y_last) = points[n - 1];
    let mut idx = 1usize;
    for k in 0..count {
        let x = t0 + dt * k as f64;
        let y = if x <= t_first {
            y_first
        } else if x >= t_last {
            y_last
        } else {
            while points[idx].0 <= x {
                idx += 1;
            }
            let (x0, y0) = points[idx - 1];
            let (x1, y1) = points[idx];
            let (m0, m1) = (m2[idx - 1], m2[idx]);
            let h = x1 - x0;
            let a = (x1 - x) / h;
            let b = (x - x0) / h;
            a * y0 + b * y1 + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0
        };
        out.push(y);
    }
}

/// The portable butterfly: the only body off `x86_64`, and the reference
/// the SSE2 body is tested against. Exposed for the differential tests and
/// the kernel microbench.
#[doc(hidden)]
pub mod scalar {
    use crate::complex::Complex64;

    /// One radix-2 butterfly stage (see [`super::butterfly_stage`]).
    pub fn butterfly_stage(buf: &mut [Complex64], half: usize, twiddles: &[Complex64]) {
        let n = buf.len();
        let mut start = 0;
        while start < n {
            for (j, &w) in twiddles.iter().enumerate() {
                let k = start + j;
                let even = buf[k];
                let odd = buf[k + half] * w;
                buf[k] = even + odd;
                buf[k + half] = even - odd;
            }
            start += half * 2;
        }
    }
}

/// The SSE2 butterfly (baseline ABI on `x86_64` — every CPU has it, no
/// detection). Bit-identical to [`scalar::butterfly_stage`] on finite
/// inputs.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use crate::complex::Complex64;
    use std::arch::x86_64::*;

    /// Complex product of two `[re, im]` registers with the exact
    /// `Complex64: Mul` rounding: `re = a.re·b.re − a.im·b.im`,
    /// `im = a.re·b.im + a.im·b.re`. SSE2 has no `addsubpd` (that is
    /// SSE3), so the subtraction in lane 0 is an `xorpd` sign flip plus
    /// `addpd` — exact, because IEEE `x − y ≡ x + (−y)`. `sign_lo` must
    /// carry the sign bit in lane 0 only.
    #[inline(always)]
    fn cmul(a: __m128d, b: __m128d, sign_lo: __m128d) -> __m128d {
        // SAFETY: register-only SSE2 arithmetic; SSE2 is part of the
        // x86_64 baseline.
        unsafe {
            let are = _mm_unpacklo_pd(a, a); // [a.re, a.re]
            let aim = _mm_unpackhi_pd(a, a); // [a.im, a.im]
            let bsw = _mm_shuffle_pd::<0b01>(b, b); // [b.im, b.re]
            let v1 = _mm_mul_pd(are, b); // [a.re·b.re, a.re·b.im]
            let v2 = _mm_mul_pd(aim, bsw); // [a.im·b.im, a.im·b.re]
            _mm_add_pd(v1, _mm_xor_pd(v2, sign_lo))
        }
    }

    /// Butterfly stage: one complex element is exactly one `__m128d`
    /// (`Complex64` is `repr(C)` `{re, im}`), so `even ± odd` are plain
    /// `addpd`/`subpd`.
    ///
    /// # Safety
    /// `twiddles.len()` must equal `half` and `buf.len()` must be a
    /// multiple of `2·half`: the loads and stores are unchecked.
    pub(super) unsafe fn butterfly_stage(
        buf: &mut [Complex64],
        half: usize,
        twiddles: &[Complex64],
    ) {
        let n = buf.len();
        let p = buf.as_mut_ptr() as *mut f64;
        let tw = twiddles.as_ptr() as *const f64;
        // Lane 0 carries the sign bit: xor negates lane 0 only.
        let sign = _mm_set_pd(0.0, -0.0);
        let mut start = 0;
        while start < n {
            for j in 0..half {
                let k = start + j;
                let w = _mm_loadu_pd(tw.add(2 * j));
                let even = _mm_loadu_pd(p.add(2 * k));
                let odd_raw = _mm_loadu_pd(p.add(2 * (k + half)));
                let odd = cmul(odd_raw, w, sign);
                _mm_storeu_pd(p.add(2 * k), _mm_add_pd(even, odd));
                _mm_storeu_pd(p.add(2 * (k + half)), _mm_sub_pd(even, odd));
            }
            start += half * 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bits_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn sum_is_exact_on_integers() {
        let xs: Vec<f64> = (0..103).map(|k| (k % 17) as f64 - 8.0).collect();
        // Integer-valued doubles sum exactly regardless of association.
        let expect: f64 = xs.iter().sum();
        assert_eq!(sum(&xs), expect);
    }

    #[test]
    fn butterfly_matches_scalar_reference() {
        for n in [2usize, 4, 8, 32] {
            let base: Vec<Complex64> = (0..n)
                .map(|k| Complex64::new((k as f64 * 0.7).sin(), (k as f64 * 1.1).cos()))
                .collect();
            let mut half = 1;
            while half < n {
                let step = -std::f64::consts::PI / half as f64;
                let w_base = Complex64::cis(step);
                let mut w = Complex64::ONE;
                let tw: Vec<Complex64> = (0..half)
                    .map(|_| {
                        let cur = w;
                        w *= w_base;
                        cur
                    })
                    .collect();
                let mut a = base.clone();
                let mut b = base.clone();
                scalar::butterfly_stage(&mut a, half, &tw);
                butterfly_stage(&mut b, half, &tw);
                for (x, y) in a.iter().zip(&b) {
                    assert!(f64_bits_eq(x.re, y.re) && f64_bits_eq(x.im, y.im));
                }
                half *= 2;
            }
        }
    }

    #[test]
    fn lerp_grid_matches_legacy_eval_bitwise() {
        let points: Vec<(f64, f64)> =
            (0..25).map(|k| (k as f64 * 7.3 + 2.0, ((k * 13) % 29) as f64 - 10.0)).collect();
        let (t0, dt, count) = (-10.0, 0.9, 250);
        let mut out = Vec::new();
        lerp_grid_into(&points, t0, dt, count, &mut out);
        assert_eq!(out.len(), count);
        for (k, v) in out.iter().enumerate() {
            let legacy = crate::interpolate::linear_eval(&points, t0 + dt * k as f64);
            assert!(f64_bits_eq(*v, legacy), "k={k}");
        }
    }
}
