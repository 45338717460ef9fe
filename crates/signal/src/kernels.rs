//! The inner loops of the signal hot path.
//!
//! Every inner loop that dominates a per-light identification lap — complex
//! magnitudes, radix-2 butterfly passes, Bluestein's pointwise complex
//! products, the grid-resample evaluations, the 4-lane sums behind means
//! and variances and the epoch fold of fold validation — lives here once,
//! as portable scalar code written so the autovectorizer can lift it. Two
//! kernels keep a second, explicit SSE2 body on `x86_64` (part of the
//! baseline ABI, so no feature detection), chosen at compile time:
//! [`butterfly_stage`] and [`fold_bins`]. Measured at the shapes the
//! pipeline runs, they are the kernels whose SIMD bodies pay end to end.
//!
//! # Numeric contract
//!
//! The SSE2 butterfly is bit-identical to [`scalar::butterfly_stage`] on
//! finite inputs, and the SSE2 fold to [`scalar::fold_bins`] on every input
//! (both pinned by `tests/kernel_identity.rs`). The butterfly performs the
//! same IEEE-754 operations in the same order; the fold reaches the same
//! bin for every sample by other operations (see [`fold_bins`]) and sums
//! each bin in sample order. Relative to the *legacy* (pre-kernel) code
//! two classes exist:
//!
//! * **bit-identity class** — element-wise kernels (butterflies, complex
//!   products, conjugate/scale, resample evaluations, demean subtraction)
//!   and the fold preserve the legacy summation order and stay
//!   bit-identical to it;
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
//!
//! # The exact fold
//!
//! Both bodies of [`fold_bins`] take each sample's remainder
//! `t.rem_euclid(cycle)` bit for bit without libm's `fmod`. The scalar body
//! does so wherever `0 ≤ t/cycle < 2²⁶` and `cycle` is normal. There
//! `cycle` splits into `hi` (its top 26 significant bits) and
//! `lo = cycle − hi`, both exact, and `q = trunc(t / cycle)` is the true
//! quotient `n` or `n + 1` (the division may round up onto the next
//! integer). Then every step of `r = (t − q·hi) − q·lo` is exact: `q·hi`
//! and `q·lo` fit in 53 bits; `t − q·hi` is exact because `q·hi` lies
//! within a factor of two of `t` or, when `q = 1` and `hi < t/2`, on `t`'s
//! own grid; and the final difference is `t − q·cycle`, which is either
//! `fmod`'s result or that minus `cycle`, a few ulps of `t` at most — both
//! representable. Adding `cycle` back when `r < 0` therefore lands exactly
//! on `fmod`'s result. Outside that domain (negative or huge `t`,
//! non-finite values, a subnormal or infinite `cycle`) the scalar body
//! folds with `rem_euclid`. The SSE2 body replaces the division by a
//! product with `fl(1/cycle)` on a narrower domain; [`fold_bins`] gives
//! the argument.

use crate::complex::Complex64;

/// Name of the instruction path of the two-bodied kernels, for benchmark
/// environment capture: `"sse2"` on `x86_64`, `"portable"` elsewhere.
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
/// bit-identical to per-point `interpolate::linear_eval` —
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
/// per-point `CubicSpline::eval`, with a monotone segment scan.
/// Bit-identity class.
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
            (0..count).map(|k| crate::interpolate::spline_eval(points, m2, t0 + dt * k as f64)),
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

/// Phase bins of one epoch fold ([`fold_bins`]).
pub const FOLD_BINS: usize = 12;

/// The sample columns [`fold_bins`] reads: each sample's time `t` and its
/// `[v, v²]` pair. Filled once from `(t, v)` samples, then folded at any
/// number of periods; buffers grow on first use and are kept.
#[derive(Debug, Clone, Default)]
pub struct FoldColumns {
    t: Vec<f64>,
    vv: Vec<[f64; 2]>,
    /// The largest `t` when every `t` is finite and ≥ 0, +∞ otherwise: all
    /// the SSE2 fold's domain check needs to know of the times.
    t_max: f64,
}

impl FoldColumns {
    /// Empty columns.
    pub fn new() -> Self {
        FoldColumns::default()
    }

    /// Refills the columns from `(t, v)` samples, in order.
    pub fn fill(&mut self, samples: &[(f64, f64)]) {
        self.t.clear();
        self.t.extend(samples.iter().map(|&(t, _)| t));
        self.vv.clear();
        self.vv.extend(samples.iter().map(|&(_, v)| [v, v * v]));
        self.t_max = self
            .t
            .iter()
            .try_fold(0.0f64, |m, &t| (t >= 0.0 && t.is_finite()).then(|| m.max(t)))
            .unwrap_or(f64::INFINITY);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the columns hold no sample.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }
}

/// One fold's accumulations ([`fold_bins`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldBins {
    /// `[Σv, Σv²]` of each phase bin, summed in sample order.
    pub sums: [[f64; 2]; FOLD_BINS],
    /// Samples in each phase bin.
    pub counts: [usize; FOLD_BINS],
}

impl FoldBins {
    #[inline(always)]
    fn add(&mut self, b: usize, vv: [f64; 2]) {
        let s = &mut self.sums[b];
        s[0] += vv[0];
        s[1] += vv[1];
        self.counts[b] += 1;
    }
}

/// Folds the columns at period `cycle`: each sample goes to the phase bin
/// `min(11, trunc((r / cycle)·12))` of its remainder
/// `r = t.rem_euclid(cycle)`, and each bin sums `v` and `v²` and counts
/// its samples, in sample order. Bit-identity class: the result equals
/// that loop with `rem_euclid` bit for bit, on any input, though neither
/// body calls libm's `fmod`.
///
/// [`scalar::fold_bins`] divides twice per sample: once for the quotient
/// of the exact remainder the [module docs](self) derive, once for the
/// phase.
/// The SSE2 body folds two samples per step without a division, wherever
/// `cycle`, `1/cycle` and `12/cycle` are normal and every `t` is finite,
/// ≥ 0 and < 2²⁵·`cycle`; any other call runs the scalar body. With
/// `n = ⌊t/cycle⌋` and `cycle = hi + lo` split as in the scalar body:
///
/// * **Quotient.** `q = trunc(t·fl(1/cycle))` lies within a relative 2⁻⁵²
///   of `t/cycle`, so it is `n − 1`, `n` or `n + 1`. `q·hi` and `q·lo` are
///   exact (`q` has at most 26 significant bits, `hi` 26, `lo` 27), and so
///   is `A = t − q·hi`: both terms are multiples of `ulp(t)` (`hi`'s last
///   bit is at or above it, because `t < 2²⁵·cycle`), and `A` either lies
///   in `[0, t]` or, for `q = n + 1`, within a few ulps of `t` below zero.
///   For `q = n` and `n + 1`, `r = A − q·lo` is `t − q·cycle` exactly, as
///   in the scalar body. For `q = n − 1` the true `t − q·cycle` is at least
///   `cycle`, and rounding it once cannot take it below the representable
///   `cycle`: the case always shows as `r ≥ cycle` and is redone with
///   `q + 1`. A negative `r` then gains `cycle`, which lands exactly on
///   `fmod`'s result.
/// * **Bin.** `b = min(11, trunc(r·fl(12/cycle)))` differs from the scalar
///   bin by at most one, since both products lie within a relative 2⁻⁵¹ of
///   `12·r/cycle`. The scalar bin map is monotone in `r` (each of its
///   steps is), so it reaches bin `k` exactly when `r ≥ T_k`, for eleven
///   per-period thresholds `T_k`, each found once per call by ulp steps.
///   Two compares against `T_b` and `T_(b+1)` correct `b`.
/// * **Sums.** Each bin adds its samples' `v` and `v²` in sample order.
pub fn fold_bins(cols: &FoldColumns, cycle: f64) -> FoldBins {
    #[cfg(target_arch = "x86_64")]
    if let Some(grid) = sse2::FoldGrid::new(cycle, cols.t_max) {
        return sse2::fold_bins(&cols.t, &cols.vv, &grid);
    }
    scalar::fold_bins(cols, cycle)
}

/// The phase bin of a remainder `r ∈ [0, cycle)` as both fold bodies
/// define it: `min(11, trunc((r / cycle)·12))`.
#[inline(always)]
fn phase_bin(r: f64, cycle: f64) -> usize {
    ((r / cycle * FOLD_BINS as f64) as usize).min(FOLD_BINS - 1)
}

/// `t.rem_euclid(cycle)`, bit for bit, without `fmod` wherever
/// `0 ≤ t/cycle < 2²⁶` and `cycle` is normal; the [module docs](self)
/// give the argument. Elsewhere the remainder is `rem_euclid`'s own.
struct ExactFold {
    cycle: f64,
    /// `cycle` with the low 27 mantissa bits cleared.
    hi: f64,
    /// `cycle − hi`, exact.
    lo: f64,
    /// Largest quotient taken on the fast path: 2²⁶ for a normal `cycle`,
    /// 0 (every sample falls back) otherwise.
    limit: f64,
}

impl ExactFold {
    fn new(cycle: f64) -> Self {
        let hi = f64::from_bits(cycle.to_bits() & !((1u64 << 27) - 1));
        let limit = if cycle.is_normal() { (1u64 << 26) as f64 } else { 0.0 };
        ExactFold { cycle, hi, lo: cycle - hi, limit }
    }

    #[inline(always)]
    fn rem(&self, t: f64) -> f64 {
        let q = t / self.cycle;
        if q >= 0.0 && q < self.limit {
            let q = q as i64 as f64;
            let r = (t - q * self.hi) - q * self.lo;
            if r < 0.0 {
                r + self.cycle
            } else {
                r
            }
        } else {
            t.rem_euclid(self.cycle)
        }
    }
}

/// The portable bodies of the two-bodied kernels: the only bodies off
/// `x86_64`, and the references the SSE2 bodies are tested against.
/// Exposed for the differential tests and the kernel microbench.
#[doc(hidden)]
pub mod scalar {
    use super::{phase_bin, ExactFold, FoldBins, FoldColumns};
    use crate::complex::Complex64;

    /// The fold (see [`super::fold_bins`]), one sample at a time: the
    /// exact remainder, then the phase bin.
    pub fn fold_bins(cols: &FoldColumns, cycle: f64) -> FoldBins {
        let fold = ExactFold::new(cycle);
        let mut bins = FoldBins::default();
        for (&t, &vv) in cols.t.iter().zip(&cols.vv) {
            bins.add(phase_bin(fold.rem(t), cycle), vv);
        }
        bins
    }

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

/// The SSE2 butterfly and fold (baseline ABI on `x86_64` — every CPU has
/// it, no detection). Bit-identical to [`scalar::butterfly_stage`] on
/// finite inputs and to [`scalar::fold_bins`] on every input.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{phase_bin, ExactFold, FoldBins, FOLD_BINS};
    use crate::complex::Complex64;
    use std::arch::x86_64::*;

    /// The per-period constants of the SSE2 fold.
    pub(super) struct FoldGrid {
        cycle: f64,
        /// `fl(1/cycle)`.
        inv: f64,
        /// `fl(12/cycle)`.
        inv12: f64,
        /// `cycle`'s top 26 significant bits, as in the scalar body.
        hi: f64,
        /// `cycle − hi`, exact.
        lo: f64,
        /// `thresholds[k]` is the least `r` in bin `k` or above
        /// ([`bin_threshold`]) for `1 ≤ k < 12`; −∞ at 0 and +∞ at 12, so
        /// two compares correct any estimate in `0..12`.
        thresholds: [f64; FOLD_BINS + 1],
    }

    impl FoldGrid {
        /// The constants for folding at `cycle` times that are all finite,
        /// ≥ 0 and ≤ `t_max` (+∞ when they are not); `None` outside the
        /// SSE2 body's domain (see [`super::fold_bins`]).
        pub(super) fn new(cycle: f64, t_max: f64) -> Option<FoldGrid> {
            let (inv, inv12) = (1.0 / cycle, FOLD_BINS as f64 / cycle);
            let in_domain = cycle > 0.0
                && cycle.is_normal()
                && inv.is_normal()
                && inv12.is_normal()
                && t_max < (1u64 << 25) as f64 * cycle;
            if !in_domain {
                return None;
            }
            let ExactFold { hi, lo, .. } = ExactFold::new(cycle);
            // Most starts are their threshold already (about three in
            // four at the periods fold validation tries): check them all
            // in one pass of independent divisions, then walk the rest.
            let mut thresholds = [f64::NEG_INFINITY; FOLD_BINS + 1];
            thresholds[FOLD_BINS] = f64::INFINITY;
            let mut exact = [false; FOLD_BINS];
            for k in 1..FOLD_BINS {
                let r = threshold_start(k, cycle);
                thresholds[k] = r;
                exact[k] = (phase_bin(r, cycle) >= k) & (phase_bin(below(r), cycle) < k);
            }
            for k in 1..FOLD_BINS {
                if !exact[k] {
                    thresholds[k] = bin_threshold(k, cycle);
                }
            }
            Some(FoldGrid { cycle, inv, inv12, hi, lo, thresholds })
        }

        /// Both lanes' phase bins of the times in `t`.
        #[inline(always)]
        fn bins(&self, t: __m128d) -> [usize; 2] {
            // SAFETY: register-only SSE2 arithmetic; SSE2 is part of the
            // x86_64 baseline.
            unsafe {
                let cycle = _mm_set1_pd(self.cycle);
                let (hi, lo) = (_mm_set1_pd(self.hi), _mm_set1_pd(self.lo));
                let rem = |q| _mm_sub_pd(_mm_sub_pd(t, _mm_mul_pd(q, hi)), _mm_mul_pd(q, lo));
                let q = _mm_cvtepi32_pd(_mm_cvttpd_epi32(_mm_mul_pd(t, _mm_set1_pd(self.inv))));
                let mut r = rem(q);
                // q = n − 1: redo those lanes with q + 1.
                let low = _mm_cmpge_pd(r, cycle);
                if _mm_movemask_pd(low) != 0 {
                    r = rem(_mm_add_pd(q, _mm_and_pd(low, _mm_set1_pd(1.0))));
                }
                // q = n + 1: the remainder is r + cycle.
                r = _mm_add_pd(r, _mm_and_pd(_mm_cmplt_pd(r, _mm_setzero_pd()), cycle));
                let last = _mm_set1_pd((FOLD_BINS - 1) as f64);
                let b = _mm_cvttpd_epi32(_mm_min_pd(_mm_mul_pd(r, _mm_set1_pd(self.inv12)), last));
                [
                    self.exact_bin(_mm_cvtsi128_si32(b) as usize, _mm_cvtsd_f64(r)),
                    self.exact_bin(
                        _mm_cvtsi128_si32(_mm_shuffle_epi32::<0b01>(b)) as usize,
                        _mm_cvtsd_f64(_mm_unpackhi_pd(r, r)),
                    ),
                ]
            }
        }

        /// The scalar bin of remainder `r`, from an estimate `b` at most
        /// one away.
        #[inline(always)]
        fn exact_bin(&self, b: usize, r: f64) -> usize {
            b + usize::from(r >= self.thresholds[b + 1]) - usize::from(r < self.thresholds[b])
        }
    }

    /// Where the search for bin `k`'s threshold starts: `cycle·(k/12)`,
    /// within an ulp or two of the threshold.
    #[inline(always)]
    fn threshold_start(k: usize, cycle: f64) -> f64 {
        cycle * (k as f64 / FOLD_BINS as f64)
    }

    /// The float below `r > 0`.
    #[inline(always)]
    fn below(r: f64) -> f64 {
        f64::from_bits(r.to_bits() - 1)
    }

    /// The least `r` whose [`phase_bin`] at `cycle` is `k` or above
    /// (`1 ≤ k < 12`, `cycle` normal): from [`threshold_start`], ulp steps
    /// up until `r` reaches bin `k`, then down while the float below still
    /// does. The bin map is monotone in `r`, so `r` reaches bin `k`
    /// exactly when it is at least the result.
    pub(super) fn bin_threshold(k: usize, cycle: f64) -> f64 {
        let mut r = threshold_start(k, cycle);
        while phase_bin(r, cycle) < k {
            r = f64::from_bits(r.to_bits() + 1);
        }
        while r > 0.0 && phase_bin(below(r), cycle) >= k {
            r = below(r);
        }
        r
    }

    /// The fold, two samples per step (see [`super::fold_bins`]); an odd
    /// last sample takes lane 0 of a step of its own.
    pub(super) fn fold_bins(t: &[f64], vv: &[[f64; 2]], grid: &FoldGrid) -> FoldBins {
        let mut bins = FoldBins::default();
        let (t_pairs, vv_pairs) = (t.chunks_exact(2), vv.chunks_exact(2));
        let (t_tail, vv_tail) = (t_pairs.remainder(), vv_pairs.remainder());
        for (tp, vp) in t_pairs.zip(vv_pairs) {
            // SAFETY: register-only SSE2; SSE2 is part of the x86_64
            // baseline.
            let [b0, b1] = grid.bins(unsafe { _mm_set_pd(tp[1], tp[0]) });
            bins.add(b0, vp[0]);
            bins.add(b1, vp[1]);
        }
        if let (Some(&t), Some(&vv)) = (t_tail.first(), vv_tail.first()) {
            // SAFETY: as above.
            let [b, _] = grid.bins(unsafe { _mm_set1_pd(t) });
            bins.add(b, vv);
        }
        bins
    }

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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_bin_threshold_is_the_least_r_reaching_its_bin() {
        let below = |r: f64| f64::from_bits(r.to_bits() - 1);
        let mut cycles = vec![5.0, 12.0, 97.3, 98.0, 98.25, 120.0, 399.75, 400.0, 1e-300, 1e300];
        cycles.extend((0..200).map(|k| 5.0 + k as f64 * 1.987_654_321));
        for cycle in cycles {
            for k in 1..FOLD_BINS {
                let th = sse2::bin_threshold(k, cycle);
                assert!(phase_bin(th, cycle) >= k, "cycle {cycle:e} k {k}: {th:e} is below bin k");
                assert!(
                    phase_bin(below(th), cycle) < k,
                    "cycle {cycle:e} k {k}: the float below {th:e} reaches bin k"
                );
            }
        }
    }

    mod proptests {
        use super::super::ExactFold;
        use proptest::prelude::*;

        /// `x` moved by `ulps` units in the last place (`x > 0`).
        fn ulps_away(x: f64, ulps: i64) -> f64 {
            f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
        }

        fn same_as_rem_euclid(t: f64, cycle: f64) -> Result<(), TestCaseError> {
            let (got, want) = (ExactFold::new(cycle).rem(t), t.rem_euclid(cycle));
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "t {t:e} cycle {cycle:e}: {got:e} vs {want:e}"
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn exact_fold_equals_rem_euclid_bit_for_bit(
                cycle in 5.0f64..400.0,
                shape in 0u32..3,
                whole in 0u64..=1_000_000,
                frac in 0.0f64..1.0,
                ulps in -3i64..=3,
                tiny in 1u64..(1u64 << 52),
            ) {
                // Periods as the refinement grid makes them: any value,
                // whole seconds and quarter seconds.
                let cycle = match shape {
                    0 => cycle,
                    1 => cycle.round(),
                    _ => (cycle * 4.0).round() / 4.0,
                };
                let t_int = whole as f64;
                let t_frac = frac * 1e6;
                // Within ±3 ulps of a whole number of cycles, where the
                // quotient rounds up onto the next integer.
                let k = (t_frac / cycle).round().max(1.0);
                let near_multiple = ulps_away(k * cycle, ulps);
                let ts = [t_int, t_frac, near_multiple, 0.0, ulps_away(cycle, ulps)];
                for t in ts {
                    same_as_rem_euclid(t, cycle)?;
                    // Fallback domain: negative t.
                    same_as_rem_euclid(-t, cycle)?;
                }
                // Fallback domain: t/cycle at and beyond 2^26.
                let edge = cycle * (1u64 << 26) as f64;
                for t in [ulps_away(edge, ulps), edge * (1.0 + frac), t_frac * 1e9] {
                    same_as_rem_euclid(t, cycle)?;
                }
                // Fallback domain: a subnormal cycle.
                let subnormal = f64::from_bits(tiny);
                for t in [t_frac * 1e-300, ulps_away(subnormal * 3.0, ulps), t_int] {
                    same_as_rem_euclid(t, subnormal)?;
                }
            }
        }
    }
}
