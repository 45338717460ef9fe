//! FFT plans: everything about a transform length that does not depend
//! on the input, computed once and reused for every transform of that
//! length.
//!
//! A fixed analysis window means the identification pipeline transforms the
//! same handful of lengths thousands of times: the paper's 3600 s window
//! (Bluestein, three radix-2 passes of length 8192), its `PaddedPow2`
//! variant (4096), and the Bluestein-internal power of two. [`FftPlan`]
//! captures:
//!
//! * radix-2: the per-stage twiddle factors, generated by an incremental
//!   product chain;
//! * Bluestein: the chirp sequence and the forward-FFT'd circular
//!   `b`-sequence, both pure functions of `N`.
//!
//! These are the only FFT bodies in the crate: the free functions in
//! [`crate::fft`] build a plan per call. [`PlanCache`] memoises plans by
//! length and counts hits/misses so the throughput benchmark can prove the
//! cache is doing its job. Execution against a plan never allocates:
//! callers supply the scratch buffer (normally owned by a
//! `SignalWorkspace`).

use crate::complex::Complex64;
use crate::fft::{is_power_of_two, next_power_of_two};
use std::collections::HashMap;
use taxilight_obs::metrics::{self, Counter, MetricClass};

/// Registry name of the plan-cache lookup counters (labelled
/// `result="hit"` / `result="miss"`).
pub const PLAN_CACHE_LOOKUPS_METRIC: &str = "taxilight_plan_cache_lookups_total";

fn lookup_counter(result: &'static str) -> Counter {
    // Volatile, not deterministic: totals across caches are seed-fixed,
    // but the engine's workspace pool hands caches to shard workers in
    // scheduling-dependent order, so per-run interleavings (and any
    // future per-cache labels) are not byte-reproducible.
    metrics::global().counter(
        PLAN_CACHE_LOOKUPS_METRIC,
        &[("result", result)],
        MetricClass::Volatile,
        "FFT plan cache lookups by outcome",
    )
}

/// Twiddle tables for the iterative radix-2 transform of one length.
///
/// Stage `s` (butterfly half-size `2^s`) stores the sequence
/// `1, w, w², …` produced by repeated multiplication with
/// `w = e^{-iπ/2^s}` — *not* a fresh `cis` per entry. The golden digests
/// in `tests/golden.rs` pin the bits this chain produces.
#[derive(Debug, Clone)]
pub struct Pow2Plan {
    n: usize,
    /// Concatenated per-stage twiddles: stage of half-size `h` contributes
    /// `h` entries, `n − 1` in total.
    twiddles: Vec<Complex64>,
}

impl Pow2Plan {
    /// Builds the plan for a power-of-two length.
    ///
    /// # Panics
    /// Panics when `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "Pow2Plan requires a power-of-two length, got {n}");
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let step = -std::f64::consts::PI / half as f64;
            let w_base = Complex64::cis(step);
            let mut w = Complex64::ONE;
            for _ in 0..half {
                twiddles.push(w);
                w *= w_base;
            }
            half *= 2;
        }
        Pow2Plan { n, twiddles }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan (never constructible; kept for
    /// API symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// In-place radix-2 FFT using a prebuilt [`Pow2Plan`], allocation-free.
///
/// # Panics
/// Panics when `buf.len()` differs from the plan's length.
pub fn fft_pow2_in_place_with(plan: &Pow2Plan, buf: &mut [Complex64]) {
    let n = buf.len();
    assert_eq!(n, plan.n, "plan is for length {}, buffer has length {n}", plan.n);
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }

    // Butterflies: every `start` block of a stage restarts its twiddle at 1,
    // so one per-stage table serves all blocks. Each stage runs through the
    // butterfly kernel (its SSE2 and scalar bodies are bit-identical).
    let mut half = 1;
    let mut toff = 0;
    while half < n {
        let stage = &plan.twiddles[toff..toff + half];
        crate::kernels::butterfly_stage(buf, half, stage);
        toff += half;
        half *= 2;
    }
}

/// Bluestein chirp-z plan for one arbitrary length `n`: the chirp, the
/// forward transform of the circular `b`-sequence, and the radix-2 plan for
/// the internal length `m = next_pow2(2n − 1)`.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    /// `w_k = e^{-iπ(k² mod 2n)/n}`, `k ∈ [0, n)`.
    chirp: Vec<Complex64>,
    /// Forward FFT of the circular `b` sequence (`b[0] = conj(w_0)`,
    /// `b[k] = b[m−k] = conj(w_k)`), length `m`.
    b_fft: Vec<Complex64>,
    pow2: Pow2Plan,
}

impl BluesteinPlan {
    /// Builds the plan. `n` must be positive (and is typically not a power
    /// of two, though the plan works for any length).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "BluesteinPlan requires a positive length");
        let m = next_power_of_two(2 * n - 1);
        let pow2 = Pow2Plan::new(m);

        // Chirp w_k = e^{-iπk²/n}, with k² reduced mod 2n to keep the
        // angles accurate (e^{-iπk²/n} has period 2n in k²).
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex64::cis(-std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();

        let mut b_fft = vec![Complex64::ZERO; m];
        b_fft[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b_fft[k] = c;
            b_fft[m - k] = c;
        }
        fft_pow2_in_place_with(&pow2, &mut b_fft);

        BluesteinPlan { n, m, chirp, b_fft, pow2 }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan (never constructible; kept for
    /// API symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward FFT of `buf` in place, using `scratch` as the length-`m`
    /// convolution buffer; allocation-free once `scratch` has capacity `m`.
    pub fn process(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let n = self.n;
        assert_eq!(buf.len(), n, "plan is for length {n}, buffer has length {}", buf.len());
        let m = self.m;

        // a_k = x_k · w_k, zero-padded to m (complex × is bitwise
        // commutative, so the kernel matches `buf[k] * chirp[k]`).
        scratch.clear();
        scratch.resize(m, Complex64::ZERO);
        crate::kernels::cmul_into(buf, &self.chirp, &mut scratch[..n]);

        fft_pow2_in_place_with(&self.pow2, scratch);
        crate::kernels::cmul_in_place(scratch, &self.b_fft);

        // Inverse FFT of the product, in place:
        // IFFT(x) = conj(FFT(conj(x))) / m.
        crate::kernels::conj_in_place(scratch);
        fft_pow2_in_place_with(&self.pow2, scratch);
        let inv_m = 1.0 / m as f64;
        crate::kernels::conj_scale_in_place(scratch, inv_m);

        // Y_k = w_k · conv_k.
        crate::kernels::cmul_into(&self.chirp, &scratch[..n], buf);
    }
}

/// A plan for one transform length, radix-2 or Bluestein.
#[derive(Debug, Clone)]
pub enum FftPlan {
    /// Direct radix-2 plan (power-of-two lengths).
    Pow2(Pow2Plan),
    /// Bluestein chirp-z plan (any length).
    Bluestein(BluesteinPlan),
}

impl FftPlan {
    /// Builds the right plan kind for `n` (must be positive).
    pub fn new(n: usize) -> Self {
        if is_power_of_two(n) {
            FftPlan::Pow2(Pow2Plan::new(n))
        } else {
            FftPlan::Bluestein(BluesteinPlan::new(n))
        }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        match self {
            FftPlan::Pow2(p) => p.len(),
            FftPlan::Bluestein(b) => b.len(),
        }
    }

    /// True for the degenerate length-0 plan (never constructible; kept for
    /// API symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forward FFT of `buf` in place. `scratch` is only touched on the
    /// Bluestein path.
    pub fn fft_in_place(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        match self {
            FftPlan::Pow2(p) => fft_pow2_in_place_with(p, buf),
            FftPlan::Bluestein(b) => b.process(buf, scratch),
        }
    }

    /// Inverse FFT of `buf` in place (including the `1/N` factor):
    /// `IFFT(x) = conj(FFT(conj(x))) / N`.
    pub fn ifft_in_place(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        crate::kernels::conj_in_place(buf);
        self.eq1_in_place(buf, scratch);
    }

    /// The paper's Eq. (1) transform of `buf` in place: positive exponent
    /// and a `1/N` factor, i.e. `conj(FFT(x)) / N`.
    pub fn eq1_in_place(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        self.fft_in_place(buf, scratch);
        let inv_n = 1.0 / buf.len() as f64;
        crate::kernels::conj_scale_in_place(buf, inv_n);
    }
}

/// Hit/miss counters of a [`PlanCache`] — surfaced through `EngineStats`
/// and the throughput report so a run can prove the plans were reused.
///
/// A read-only **view type**: every lookup is mirrored into the
/// process-wide [`PLAN_CACHE_LOOKUPS_METRIC`] counters, and
/// [`PlanCacheStats::from_registry`] reads them back. The fields are
/// private; read them through [`hits()`](PlanCacheStats::hits) /
/// [`misses()`](PlanCacheStats::misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered by an existing plan.
    hits: u64,
    /// Lookups that had to build a plan.
    misses: u64,
}

impl PlanCacheStats {
    /// Lookups answered by an existing plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build a plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// The process-wide totals from the metrics registry: every lookup
    /// of every [`PlanCache`] in the process since startup (cumulative —
    /// unlike per-cache stats, [`PlanCache::reset_stats`] does not
    /// rewind these).
    pub fn from_registry() -> Self {
        PlanCacheStats { hits: lookup_counter("hit").get(), misses: lookup_counter("miss").get() }
    }
}

/// Per-owner plan memo, keyed by transform length. Deliberately not shared:
/// each worker owns one cache (inside its workspace), so lookups take no
/// locks. Every lookup is additionally mirrored into the process-wide
/// [`PLAN_CACHE_LOOKUPS_METRIC`] registry counters — one relaxed atomic
/// add, no allocation, so the hot path stays inside the zero-alloc gate.
#[derive(Debug)]
pub struct PlanCache {
    plans: HashMap<usize, FftPlan>,
    hits: u64,
    misses: u64,
    hit_counter: Counter,
    miss_counter: Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache. Registers (or re-resolves) the process-wide
    /// lookup counters — the only point at which this type touches the
    /// registry lock.
    pub fn new() -> Self {
        PlanCache {
            plans: HashMap::new(),
            hits: 0,
            misses: 0,
            hit_counter: lookup_counter("hit"),
            miss_counter: lookup_counter("miss"),
        }
    }

    /// The plan for length `n`, building it on first request. After warmup
    /// this is one hash lookup and no allocation.
    ///
    /// # Panics
    /// Panics when `n` is zero (a zero-length transform has no plan; the
    /// callers special-case it).
    pub fn get_or_build(&mut self, n: usize) -> &FftPlan {
        assert!(n > 0, "no plan for a zero-length transform");
        use std::collections::hash_map::Entry;
        match self.plans.entry(n) {
            Entry::Occupied(e) => {
                self.hits += 1;
                self.hit_counter.inc();
                e.into_mut()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                self.miss_counter.inc();
                v.insert(FftPlan::new(n))
            }
        }
    }

    /// Number of distinct lengths planned so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan has been built yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats { hits: self.hits, misses: self.misses }
    }

    /// Resets this cache's hit/miss counters (plans stay cached). The
    /// registry totals are monotonic and are deliberately left alone.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn pow2_plan_rejects_non_pow2() {
        Pow2Plan::new(6);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_wrong_buffer_length() {
        let plan = Pow2Plan::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        fft_pow2_in_place_with(&plan, &mut buf);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = PlanCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get_or_build(3600).len(), 3600);
        assert_eq!(cache.get_or_build(3600).len(), 3600);
        assert_eq!(cache.get_or_build(4096).len(), 4096);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        cache.reset_stats();
        assert_eq!(cache.stats(), PlanCacheStats::default());
        assert_eq!(cache.len(), 2, "reset must keep the plans");
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = PlanCacheStats { hits: 3, misses: 1 };
        a.merge(PlanCacheStats { hits: 2, misses: 4 });
        assert_eq!(a, PlanCacheStats { hits: 5, misses: 5 });
        assert_eq!((a.hits(), a.misses(), a.total()), (5, 5, 10));
    }

    #[test]
    fn lookups_mirror_into_registry() {
        // Other tests in this binary also drive PlanCaches concurrently,
        // so assert monotone growth by at least our own contribution
        // rather than exact registry deltas.
        let before = PlanCacheStats::from_registry();
        let mut cache = PlanCache::new();
        cache.get_or_build(60);
        cache.get_or_build(60);
        cache.get_or_build(60);
        let after = PlanCacheStats::from_registry();
        assert!(after.hits() >= before.hits() + 2, "hits: {before:?} -> {after:?}");
        assert!(after.misses() > before.misses(), "misses: {before:?} -> {after:?}");
        // reset_stats rewinds the per-cache view only.
        cache.reset_stats();
        assert_eq!(cache.stats(), PlanCacheStats::default());
        assert!(PlanCacheStats::from_registry().misses() > before.misses());
    }
}
