//! Golden digests of the signal chain: FFT, the Eq. (1) spectrum, the
//! Eq. (2) period search, band candidates, same-slot merging, resampling
//! and the cubic spline.
//!
//! Each test runs a fixed case list twice where a stage has a workspace
//! body: once through the free entry point (or a fresh workspace) and once
//! through one workspace or plan cache reused across every case. Each run
//! folds every output — `f64::to_bits`, bins, lengths and error variants —
//! into one FNV-1a digest, and both digests must equal the pinned literal.
//! The literal locks the output bits; the reused run proves that scratch
//! and cached plans never leak from one call into the next.
//!
//! The literals pin the x86_64 Linux build: FFT twiddles and Bluestein
//! chirps come from `Complex64::cis`, which calls the platform libm's
//! `sin_cos`.

use taxilight_signal::fft::{eq1_spectrum, fft, fft_pow2_in_place, ifft};
use taxilight_signal::interpolate::{merge_coincident, resample, CubicSpline, Method};
use taxilight_signal::periodogram::{
    band_candidates, dominant_period, PeriodBand, PeriodEstimate, SpectrumPath,
};
use taxilight_signal::plan::{fft_pow2_in_place_with, FftPlan, PlanCache};
use taxilight_signal::{Complex64, SignalWorkspace};

/// FNV-1a 64-bit over the little-endian bytes of every word fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        self.bytes(words.into_iter().flat_map(u64::to_le_bytes));
    }

    /// A length-prefixed series of floats, by bit pattern.
    fn floats(&mut self, len: usize, vs: impl IntoIterator<Item = f64>) {
        self.words(std::iter::once(len as u64).chain(vs.into_iter().map(f64::to_bits)));
    }

    fn values(&mut self, vs: &[f64]) {
        self.floats(vs.len(), vs.iter().copied());
    }

    fn pairs(&mut self, ps: &[(f64, f64)]) {
        self.floats(ps.len(), ps.iter().flat_map(|&(a, b)| [a, b]));
    }

    fn complex(&mut self, cs: &[Complex64]) {
        self.floats(cs.len(), cs.iter().flat_map(|c| [c.re, c.im]));
    }

    fn estimate(&mut self, e: Option<PeriodEstimate>) {
        match e {
            Some(e) => self.words([
                e.period.to_bits(),
                e.bin as u64,
                e.magnitude.to_bits(),
                e.snr.to_bits(),
            ]),
            None => self.words([u64::MAX]),
        }
    }

    /// An error variant with its fields, via `Debug`.
    fn error(&mut self, e: &impl std::fmt::Debug) {
        self.bytes(format!("{e:?}").into_bytes());
    }
}

/// Asserts that every run of one stage produced the pinned digest.
fn assert_pinned(stage: &str, runs: &[(&str, Digest)], pinned: u64) {
    let got: Vec<String> = runs.iter().map(|(run, d)| format!("{run} {:#018x}", d.0)).collect();
    assert!(
        runs.iter().all(|(_, d)| d.0 == pinned),
        "{stage} digests [{}], pinned {pinned:#018x}",
        got.join(", ")
    );
}

/// Short lengths (including the degenerate ones below the period search's
/// minimum of 4), powers of two, a prime and the paper's 3600 s window.
const LENGTHS: [usize; 12] = [1, 2, 3, 5, 17, 64, 299, 997, 1024, 2048, 3600, 4096];

/// A deterministic signal of length `n`. Even salts give a 98 s red/green
/// square wave plus noise (a clear in-band peak); odd salts give noise on
/// a slow drift.
fn signal(n: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(2654435761).wrapping_add(1);
    (0..n)
        .map(|k| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if salt % 2 == 0 {
                let base = if k % 98 < 39 { 3.0 } else { 35.0 };
                base + 12.0 * noise
            } else {
                120.0 * noise + k as f64 / 50.0
            }
        })
        .collect()
}

fn complex_signal(n: usize) -> Vec<Complex64> {
    signal(n, 1).into_iter().zip(signal(n, 3)).map(|(re, im)| Complex64::new(re, im)).collect()
}

#[test]
fn fft_digest_is_pinned() {
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut cache = PlanCache::new();
    let mut scratch = Vec::new();
    fresh.complex(&fft(&[]));
    fresh.complex(&ifft(&[]));
    reused.complex(&[]);
    reused.complex(&[]);
    for n in LENGTHS {
        let x = complex_signal(n);
        fresh.complex(&fft(&x));
        fresh.complex(&ifft(&x));
        let plan = cache.get_or_build(n);
        let mut buf = x.clone();
        plan.fft_in_place(&mut buf, &mut scratch);
        reused.complex(&buf);
        let mut buf = x.clone();
        plan.ifft_in_place(&mut buf, &mut scratch);
        reused.complex(&buf);
        if let FftPlan::Pow2(pow2) = plan {
            let mut buf = x.clone();
            fft_pow2_in_place(&mut buf);
            fresh.complex(&buf);
            let mut buf = x;
            fft_pow2_in_place_with(pow2, &mut buf);
            reused.complex(&buf);
        }
    }
    assert_pinned("fft", &[("fresh", fresh), ("reused", reused)], 0x8837cd0d25e541f1);
}

#[test]
fn eq1_spectrum_digest_is_pinned() {
    let mut d = Digest::new();
    d.complex(&eq1_spectrum(&[]));
    for n in LENGTHS {
        for salt in [0, 1] {
            d.complex(&eq1_spectrum(&signal(n, salt)));
        }
    }
    assert_pinned("eq1 spectrum", &[("free", d)], 0x9d4029543c47d08e);
}

#[test]
fn period_search_digest_is_pinned() {
    let band = PeriodBand::TRAFFIC_LIGHTS;
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = SignalWorkspace::new();
    for n in LENGTHS {
        for salt in [0, 1] {
            let sig = signal(n, salt);
            for sample_dt in [1.0, 2.0] {
                for path in [SpectrumPath::Exact, SpectrumPath::PaddedPow2] {
                    for refine in [false, true] {
                        fresh.estimate(if path == SpectrumPath::Exact && !refine {
                            dominant_period(&sig, sample_dt, band)
                        } else {
                            SignalWorkspace::new()
                                .dominant_period(&sig, sample_dt, band, refine, path)
                        });
                        reused.estimate(ws.dominant_period(&sig, sample_dt, band, refine, path));
                    }
                }
            }
        }
    }
    assert_pinned("period search", &[("fresh", fresh), ("reused", reused)], 0x55e5b65a75cea5b3);
}

#[test]
fn band_candidates_digest_is_pinned() {
    let band = PeriodBand::TRAFFIC_LIGHTS;
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = SignalWorkspace::new();
    let mut out = Vec::new();
    for n in LENGTHS {
        for salt in [0, 1] {
            let sig = signal(n, salt);
            for path in [SpectrumPath::Exact, SpectrumPath::PaddedPow2] {
                for k in [0usize, 1, 5, 12, 100] {
                    let cands = if path == SpectrumPath::Exact {
                        band_candidates(&sig, 1.0, band, k)
                    } else {
                        let mut cands = Vec::new();
                        SignalWorkspace::new()
                            .band_candidates_into(&sig, 1.0, band, k, path, &mut cands);
                        cands
                    };
                    fresh.words([cands.len() as u64]);
                    cands.into_iter().for_each(|c| fresh.estimate(Some(c)));
                    ws.band_candidates_into(&sig, 1.0, band, k, path, &mut out);
                    reused.words([out.len() as u64]);
                    out.iter().for_each(|&c| reused.estimate(Some(c)));
                }
            }
        }
    }
    assert_pinned("band candidates", &[("fresh", fresh), ("reused", reused)], 0x5693caca1a264ccb);
}

/// Irregular `(t, v)` sample sets: empty, all non-finite, one and two
/// points, same-second groups out of order, a regular sparse series and a
/// dense random one.
fn sample_sets() -> Vec<Vec<(f64, f64)>> {
    let mut state = 17u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let random: Vec<(f64, f64)> = (0..80).map(|_| (next() * 600.0, next() * 80.0 - 20.0)).collect();
    vec![
        vec![],
        vec![(f64::NAN, 1.0), (3.0, f64::INFINITY)],
        vec![(12.5, 7.0)],
        vec![(0.0, 0.0), (10.0, 5.0)],
        vec![(10.2, 4.0), (10.7, 6.0), (f64::NAN, 1.0), (20.0, 3.0), (10.4, 8.0), (5.9, 2.0)],
        (0..40).map(|k| (k as f64 * 19.7, ((k * 13) % 47) as f64)).collect(),
        random,
    ]
}

#[test]
fn merge_digest_is_pinned() {
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = SignalWorkspace::new();
    let mut out = Vec::new();
    for samples in sample_sets() {
        fresh.pairs(&merge_coincident(&samples));
        ws.merge_coincident_into(&samples, &mut out);
        reused.pairs(&out);
    }
    assert_pinned("merge", &[("fresh", fresh), ("reused", reused)], 0x1491325c9810fada);
}

#[test]
fn resample_digest_is_pinned() {
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = SignalWorkspace::new();
    let mut out = Vec::new();
    for samples in sample_sets() {
        for method in [Method::NearestOrZero, Method::Linear, Method::CubicSpline] {
            for (t0, dt, count) in [(0.0, 1.0, 800), (-5.5, 0.7, 300), (0.0, 1.0, 0)] {
                match resample(&samples, t0, dt, count, method) {
                    Ok(grid) => fresh.values(&grid),
                    Err(e) => fresh.error(&e),
                }
                match ws.resample_into(&samples, t0, dt, count, method, &mut out) {
                    Ok(()) => reused.values(&out),
                    Err(e) => reused.error(&e),
                }
            }
        }
    }
    assert_pinned("resample", &[("fresh", fresh), ("reused", reused)], 0xf6a72a1b9d37ac65);
}

#[test]
fn cubic_spline_digest_is_pinned() {
    let mut d = Digest::new();
    for samples in sample_sets() {
        match CubicSpline::new(&merge_coincident(&samples)) {
            Ok(spline) => {
                d.values(&spline.sample_grid(-3.0, 0.37, 2000));
                d.values(&spline.eval_many(&[f64::NEG_INFINITY, 0.0, 10.4, 700.0]));
            }
            Err(e) => d.error(&e),
        }
    }
    assert_pinned("cubic spline", &[("free", d)], 0xdbe90b18f403ea19);
}
