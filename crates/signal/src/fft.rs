//! Fast Fourier transform: iterative radix-2 plus Bluestein's algorithm for
//! arbitrary lengths.
//!
//! Conventions: [`fft`] computes the standard engineering forward transform
//! `Y_n = Σ_k X_k e^{-i2πkn/N}` (no normalisation); [`ifft`] inverts it with
//! the `1/N` factor. [`eq1_spectrum`] adapts the output to the paper's
//! Eq. (1) convention (positive exponent, `1/N` normalisation) so the
//! cycle-length identifier can use either this module or [`crate::dft`]
//! interchangeably — the plain DFT is kept as the property-test oracle and
//! as a benchmark baseline.
//!
//! The transforms themselves live in [`crate::plan`]: each function here
//! builds the plan for its length and runs it once. Callers that transform
//! the same length repeatedly keep the plan in a [`crate::PlanCache`].

use crate::complex::Complex64;
use crate::plan::{fft_pow2_in_place_with, FftPlan, Pow2Plan};

/// Returns `true` if `n` is a power of two (zero is not).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n` (`n = 0` maps to 1).
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two. Use [`fft`] for arbitrary
/// lengths.
pub fn fft_pow2_in_place(buf: &mut [Complex64]) {
    fft_pow2_in_place_with(&Pow2Plan::new(buf.len()), buf);
}

/// Forward FFT of a complex signal of arbitrary length.
///
/// Power-of-two lengths use radix-2 directly; other lengths go through
/// Bluestein's chirp-z reformulation (still `O(N log N)`).
pub fn fft(signal: &[Complex64]) -> Vec<Complex64> {
    let mut buf = signal.to_vec();
    if !buf.is_empty() {
        FftPlan::new(buf.len()).fft_in_place(&mut buf, &mut Vec::new());
    }
    buf
}

/// Forward FFT of a real signal (convenience wrapper over [`fft`]).
pub fn fft_real(signal: &[f64]) -> Vec<Complex64> {
    let buf: Vec<Complex64> = signal.iter().map(|&v| Complex64::from_real(v)).collect();
    fft(&buf)
}

/// Inverse FFT: recovers the time-domain signal from [`fft`] output,
/// including the `1/N` normalisation.
pub fn ifft(spectrum: &[Complex64]) -> Vec<Complex64> {
    let mut buf = spectrum.to_vec();
    if !buf.is_empty() {
        FftPlan::new(buf.len()).ifft_in_place(&mut buf, &mut Vec::new());
    }
    buf
}

/// The paper's Eq. (1) spectrum computed via FFT.
///
/// Eq. (1) uses a positive exponent and a `1/N` factor. For a real input
/// `X`, `Eq1_n = (1/N)·conj(FFT(X)_n)`, so magnitudes are identical to the
/// standard convention and only phases flip.
pub fn eq1_spectrum(signal: &[f64]) -> Vec<Complex64> {
    let mut buf: Vec<Complex64> = signal.iter().map(|&v| Complex64::from_real(v)).collect();
    if !buf.is_empty() {
        FftPlan::new(buf.len()).eq1_in_place(&mut buf, &mut Vec::new());
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn assert_spec_close(a: &[Complex64], b: &[Complex64], eps: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < eps,
                "bin {i} differs: {x:?} vs {y:?} (|Δ| = {})",
                (*x - *y).abs()
            );
        }
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1023));
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(8), 8);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        let one = [Complex64::new(2.0, -3.0)];
        assert_eq!(fft(&one), vec![one[0]]);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for c in spec {
            assert!((c - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn in_place_rejects_non_pow2() {
        let mut x = vec![Complex64::ZERO; 6];
        fft_pow2_in_place(&mut x);
    }

    #[test]
    fn pow2_matches_plain_dft() {
        // Compare against the O(N²) oracle with the conjugate/normalisation
        // conversion: standard FFT = N·conj(Eq1) for real input.
        let x: Vec<f64> = (0..32).map(|k| ((k * k) % 17) as f64 - 8.0).collect();
        let fast = fft_real(&x);
        let slow = dft::dft_real(&x);
        let n = x.len() as f64;
        let converted: Vec<Complex64> = slow.iter().map(|c| c.conj().scale(n)).collect();
        assert_spec_close(&fast, &converted, 1e-8);
    }

    #[test]
    fn bluestein_matches_plain_dft_many_sizes() {
        for n in [2usize, 3, 5, 6, 7, 9, 11, 12, 13, 17, 30, 45, 97, 100] {
            let x: Vec<f64> = (0..n).map(|k| ((3 * k + 1) % 7) as f64 * 0.5 - 1.0).collect();
            let fast = fft_real(&x);
            let slow = dft::dft_real(&x);
            let converted: Vec<Complex64> = slow.iter().map(|c| c.conj().scale(n as f64)).collect();
            assert_spec_close(&fast, &converted, 1e-7);
        }
    }

    #[test]
    fn round_trip_pow2() {
        let x: Vec<Complex64> =
            (0..64).map(|k| Complex64::new((k as f64).sin(), (k as f64 * 0.3).cos())).collect();
        let back = ifft(&fft(&x));
        assert_spec_close(&back, &x, 1e-10);
    }

    #[test]
    fn round_trip_arbitrary_length() {
        for n in [3usize, 10, 37, 60, 101] {
            let x: Vec<Complex64> = (0..n)
                .map(|k| Complex64::new((k as f64 * 0.7).sin(), (k as f64 * 1.1).cos()))
                .collect();
            let back = ifft(&fft(&x));
            assert_spec_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn eq1_spectrum_matches_paper_dft() {
        for n in [16usize, 24, 60] {
            let x: Vec<f64> = (0..n)
                .map(|k| (2.0 * std::f64::consts::PI * 3.0 * k as f64 / n as f64).sin() + 0.3)
                .collect();
            let via_fft = eq1_spectrum(&x);
            let via_dft = dft::dft_real(&x);
            assert_spec_close(&via_fft, &via_dft, 1e-9);
        }
    }

    #[test]
    fn tone_detection_at_non_pow2_length() {
        // 7 cycles in 90 samples → dominant bin 7.
        let n = 90;
        let x: Vec<f64> = (0..n)
            .map(|k| (2.0 * std::f64::consts::PI * 7.0 * k as f64 / n as f64).cos())
            .collect();
        let mags: Vec<f64> = eq1_spectrum(&x).iter().map(|c| c.abs()).collect();
        let argmax =
            mags[..n / 2].iter().enumerate().skip(1).max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(argmax, 7);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fft_matches_dft_oracle(xs in prop::collection::vec(-100.0f64..100.0, 1..80)) {
                let fast = eq1_spectrum(&xs);
                let slow = dft::dft_real(&xs);
                for (a, b) in fast.iter().zip(&slow) {
                    prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
                }
            }

            #[test]
            fn fft_ifft_round_trip(xs in prop::collection::vec(-50.0f64..50.0, 1..128)) {
                let sig: Vec<Complex64> = xs.iter().map(|&v| Complex64::from_real(v)).collect();
                let back = ifft(&fft(&sig));
                for (a, b) in back.iter().zip(&sig) {
                    prop_assert!((*a - *b).abs() < 1e-7);
                }
            }

            #[test]
            fn parseval_holds(xs in prop::collection::vec(-10.0f64..10.0, 1..100)) {
                let n = xs.len() as f64;
                let time: f64 = xs.iter().map(|v| v * v).sum();
                let freq: f64 = fft_real(&xs).iter().map(|c| c.norm_sqr()).sum::<f64>() / n;
                prop_assert!((time - freq).abs() < 1e-6 * (1.0 + time));
            }
        }
    }
}
