//! Convolution and moving averages.
//!
//! The change-point identifier (paper Sec. VI-C) slides a red-light-duration
//! window over the superposed one-cycle speed series "using convolution
//! operation" and looks for the minimum of the moving average. Because the
//! superposed series is one *cycle* of a periodic signal, the window must
//! wrap around the cycle boundary — that is [`circular_moving_average`].
//! General linear convolution (direct and FFT-based) is provided for
//! completeness and as a benchmark ablation.

use crate::complex::Complex64;
use crate::fft::{fft, ifft, next_power_of_two};

/// Full linear convolution computed directly in `O(n·m)`.
///
/// The result has length `a.len() + b.len() - 1`; empty inputs produce an
/// empty result.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// Full linear convolution via zero-padded FFT in `O(N log N)`.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let m = next_power_of_two(out_len);
    let mut fa = vec![Complex64::ZERO; m];
    let mut fb = vec![Complex64::ZERO; m];
    for (dst, &src) in fa.iter_mut().zip(a) {
        *dst = Complex64::from_real(src);
    }
    for (dst, &src) in fb.iter_mut().zip(b) {
        *dst = Complex64::from_real(src);
    }
    let sa = fft(&fa);
    let sb = fft(&fb);
    let prod: Vec<Complex64> = sa.iter().zip(&sb).map(|(x, y)| *x * *y).collect();
    ifft(&prod).into_iter().take(out_len).map(|c| c.re).collect()
}

/// Full linear convolution, dispatching to the direct method for small
/// inputs and the FFT method for large ones.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    // Empirical crossover: direct wins while n·m is small.
    if a.len().saturating_mul(b.len()) <= 4096 {
        convolve_direct(a, b)
    } else {
        convolve_fft(a, b)
    }
}

/// Centred moving average with edge truncation.
///
/// `out[i]` is the mean of the samples within `window` positions centred on
/// `i`, truncated at the signal edges (so edge outputs average fewer
/// samples). `window` must be ≥ 1; a window of 1 returns the input.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 1, "moving_average window must be >= 1");
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let half_left = (window - 1) / 2;
    let half_right = window / 2;
    let mut out = Vec::with_capacity(n);
    // Prefix sums for O(n) evaluation.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in signal {
        prefix.push(prefix.last().unwrap() + v);
    }
    for i in 0..n {
        let lo = i.saturating_sub(half_left);
        let hi = (i + half_right + 1).min(n);
        out.push((prefix[hi] - prefix[lo]) / (hi - lo) as f64);
    }
    out
}

/// Circular (wrap-around) moving average over one period of a cyclic signal.
///
/// `out[i]` is the mean of `signal[i], signal[i+1], …, signal[i+window-1]`
/// with indices taken modulo the signal length. This is the paper's sliding
/// red-light window over the superposed cycle: the window starting at the
/// red-onset position covers exactly the red phase.
///
/// `window` is clamped to the signal length.
pub fn circular_moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(signal.len());
    circular_moving_average_into(signal, window, &mut out);
    out
}

/// [`circular_moving_average`] into a caller-supplied buffer (cleared
/// first); allocation-free once `out` has capacity. The rolling sum is a
/// sequential chain (drop the sample leaving the window, add the one
/// entering it), so every output is that running sum divided by the
/// window.
pub fn circular_moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
    out.clear();
    let n = signal.len();
    if n == 0 {
        return;
    }
    let w = window.clamp(1, n);
    let mut sum: f64 = signal[..w].iter().sum();
    for i in 0..n {
        out.push(sum / w as f64);
        sum -= signal[i];
        sum += signal[(i + w) % n];
    }
}

/// Index of the minimum value; ties resolve to the earliest index. Returns
/// `None` for an empty slice.
pub fn argmin(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value; ties resolve to the earliest index. Returns
/// `None` for an empty slice.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_small_example() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        assert_eq!(convolve_direct(&[1.0, 2.0, 3.0], &[1.0, 1.0]), vec![1.0, 3.0, 5.0, 3.0]);
    }

    #[test]
    fn empty_inputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
        assert!(convolve(&[], &[]).is_empty());
        assert!(moving_average(&[], 3).is_empty());
        assert!(circular_moving_average(&[], 3).is_empty());
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn identity_kernel() {
        let x = vec![4.0, -1.0, 2.5];
        assert_eq!(convolve_direct(&x, &[1.0]), x);
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..50).map(|k| ((k * 7) % 11) as f64 - 5.0).collect();
        let b: Vec<f64> = (0..23).map(|k| ((k * 3) % 5) as f64 * 0.5).collect();
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_eq!(d.len(), f.len());
        for (x, y) in d.iter().zip(&f) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn dispatcher_picks_both_paths() {
        let small = convolve(&[1.0, 2.0], &[3.0]);
        assert_eq!(small, vec![3.0, 6.0]);
        let a = vec![1.0; 200];
        let b = vec![1.0; 100];
        let big = convolve(&a, &b);
        // Peak of the trapezoid is min(len) = 100.
        assert!((big[150] - 100.0).abs() < 1e-6);
        assert_eq!(big.len(), 299);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = vec![1.0, -2.0, 0.5, 4.0];
        let b = vec![2.0, 3.0, -1.0];
        let ab = convolve_direct(&a, &b);
        let ba = convolve_direct(&b, &a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let x = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(moving_average(&x, 1), x);
    }

    #[test]
    fn moving_average_truncates_edges() {
        let x = vec![0.0, 10.0, 20.0];
        let ma = moving_average(&x, 3);
        // i=0 averages [0,10]; i=1 averages all; i=2 averages [10,20].
        assert_eq!(ma, vec![5.0, 10.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "window must be >= 1")]
    fn moving_average_rejects_zero_window() {
        moving_average(&[1.0], 0);
    }

    #[test]
    fn circular_average_wraps() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let ma = circular_moving_average(&x, 2);
        assert_eq!(ma, vec![1.5, 2.5, 3.5, 2.5]); // last wraps to (4+1)/2
    }

    #[test]
    fn circular_average_full_window_is_global_mean() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let ma = circular_moving_average(&x, 4);
        for v in ma {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn circular_average_clamps_oversized_window() {
        let x = vec![2.0, 4.0];
        let ma = circular_moving_average(&x, 10);
        assert_eq!(ma, vec![3.0, 3.0]);
    }

    #[test]
    fn circular_window_finds_planted_minimum() {
        // One cycle: low speed (red) from 30..70, high elsewhere.
        let n = 100;
        let w = 40;
        let x: Vec<f64> = (0..n).map(|i| if (30..70).contains(&i) { 0.0 } else { 10.0 }).collect();
        let ma = circular_moving_average(&x, w);
        assert_eq!(argmin(&ma), Some(30));
    }

    #[test]
    fn circular_average_into_matches_allocating() {
        let x: Vec<f64> = (0..97).map(|k| ((k * 31) % 17) as f64 - 8.0).collect();
        let mut out = vec![999.0; 3]; // stale contents must be cleared
        for w in [1usize, 2, 40, 97, 200] {
            circular_moving_average_into(&x, w, &mut out);
            let reference = circular_moving_average(&x, w);
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        circular_moving_average_into(&[], 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn argmin_argmax_tie_break_earliest() {
        let x = vec![2.0, 1.0, 1.0, 3.0, 3.0];
        assert_eq!(argmin(&x), Some(1));
        assert_eq!(argmax(&x), Some(3));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fft_conv_matches_direct(a in prop::collection::vec(-20.0f64..20.0, 1..60),
                                       b in prop::collection::vec(-20.0f64..20.0, 1..60)) {
                let d = convolve_direct(&a, &b);
                let f = convolve_fft(&a, &b);
                for (x, y) in d.iter().zip(&f) {
                    prop_assert!((x - y).abs() < 1e-6);
                }
            }

            #[test]
            fn circular_average_preserves_mean(x in prop::collection::vec(-5.0f64..50.0, 1..80),
                                               w in 1usize..90) {
                let ma = circular_moving_average(&x, w);
                let mean_in: f64 = x.iter().sum::<f64>() / x.len() as f64;
                let mean_out: f64 = ma.iter().sum::<f64>() / ma.len() as f64;
                prop_assert!((mean_in - mean_out).abs() < 1e-7);
            }

            #[test]
            fn moving_average_bounded_by_input(x in prop::collection::vec(-30.0f64..30.0, 1..60),
                                               w in 1usize..10) {
                let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for v in moving_average(&x, w) {
                    prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
                }
            }
        }
    }
}
