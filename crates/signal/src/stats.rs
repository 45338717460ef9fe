//! Descriptive statistics shared across the workspace.
//!
//! The reductions (mean, variance) run through the [`crate::kernels`]
//! 4-lane sums — they reassociate relative to a plain sequential
//! `iter().sum()` and are covered by the accuracy-gate discipline, not
//! bit-identity to the pre-kernel code.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(crate::kernels::sum(xs) / xs.len() as f64)
    }
}

/// Population variance (divides by `n`); `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(crate::kernels::sum_sq_diff(xs, m) / xs.len() as f64)
}

/// Sample variance (divides by `n-1`); `None` when fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(crate::kernels::sum_sq_diff(xs, m) / (xs.len() - 1) as f64)
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (average of central pair for even lengths); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Percentile `p ∈ [0, 100]` with linear interpolation between order
/// statistics; `None` when empty.
///
/// # Panics
/// Panics when `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100], got {p}");
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let w = rank - lo as f64;
        Some(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Minimum by total order; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Maximum by total order; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().max_by(f64::total_cmp)
}

/// Maximum-likelihood fit of a normal distribution: `(μ, σ)` with the
/// population σ. Used to reproduce the paper's Fig. 2(d) observation that
/// consecutive-update speed differences fit `N(0, 40)`.
pub fn fit_normal(xs: &[f64]) -> Option<(f64, f64)> {
    Some((mean(xs)?, stddev(xs)?))
}

/// One-pass summary of a data set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub stddev: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        Summary {
            count: xs.len(),
            mean: mean(xs).unwrap(),
            stddev: stddev(xs).unwrap(),
            min: min(xs).unwrap(),
            max: max(xs).unwrap(),
        }
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm), usable when
/// samples arrive one at a time — e.g. the continuous monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Running population variance; `None` before any sample.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Running population standard deviation; `None` before any sample.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_give_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(stddev(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(fit_normal(&[]), None);
        assert_eq!(sample_variance(&[1.0]), None);
    }

    #[test]
    fn basic_mean_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(stddev(&xs), Some(2.0));
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 62.5), Some(35.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0,100]")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn min_max_handle_negatives() {
        let xs = [-3.0, 7.0, -10.0, 2.0];
        assert_eq!(min(&xs), Some(-10.0));
        assert_eq!(max(&xs), Some(7.0));
    }

    #[test]
    fn fit_normal_recovers_parameters() {
        // Symmetric data around 5 with known spread.
        let xs = [3.0, 4.0, 5.0, 6.0, 7.0];
        let (mu, sigma) = fit_normal(&xs).unwrap();
        assert_eq!(mu, 5.0);
        assert!((sigma - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_components() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::of(&xs);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((w.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((w.stddev().unwrap() - 2.0).abs() < 1e-12);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mean_bounded_by_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
                let m = mean(&xs).unwrap();
                prop_assert!(m >= min(&xs).unwrap() - 1e-6);
                prop_assert!(m <= max(&xs).unwrap() + 1e-6);
            }

            #[test]
            fn welford_agrees_with_batch(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
                let mut w = Welford::new();
                for &x in &xs {
                    w.push(x);
                }
                prop_assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-6);
                prop_assert!((w.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-4);
            }

            #[test]
            fn percentile_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..100),
                                   p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
                let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
                prop_assert!(percentile(&xs, lo).unwrap() <= percentile(&xs, hi).unwrap() + 1e-9);
            }

            #[test]
            fn variance_nonnegative(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
                prop_assert!(variance(&xs).unwrap() >= 0.0);
            }
        }
    }
}
