//! Signal-change identification (paper Sec. VI-C, Fig. 11).
//!
//! When the light turns red the queue grows and the mean speed of vehicles
//! near the stop line decreases monotonically, bottoming out exactly when
//! the light turns green. Sliding a window of one *red duration* over the
//! superposed cycle (circular moving average "using convolution
//! operation") therefore reaches its minimum when the window coincides
//! with the red phase — the window start is the green→red change, the
//! window end the red→green change.

use crate::workspace::IdentifyWorkspace;
use taxilight_signal::convolution::{argmax, argmin, circular_moving_average_into};

/// A signal-change estimate, in fold coordinates: absolute times
/// `t ≡ red_start_s (mod cycle_s)` are green→red changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePointEstimate {
    /// Offset of the red onset within the cycle, seconds (fold anchor:
    /// absolute time 0).
    pub red_start_s: f64,
    /// Offset of the red→green change: `(red_start_s + red_s) mod cycle_s`.
    pub green_start_s: f64,
    /// Minimum windowed mean speed (diagnostic: near zero for a busy
    /// approach).
    pub min_windowed_speed: f64,
}

/// Why change-point identification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangePointError {
    /// No speed samples were provided.
    NoSamples,
    /// Cycle or red duration degenerate.
    BadParameters,
}

impl std::fmt::Display for ChangePointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangePointError::NoSamples => write!(f, "NoSamples: empty speed sample set"),
            ChangePointError::BadParameters => write!(f, "BadParameters: cycle/red degenerate"),
        }
    }
}

impl std::error::Error for ChangePointError {}

/// Identifies the signal-change time from `(t_abs_s, speed)` samples given
/// the identified `cycle_s` and `red_s`. A wrapper over the workspace body
/// with a fresh workspace.
pub fn identify_change_point(
    samples: &[(f64, f64)],
    cycle_s: f64,
    red_s: f64,
) -> Result<ChangePointEstimate, ChangePointError> {
    IdentifyWorkspace::new().change_point(samples, cycle_s, red_s)
}

/// Stop-based green-onset estimator: each queue stop dissolves when the
/// light turns green, so the per-stop green-onset estimates
/// ([`crate::red::Stop::green_onset_estimate_s`]) cluster sharply at the
/// true change. Their circular mode (kernel-smoothed histogram over the
/// fold) locates it. Returns the onset in fold coordinates (absolute time
/// mod `cycle_s`) or `None` when fewer than `min_stops` estimates exist.
/// A wrapper over the workspace body with a fresh workspace.
pub fn green_onset_from_stops(
    onset_estimates_abs_s: &[f64],
    cycle_s: f64,
    min_stops: usize,
) -> Option<f64> {
    IdentifyWorkspace::new().green_onset_from_stops(onset_estimates_abs_s, cycle_s, min_stops)
}

impl IdentifyWorkspace {
    /// [`identify_change_point`] with the profile, moving averages and
    /// refinement scratch kept in the workspace.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` deliberately rejects NaN too
    pub(crate) fn change_point(
        &mut self,
        samples: &[(f64, f64)],
        cycle_s: f64,
        red_s: f64,
    ) -> Result<ChangePointEstimate, ChangePointError> {
        if !(cycle_s > 1.0) || !(red_s > 0.0) || red_s >= cycle_s {
            return Err(ChangePointError::BadParameters);
        }
        if samples.is_empty() {
            return Err(ChangePointError::NoSamples);
        }
        let _span = taxilight_obs::span!("change_point.search", cycle_s = cycle_s, red_s = red_s);
        self.cycle_profile(samples, cycle_s);
        let window = (red_s.round() as usize).clamp(1, self.profile.len());
        circular_moving_average_into(&self.profile, window, &mut self.averaged);
        let start = argmin(&self.averaged).expect("profile is non-empty");

        // Edge refinement: the raw window minimum lags the true red onset —
        // the queue needs several seconds to form after the light turns
        // red, and discharge keeps speeds low into early green, so the
        // low-speed block sits a little late. Snap to the falling edge (the
        // crossing of the red/green midpoint level) nearest the window
        // start.
        let n = self.profile.len();
        circular_moving_average_into(&self.profile, 3, &mut self.smoothed);
        let low = self.averaged[start];
        let high = self.averaged.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let refined = if high - low > 1.0 {
            let mid = 0.5 * (low + high);
            // Search a window around the raw start for the latest
            // above-midpoint → below-midpoint transition.
            let mut best: Option<(usize, usize)> = None; // (distance, index)
            for d in -((n as i64).min(20))..=10 {
                let j = ((start as i64 + d).rem_euclid(n as i64)) as usize;
                let prev = (j + n - 1) % n;
                if self.smoothed[prev] >= mid && self.smoothed[j] < mid {
                    let dist = d.unsigned_abs() as usize;
                    if best.is_none_or(|(bd, _)| dist < bd) {
                        best = Some((dist, j));
                    }
                }
            }
            best.map(|(_, j)| j).unwrap_or(start)
        } else {
            start
        };

        Ok(ChangePointEstimate {
            red_start_s: refined as f64,
            green_start_s: (refined as f64 + red_s) % cycle_s,
            min_windowed_speed: self.averaged[start],
        })
    }

    /// [`green_onset_from_stops`] with the histogram and kernel buffers
    /// kept in the workspace.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 1)` deliberately rejects NaN too
    pub(crate) fn green_onset_from_stops(
        &mut self,
        onset_estimates_abs_s: &[f64],
        cycle_s: f64,
        min_stops: usize,
    ) -> Option<f64> {
        if !(cycle_s > 1.0) || onset_estimates_abs_s.len() < min_stops.max(1) {
            return None;
        }
        let n = cycle_s.round() as usize;
        self.onset_counts.clear();
        self.onset_counts.resize(n, 0.0);
        for &t in onset_estimates_abs_s {
            let idx = (t.rem_euclid(cycle_s) as usize).min(n - 1);
            self.onset_counts[idx] += 1.0;
        }
        // Circular triangular kernel, ±4 s.
        self.onset_smoothed.clear();
        self.onset_smoothed.resize(n, 0.0);
        for i in 0..n {
            let mut s = 0.0;
            for d in -4i64..=4 {
                let j = ((i as i64 + d).rem_euclid(n as i64)) as usize;
                s += self.onset_counts[j] * (5.0 - d.abs() as f64);
            }
            self.onset_smoothed[i] = s;
        }
        argmax(&self.onset_smoothed).map(|i| i as f64)
    }
}

/// Joint red-window fit against the folded speed profile.
///
/// The red phase is the contiguous low-speed block of the cycle profile.
/// Given the sharp stop-based green onset (the block's *end*) and the
/// border-interval red duration as a prior, sweep the red length within
/// `±tolerance_s` and keep the length whose window (ending at the green
/// onset) maximises the outside-minus-inside mean-speed separation.
/// Returns `(red_start, red_len)` in fold coordinates.
pub fn fit_red_anchored(
    profile: &[f64],
    green_onset: f64,
    red_prior_s: f64,
    tolerance_s: f64,
) -> Option<(f64, f64)> {
    let n = profile.len();
    if n < 10 {
        return None;
    }
    let total: f64 = profile.iter().sum();
    // Circular prefix sums for O(1) window means.
    let mut prefix = Vec::with_capacity(2 * n + 1);
    prefix.push(0.0);
    for k in 0..2 * n {
        prefix.push(prefix[k] + profile[k % n]);
    }
    let window_sum = |start: usize, len: usize| prefix[start + len] - prefix[start];

    let lo = (red_prior_s - tolerance_s).max(5.0) as usize;
    let hi = (red_prior_s + tolerance_s).min(n as f64 - 5.0) as usize;
    if lo >= hi {
        return None;
    }
    let g = (green_onset.rem_euclid(n as f64)) as usize;
    let mut best: Option<(f64, usize)> = None; // (separation, len)
    for len in lo..=hi {
        let start = (g + n - len) % n;
        let inside = window_sum(start, len) / len as f64;
        let outside = (total - window_sum(start, len)) / (n - len) as f64;
        let separation = outside - inside;
        if best.is_none_or(|(s, _)| separation > s) {
            best = Some((separation, len));
        }
    }
    best.map(|(_, len)| (((g + n - len) % n) as f64, len as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::testutil::square_samples;

    #[test]
    fn fig11_worked_example() {
        // Paper Fig. 11: cycle 98 s, red 39 s, truth green→red at 41 s; the
        // algorithm identified 44 s (3 s error). We require a few seconds'
        // accuracy on clean synthetic data.
        let samples = square_samples(98.0, 39.0, 41.0, 98.0 * 30.0, 8.0, 3);
        let est = identify_change_point(&samples, 98.0, 39.0).unwrap();
        let err = (est.red_start_s - 41.0).abs().min(98.0 - (est.red_start_s - 41.0).abs());
        assert!(err < 4.0, "red start {} vs truth 41", est.red_start_s);
        assert!(est.min_windowed_speed < 8.0);
        assert!((est.green_start_s - (est.red_start_s + 39.0) % 98.0).abs() < 1e-9);
    }

    #[test]
    fn phase_is_recovered_across_the_wrap() {
        // Red phase straddling the fold boundary (red start near cycle end).
        let samples = square_samples(100.0, 40.0, 85.0, 4_000.0, 9.0, 5);
        let est = identify_change_point(&samples, 100.0, 40.0).unwrap();
        let err = (est.red_start_s - 85.0).abs();
        let circ = err.min(100.0 - err);
        assert!(circ < 5.0, "red start {} vs truth 85", est.red_start_s);
    }

    #[test]
    fn sparse_data_still_locates_phase() {
        // ~1 sample / 25 s — the paper's density; needs superposition depth.
        let samples = square_samples(106.0, 63.0, 20.0, 106.0 * 40.0, 25.0, 11);
        let est = identify_change_point(&samples, 106.0, 63.0).unwrap();
        let err = (est.red_start_s - 20.0).abs();
        let circ = err.min(106.0 - err);
        assert!(circ < 8.0, "red start {}", est.red_start_s);
    }

    #[test]
    fn superposition_depth_ablation() {
        // DESIGN.md ablation: more folded cycles → error does not grow.
        let truth = 33.0;
        let err_for = |cycles: f64| {
            let samples = square_samples(98.0, 39.0, truth, 98.0 * cycles, 22.0, 7);
            let est = identify_change_point(&samples, 98.0, 39.0).unwrap();
            let e = (est.red_start_s - truth).abs();
            e.min(98.0 - e)
        };
        let shallow = err_for(4.0);
        let deep = err_for(40.0);
        assert!(deep <= shallow + 3.0, "deep {deep} vs shallow {shallow}");
        assert!(deep < 8.0);
    }

    #[test]
    fn anchored_fit_recovers_red_length() {
        // Profile: red [20, 65) slow, green fast; anchor = 65.
        let profile: Vec<f64> =
            (0..100).map(|i| if (20..65).contains(&i) { 2.0 } else { 40.0 }).collect();
        let (start, len) = fit_red_anchored(&profile, 65.0, 40.0, 20.0).unwrap();
        assert!((len - 45.0).abs() <= 1.0, "len {len}");
        assert!((start - 20.0).abs() <= 1.0, "start {start}");
    }

    #[test]
    fn anchored_fit_respects_tolerance_and_degenerates() {
        let profile: Vec<f64> =
            (0..100).map(|i| if (20..65).contains(&i) { 2.0 } else { 40.0 }).collect();
        // Tolerance too small to reach the true 45 s: stays inside the band.
        let (_, len) = fit_red_anchored(&profile, 65.0, 30.0, 5.0).unwrap();
        assert!((25.0..=35.0).contains(&len), "len {len}");
        // Degenerate inputs.
        assert!(fit_red_anchored(&[1.0; 5], 2.0, 3.0, 1.0).is_none());
        assert!(fit_red_anchored(&profile, 65.0, 200.0, 1.0).is_none(), "band outside cycle");
    }

    #[test]
    fn anchored_fit_handles_wrapping_red() {
        // Red straddles the fold boundary: red [80..100) ∪ [0..25), green
        // onset at 25.
        let profile: Vec<f64> =
            (0..100).map(|i| if !(25..80).contains(&i) { 2.0 } else { 40.0 }).collect();
        let (start, len) = fit_red_anchored(&profile, 25.0, 45.0, 15.0).unwrap();
        assert!((len - 45.0).abs() <= 1.0, "len {len}");
        assert!((start - 80.0).abs() <= 1.0, "start {start}");
    }

    #[test]
    fn error_cases() {
        assert_eq!(identify_change_point(&[], 98.0, 39.0), Err(ChangePointError::NoSamples));
        let s = vec![(0.0, 10.0)];
        assert_eq!(identify_change_point(&s, 0.0, 39.0), Err(ChangePointError::BadParameters));
        assert_eq!(identify_change_point(&s, 98.0, 0.0), Err(ChangePointError::BadParameters));
        assert_eq!(identify_change_point(&s, 98.0, 98.0), Err(ChangePointError::BadParameters));
        assert!(ChangePointError::NoSamples.to_string().contains("NoSamples"));
    }

    #[test]
    fn wrong_red_duration_still_near_red_region() {
        // Even with a ±15 % red-duration error the window minimum stays in
        // the red neighbourhood (robustness of the moving-average design).
        let samples = square_samples(98.0, 39.0, 41.0, 98.0 * 30.0, 10.0, 13);
        for red_guess in [33.0, 45.0] {
            let est = identify_change_point(&samples, 98.0, red_guess).unwrap();
            let err = (est.red_start_s - 41.0).abs();
            let circ = err.min(98.0 - err);
            assert!(circ < 12.0, "guess {red_guess}: red start {}", est.red_start_s);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn recovered_phase_within_tolerance(cycle in 60.0f64..200.0,
                                                red_frac in 0.3f64..0.7,
                                                phase_frac in 0.0f64..1.0) {
                let red = (cycle * red_frac).round();
                let red_start = (cycle * phase_frac).round() % cycle;
                let samples = square_samples(cycle, red, red_start, cycle * 30.0, 12.0, 17);
                let est = identify_change_point(&samples, cycle, red).unwrap();
                let err = (est.red_start_s - red_start).abs();
                let circ = err.min(cycle - err);
                prop_assert!(circ < 8.0, "cycle {} red {} start {}: est {}",
                             cycle, red, red_start, est.red_start_s);
            }

            #[test]
            fn outputs_always_in_cycle_range(cycle in 40.0f64..150.0, red_frac in 0.2f64..0.8) {
                let red = (cycle * red_frac).max(1.0).min(cycle - 1.0);
                let samples = square_samples(cycle, red, 10.0, cycle * 10.0, 15.0, 19);
                let est = identify_change_point(&samples, cycle, red).unwrap();
                prop_assert!((0.0..cycle).contains(&est.red_start_s));
                prop_assert!((0.0..cycle).contains(&est.green_start_s));
            }
        }
    }
}
