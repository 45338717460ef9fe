//! Dominant-period extraction — the frequency-domain core of cycle-length
//! identification (paper Sec. V, Eqs. 1–2).
//!
//! The paper feeds the interpolated 1 Hz speed signal through the DFT,
//! scans bins `n ∈ [0, N/2]` for the largest magnitude, and reports the
//! cycle length `l = N / argmax_n |x_n|`. We add two practical guards that
//! the paper applies implicitly:
//!
//! * the DC bin (and any period longer than the plausible traffic-light
//!   band) is excluded — speed has a huge mean component that is not a
//!   cycle;
//! * a period *band* restricts the search to physically plausible cycle
//!   lengths (urban lights run tens of seconds to a few minutes).
//!
//! An optional parabolic peak refinement gives sub-bin resolution; the
//! paper's integer-bin estimator is the default and the refinement is an
//! extension benchmarked as a DESIGN.md ablation.
//!
//! The search itself is [`SignalWorkspace::dominant_period`] and
//! [`SignalWorkspace::band_candidates_into`]; the free functions here wrap
//! them with a fresh workspace per call.

use crate::SignalWorkspace;

/// How the magnitude spectrum behind the dominant-period search is computed.
///
/// The paper's Eq. (1) transform is taken at the *exact* window length `N`
/// (3600 for the canonical one-hour window), which for non-power-of-two `N`
/// routes through Bluestein's algorithm — three FFTs of length
/// `next_pow2(2N−1)`. [`SpectrumPath::PaddedPow2`] instead zero-pads the
/// demeaned signal to `next_pow2(N)` and runs a single radix-2 pass: cheaper,
/// but the bin grid changes (`period = padded_total / bin`), so integer-bin
/// period estimates can shift by a fraction of a bin. It is therefore opt-in
/// and validated end-to-end by the accuracy/robustness eval gates rather than
/// by bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectrumPath {
    /// Exact-length Eq. (1) spectrum (paper semantics; the default).
    #[default]
    Exact,
    /// Zero-pad to the next power of two and use one radix-2 FFT pass.
    PaddedPow2,
}

/// Plausible period range for the dominant-period search, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodBand {
    /// Shortest admissible period (seconds).
    pub min_period: f64,
    /// Longest admissible period (seconds).
    pub max_period: f64,
}

impl PeriodBand {
    /// Traffic lights in the paper's ground truth run roughly 30 s – 300 s
    /// cycles; this is the default search band.
    pub const TRAFFIC_LIGHTS: PeriodBand = PeriodBand { min_period: 30.0, max_period: 300.0 };

    /// Creates a band, panicking on an inverted or non-positive range.
    pub fn new(min_period: f64, max_period: f64) -> Self {
        assert!(
            min_period > 0.0 && max_period > min_period,
            "invalid period band [{min_period}, {max_period}]"
        );
        PeriodBand { min_period, max_period }
    }
}

/// Result of a dominant-period search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodEstimate {
    /// Estimated period in seconds (Eq. 2: `N·dt / bin`, possibly refined).
    pub period: f64,
    /// Winning DFT bin index.
    pub bin: usize,
    /// Magnitude of the winning bin.
    pub magnitude: f64,
    /// Peak magnitude divided by the median magnitude of the searched band —
    /// a crude signal-to-noise figure; ~1 means no clear periodicity.
    pub snr: f64,
}

/// Finds the dominant period of `signal` sampled every `sample_dt` seconds,
/// searching only periods inside `band`, over the exact-length spectrum
/// without peak refinement.
///
/// Implements Eq. (2): the winning bin `n` maps to period `N·dt/n`. Returns
/// `None` when the signal is too short for the band (no bin falls inside
/// it) or empty. See [`SignalWorkspace::dominant_period`] for the other
/// spectrum paths and the refinement.
pub fn dominant_period(signal: &[f64], sample_dt: f64, band: PeriodBand) -> Option<PeriodEstimate> {
    SignalWorkspace::new().dominant_period(signal, sample_dt, band, false, SpectrumPath::Exact)
}

/// The `k` strongest in-band bins of the exact-length spectrum, strongest
/// first. Useful when the raw argmax is ambiguous and the caller wants to
/// re-rank candidates with an orthogonal criterion (e.g. epoch-folding
/// contrast).
pub fn band_candidates(
    signal: &[f64],
    sample_dt: f64,
    band: PeriodBand,
    k: usize,
) -> Vec<PeriodEstimate> {
    let mut out = Vec::new();
    SignalWorkspace::new().band_candidates_into(
        signal,
        sample_dt,
        band,
        k,
        SpectrumPath::Exact,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, period: f64, amp: f64, dc: f64) -> Vec<f64> {
        (0..n).map(|k| dc + amp * (2.0 * std::f64::consts::PI * k as f64 / period).sin()).collect()
    }

    #[test]
    fn band_constructor_validates() {
        let b = PeriodBand::new(10.0, 100.0);
        assert_eq!(b.min_period, 10.0);
    }

    #[test]
    #[should_panic(expected = "invalid period band")]
    fn band_rejects_inverted() {
        PeriodBand::new(100.0, 10.0);
    }

    #[test]
    fn finds_exact_integer_cycle() {
        // 1800 s of signal with a 90 s cycle → bin 20 exactly.
        let sig = tone(1800, 90.0, 5.0, 20.0);
        let est = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert_eq!(est.bin, 20);
        assert!((est.period - 90.0).abs() < 1e-9);
        assert!(est.snr > 10.0, "snr was {}", est.snr);
    }

    #[test]
    fn paper_worked_example_97_of_98() {
        // Paper Sec. V-A: one hour of data, ground-truth cycle 98 s; the
        // strongest bin is 37 (3600/37 ≈ 97.3 s).
        let sig = tone(3600, 98.0, 5.0, 15.0);
        let est = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert_eq!(est.bin, 37);
        assert!((est.period - 3600.0 / 37.0).abs() < 1e-9);
        // Integer-bin quantisation leaves ≲1 s of error, as in the paper.
        assert!((est.period - 98.0).abs() < 1.0);
    }

    /// The workspace search on an explicit spectrum path, refined or not.
    fn search(sig: &[f64], refine: bool, path: SpectrumPath) -> Option<PeriodEstimate> {
        SignalWorkspace::new().dominant_period(sig, 1.0, PeriodBand::TRAFFIC_LIGHTS, refine, path)
    }

    #[test]
    fn refinement_reduces_quantisation_error() {
        let sig = tone(3600, 98.0, 5.0, 15.0);
        let coarse = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        let fine = search(&sig, true, SpectrumPath::Exact).unwrap();
        assert!(
            (fine.period - 98.0).abs() <= (coarse.period - 98.0).abs() + 1e-12,
            "refined {} vs coarse {}",
            fine.period,
            coarse.period
        );
    }

    #[test]
    fn dc_alone_yields_no_confident_peak() {
        // Constant signal: after demeaning everything is ~0.
        let sig = vec![30.0; 1200];
        assert!(dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).is_none());
    }

    #[test]
    fn band_excludes_out_of_range_period() {
        // 20 s cycle lies below the 30 s minimum → the search must not pick
        // its bin even though it is the strongest.
        let sig = tone(1200, 20.0, 5.0, 10.0);
        let est = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS);
        if let Some(e) = est {
            assert!(e.period >= 30.0 && e.period <= 300.0);
            assert!(e.snr < 5.0, "no confident in-band peak expected, snr={}", e.snr);
        }
    }

    #[test]
    fn too_short_signal_returns_none() {
        assert!(dominant_period(&[1.0, 2.0], 1.0, PeriodBand::TRAFFIC_LIGHTS).is_none());
        // 60 samples at 1 s cannot hold a 300 s period band lower bin.
        let sig = tone(40, 35.0, 3.0, 5.0);
        assert!(dominant_period(&sig, 1.0, PeriodBand::new(100.0, 300.0)).is_none());
    }

    #[test]
    fn sample_dt_scales_period() {
        // Same bin content at dt = 2 s → period doubles.
        let sig = tone(900, 45.0, 4.0, 10.0); // 45 samples/cycle
        let est = dominant_period(&sig, 2.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert!((est.period - 90.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sample_dt must be positive")]
    fn rejects_nonpositive_dt() {
        dominant_period(&[1.0; 100], 0.0, PeriodBand::TRAFFIC_LIGHTS);
    }

    #[test]
    fn padded_pow2_matches_exact_on_pow2_lengths() {
        // For a power-of-two window, padding is a no-op and the two paths
        // must agree bit for bit.
        let sig = tone(2048, 64.0, 5.0, 12.0);
        let exact = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        let padded = search(&sig, false, SpectrumPath::PaddedPow2).unwrap();
        assert_eq!(exact.bin, padded.bin);
        assert_eq!(exact.period.to_bits(), padded.period.to_bits());
        assert_eq!(exact.magnitude.to_bits(), padded.magnitude.to_bits());
    }

    #[test]
    fn padded_pow2_recovers_planted_period_on_paper_window() {
        // One-hour window (3600 samples, not a power of two): the padded
        // path pads to 4096 and must still land within one padded bin of
        // the planted 98 s cycle.
        let sig = tone(3600, 98.0, 5.0, 15.0);
        let est = search(&sig, false, SpectrumPath::PaddedPow2).unwrap();
        // Padded bin grid: period = 4096/bin; bin 42 → 97.5 s.
        assert!((est.period - 98.0).abs() < 3.0, "got {}", est.period);
        assert!(est.snr > 5.0, "snr was {}", est.snr);
    }

    #[test]
    fn padded_band_candidates_rank_planted_period_first() {
        let sig = tone(3600, 120.0, 6.0, 20.0);
        let mut cands = Vec::new();
        SignalWorkspace::new().band_candidates_into(
            &sig,
            1.0,
            PeriodBand::TRAFFIC_LIGHTS,
            5,
            SpectrumPath::PaddedPow2,
            &mut cands,
        );
        assert!(!cands.is_empty());
        assert!((cands[0].period - 120.0).abs() < 3.0, "got {}", cands[0].period);
    }

    #[test]
    fn square_wave_traffic_pattern_detected() {
        // Speed alternating red (≈0) / green (≈40 km/h) with period 106 s —
        // harmonically rich, like real stop-and-go traffic.
        let n = 2120; // 20 cycles
        let sig: Vec<f64> = (0..n).map(|k| if (k % 106) < 63 { 2.0 } else { 40.0 }).collect();
        let est = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert!((est.period - 106.0).abs() < 2.0, "got {}", est.period);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn planted_period_recovered(period in 40.0f64..250.0, amp in 1.0f64..20.0) {
                // 30 cycles of signal, integer length.
                let n = (period * 30.0) as usize;
                let sig = tone(n, period, amp, 25.0);
                let est = dominant_period(&sig, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
                // Bin quantisation error bound: period²/total.
                let tol = period * period / (n as f64) + 1e-9;
                prop_assert!((est.period - period).abs() <= tol.max(1.0),
                             "period {} est {} tol {}", period, est.period, tol);
            }

            #[test]
            fn estimate_always_inside_band(xs in prop::collection::vec(0.0f64..60.0, 64..512)) {
                if let Some(est) = dominant_period(&xs, 1.0, PeriodBand::TRAFFIC_LIGHTS) {
                    prop_assert!(est.period >= 30.0 - 1e-9);
                    prop_assert!(est.period <= 300.0 + 1e-9);
                }
            }
        }
    }
}
