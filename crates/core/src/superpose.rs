//! Data superposition (paper Sec. VI-B, Fig. 10).
//!
//! Folding the sparse speed samples of many consecutive cycles into a
//! single cycle (`new index = old index mod cycle length`) accumulates
//! enough samples per within-cycle offset to see the red/green pattern.
//! Superposition preserves relative position within the cycle, so the
//! signal-change time is unchanged.
//!
//! Fold validation scores a candidate period by the same fold, coarsened
//! to twelve phase bins ([`fold_contrast`]). Its per-sample loop is the
//! `taxilight_signal::kernels::fold_bins` kernel, an SSE2 body with a
//! scalar reference; the proof that both take `t.rem_euclid(cycle)` bit
//! for bit without `fmod` lives with that kernel. This module keeps the
//! ANOVA finish, and this crate stays free of `unsafe`.

use crate::workspace::IdentifyWorkspace;
use taxilight_signal::kernels::{self, FoldBins, FoldColumns, FOLD_BINS};

/// Folds `(t_abs_s, value)` samples into one cycle of length `cycle_s`.
/// The fold anchor is absolute time 0, so a folded coordinate `x`
/// corresponds to absolute times `t ≡ x (mod cycle_s)`. Output is sorted
/// by folded coordinate; equal coordinates keep their input order.
///
/// # Panics
/// Panics when `cycle_s` is not positive.
pub fn superpose(samples: &[(f64, f64)], cycle_s: f64) -> Vec<(f64, f64)> {
    let mut folded = Vec::new();
    superpose_into(samples, cycle_s, &mut folded);
    folded.into_iter().map(|(x, v, _)| (x, v)).collect()
}

/// [`superpose`] into `folded` (cleared first), each sample tagged with its
/// input index. The index breaks ties, so the unstable sort keeps equal
/// folded coordinates (t = 10 and t = 108 both fold to 10 at cycle 98) in
/// input order without a stable sort's buffer; bin sums depend on that
/// order.
pub(crate) fn superpose_into(
    samples: &[(f64, f64)],
    cycle_s: f64,
    folded: &mut Vec<(f64, f64, usize)>,
) {
    assert!(cycle_s > 0.0, "cycle must be positive");
    folded.clear();
    folded.extend(samples.iter().enumerate().map(|(i, &(t, v))| (t.rem_euclid(cycle_s), v, i)));
    folded.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
}

/// Bins folded samples into per-second means over `[0, cycle_len)`;
/// seconds with no sample are `None`.
pub fn bin_cycle(folded: &[(f64, f64)], cycle_len: usize) -> Vec<Option<f64>> {
    let mut binned = Vec::new();
    bin_cycle_into(folded.iter().copied(), cycle_len, &mut Vec::new(), &mut binned);
    binned
}

/// [`bin_cycle`] into `binned` (cleared first); `acc` holds each second's
/// `(sum, count)`.
pub(crate) fn bin_cycle_into(
    folded: impl IntoIterator<Item = (f64, f64)>,
    cycle_len: usize,
    acc: &mut Vec<(f64, u32)>,
    binned: &mut Vec<Option<f64>>,
) {
    acc.clear();
    acc.resize(cycle_len, (0.0, 0));
    for (x, v) in folded {
        let bin = &mut acc[(x as usize).min(cycle_len.saturating_sub(1))];
        bin.0 += v;
        bin.1 += 1;
    }
    binned.clear();
    binned.extend(acc.iter().map(|&(sum, count)| (count > 0).then(|| sum / count as f64)));
}

/// Fills `None` gaps by circular linear interpolation between the nearest
/// filled neighbours (the series is one period of a cyclic signal).
/// Returns an all-zero series when every slot is empty.
pub fn fill_gaps_circular(binned: &[Option<f64>]) -> Vec<f64> {
    let mut out = Vec::new();
    fill_gaps_circular_into(binned, &mut Vec::new(), &mut out);
    out
}

/// [`fill_gaps_circular`] into `out` (cleared first); `filled` collects
/// the indices of the filled slots.
pub(crate) fn fill_gaps_circular_into(
    binned: &[Option<f64>],
    filled: &mut Vec<usize>,
    out: &mut Vec<f64>,
) {
    let n = binned.len();
    filled.clear();
    filled.extend((0..n).filter(|&i| binned[i].is_some()));
    out.clear();
    if filled.len() == 1 {
        out.resize(n, binned[filled[0]].unwrap());
        return;
    }
    out.resize(n, 0.0);
    for (k, &i) in filled.iter().enumerate() {
        out[i] = binned[i].unwrap();
        // Fill the gap between this filled slot and the next (circularly).
        let j = filled[(k + 1) % filled.len()];
        let gap = if j > i { j - i } else { n - i + j };
        if gap <= 1 {
            continue;
        }
        let (vi, vj) = (binned[i].unwrap(), binned[j].unwrap());
        for step in 1..gap {
            let idx = (i + step) % n;
            let w = step as f64 / gap as f64;
            out[idx] = vi * (1.0 - w) + vj * w;
        }
    }
}

/// Convenience: superpose, bin and gap-fill in one call, producing the
/// 1 Hz cyclic speed profile the change-point detector consumes. A wrapper
/// over the workspace body with a fresh workspace.
///
/// # Panics
/// Panics when `cycle_s` is not positive.
pub fn cycle_profile(samples: &[(f64, f64)], cycle_s: f64) -> Vec<f64> {
    let mut ws = IdentifyWorkspace::new();
    ws.cycle_profile(samples, cycle_s);
    ws.profile
}

/// Epoch-folding contrast: how much of the samples' variance is explained
/// by folding them at `cycle_s` (noise-corrected ANOVA R², clamped to
/// `[0, 1]`).
///
/// Folding at the true period aligns red with red and green with green, so
/// within-bin variance collapses and between-bin variance explains the
/// total; a wrong period mixes phases and explains nothing. The raw R²
/// favours long periods (more bins → each fits noise), so the expected
/// noise contribution `(B−1)·σ̂²_within` is subtracted — the standard
/// ANOVA correction.
///
/// The fold itself — each sample's phase bin from `t.rem_euclid(cycle_s)`,
/// bit for bit, and each bin's `Σv`, `Σv²` and count — is the
/// [`taxilight_signal::kernels::fold_bins`] kernel, whose docs give the
/// exact remainder without libm's `fmod` and the SSE2 body's argument.
/// This function fills the kernel's columns for one call; the cycle stage
/// fills them once per light and folds them at every candidate period.
///
/// Returns 0 for degenerate inputs (fewer than ~2 samples per bin on
/// average, zero variance).
///
/// # Panics
/// Panics when `cycle_s` is not positive.
pub fn fold_contrast(samples: &[(f64, f64)], cycle_s: f64) -> f64 {
    let mut cols = FoldColumns::new();
    cols.fill(samples);
    fold_contrast_of(&cols, cycle_s)
}

/// [`fold_contrast`] of the samples in `cols`.
pub(crate) fn fold_contrast_of(cols: &FoldColumns, cycle_s: f64) -> f64 {
    assert!(cycle_s > 0.0, "cycle must be positive");
    if cols.len() < 2 * FOLD_BINS {
        return 0.0;
    }
    anova_contrast(&kernels::fold_bins(cols, cycle_s), cols.len())
}

/// The noise-corrected R² of `n` samples folded into `bins`.
fn anova_contrast(bins: &FoldBins, n: usize) -> f64 {
    let total: f64 = bins.sums.iter().map(|s| s[0]).sum();
    let mu = total / n as f64;
    let tss: f64 = bins.sums.iter().map(|s| s[1]).sum::<f64>() - n as f64 * mu * mu;
    if tss <= 1e-9 {
        return 0.0;
    }
    let mut bss = 0.0;
    let mut occupied = 0usize;
    for (s, &count) in bins.sums.iter().zip(&bins.counts) {
        if count > 0 {
            let m = s[0] / count as f64;
            bss += count as f64 * (m - mu) * (m - mu);
            occupied += 1;
        }
    }
    let wss = (tss - bss).max(0.0);
    let df_within = n.saturating_sub(occupied).max(1) as f64;
    let noise = (occupied.saturating_sub(1)) as f64 * wss / df_within;
    ((bss - noise) / tss).clamp(0.0, 1.0)
}

impl IdentifyWorkspace {
    /// [`cycle_profile`] into `self.profile`, with the fold, bin and
    /// gap-fill scratch kept in the workspace.
    ///
    /// # Panics
    /// Panics when `cycle_s` is not positive.
    pub(crate) fn cycle_profile(&mut self, samples: &[(f64, f64)], cycle_s: f64) {
        let _span =
            taxilight_obs::span!("superpose.profile", samples = samples.len(), cycle_s = cycle_s);
        let cycle_len = cycle_s.round().max(1.0) as usize;
        superpose_into(samples, cycle_s, &mut self.folded);
        let folded = self.folded.iter().map(|&(x, v, _)| (x, v));
        bin_cycle_into(folded, cycle_len, &mut self.bins, &mut self.binned);
        fill_gaps_circular_into(&self.binned, &mut self.filled, &mut self.profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_maps_by_modulo() {
        // Paper Fig. 10: cycle 98; samples from 3 consecutive cycles land
        // at `t mod 98`.
        let samples = vec![(10.0, 1.0), (108.0, 2.0), (206.0, 3.0), (150.0, 4.0)];
        let folded = superpose(&samples, 98.0);
        assert_eq!(folded.len(), 4);
        assert_eq!(folded[0].0, 10.0);
        assert_eq!(folded[1].0, 10.0);
        assert_eq!(folded[2].0, 10.0);
        assert!((folded[3].0 - 52.0).abs() < 1e-12);
        // Values preserved (the three t≡10 samples are 1, 2, 3 in some order).
        let mut vals: Vec<f64> = folded[..3].iter().map(|p| p.1).collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fold_preserves_relative_index() {
        // A sample `k` seconds after a red onset folds to the same
        // coordinate in every cycle — the property the paper relies on.
        let cycle = 106.0;
        for k in [0.0, 17.0, 63.0, 105.0] {
            let folded = superpose(&[(k, 1.0), (k + cycle, 1.0), (k + 5.0 * cycle, 1.0)], cycle);
            for &(x, _) in &folded {
                assert!((x - k).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cycle must be positive")]
    fn zero_cycle_rejected() {
        superpose(&[(1.0, 1.0)], 0.0);
    }

    #[test]
    fn bin_cycle_averages_within_seconds() {
        let folded = vec![(2.3, 10.0), (2.9, 20.0), (5.0, 7.0)];
        let binned = bin_cycle(&folded, 8);
        assert_eq!(binned[2], Some(15.0));
        assert_eq!(binned[5], Some(7.0));
        assert_eq!(binned[0], None);
        assert_eq!(binned.len(), 8);
    }

    #[test]
    fn fill_gaps_interpolates_linearly() {
        let binned = vec![Some(0.0), None, None, Some(30.0), None, None];
        let filled = fill_gaps_circular(&binned);
        assert_eq!(filled[0], 0.0);
        assert!((filled[1] - 10.0).abs() < 1e-9);
        assert!((filled[2] - 20.0).abs() < 1e-9);
        assert_eq!(filled[3], 30.0);
        // Circular wrap from index 3 back to 0: 30 → 0 over 3 steps.
        assert!((filled[4] - 20.0).abs() < 1e-9);
        assert!((filled[5] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fill_gaps_degenerate_cases() {
        assert!(fill_gaps_circular(&[]).is_empty());
        assert_eq!(fill_gaps_circular(&[None, None]), vec![0.0, 0.0]);
        assert_eq!(fill_gaps_circular(&[None, Some(5.0), None]), vec![5.0, 5.0, 5.0]);
        assert_eq!(fill_gaps_circular(&[Some(1.0)]), vec![1.0]);
    }

    #[test]
    fn cycle_profile_reconstructs_square_wave() {
        // Red [0, 39): slow; green [39, 98): fast. Sparse samples over 20
        // cycles must reconstruct the pattern after superposition.
        let cycle = 98.0;
        let mut samples = Vec::new();
        let mut t = 0.0;
        let mut k = 0u64;
        while t < 20.0 * cycle {
            let pos = t % cycle;
            let v = if pos < 39.0 { 1.0 } else { 40.0 };
            samples.push((t, v));
            // Irregular ~17 s gaps.
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += 12.0 + (k >> 33) as f64 / (1u64 << 31) as f64 * 10.0;
        }
        let profile = cycle_profile(&samples, cycle);
        assert_eq!(profile.len(), 98);
        let red_mean: f64 = profile[5..34].iter().sum::<f64>() / 29.0;
        let green_mean: f64 = profile[45..93].iter().sum::<f64>() / 48.0;
        assert!(red_mean < 10.0, "red region mean {red_mean}");
        assert!(green_mean > 25.0, "green region mean {green_mean}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The reference for [`fold_contrast`]: each sample's phase bin
        /// from `rem_euclid` (libm's `fmod`), each bin summed in sample
        /// order, then the same ANOVA finish.
        fn rem_euclid_contrast(samples: &[(f64, f64)], cycle_s: f64) -> f64 {
            if samples.len() < 2 * FOLD_BINS {
                return 0.0;
            }
            let mut bins = FoldBins::default();
            for &(t, v) in samples {
                let phase = t.rem_euclid(cycle_s) / cycle_s;
                let b = ((phase * FOLD_BINS as f64) as usize).min(FOLD_BINS - 1);
                bins.sums[b][0] += v;
                bins.sums[b][1] += v * v;
                bins.counts[b] += 1;
            }
            anova_contrast(&bins, samples.len())
        }

        proptest! {
            #[test]
            fn fold_contrast_equals_the_rem_euclid_reference(
                samples in prop::collection::vec((0.0f64..3_600.0, -5.0f64..80.0), 0..300),
                cycle in 5.0f64..400.0,
                whole_seconds in prop::bool::ANY,
            ) {
                // Window-relative report times are whole seconds.
                let samples: Vec<(f64, f64)> = if whole_seconds {
                    samples.iter().map(|&(t, v)| (t.floor(), v)).collect()
                } else {
                    samples
                };
                for p in [cycle, cycle.round(), (cycle * 4.0).round() / 4.0] {
                    prop_assert_eq!(
                        fold_contrast(&samples, p).to_bits(),
                        rem_euclid_contrast(&samples, p).to_bits(),
                        "cycle {}", p
                    );
                }
            }
        }

        proptest! {
            #[test]
            fn folded_coordinates_in_range(samples in prop::collection::vec(
                (0.0f64..100_000.0, -10.0f64..60.0), 0..200), cycle in 10.0f64..300.0) {
                for (x, _) in superpose(&samples, cycle) {
                    prop_assert!((0.0..cycle).contains(&x));
                }
            }

            #[test]
            fn fold_conserves_sample_count(samples in prop::collection::vec(
                (0.0f64..10_000.0, 0.0f64..60.0), 0..100)) {
                prop_assert_eq!(superpose(&samples, 98.0).len(), samples.len());
            }

            #[test]
            fn filled_profile_bounded_by_observed_values(
                samples in prop::collection::vec((0.0f64..5_000.0, 0.0f64..50.0), 1..100)
            ) {
                let profile = cycle_profile(&samples, 100.0);
                let lo = samples.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                let hi = samples.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
                for v in profile {
                    prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
                }
            }

            #[test]
            fn fold_is_idempotent(samples in prop::collection::vec(
                (0.0f64..50_000.0, 0.0f64..60.0), 0..120), cycle in 10.0f64..300.0) {
                // Folded coordinates already lie in [0, cycle), so folding
                // again is the identity — the invariant that lets the
                // pipeline treat folded and unfolded phases uniformly.
                let once = superpose(&samples, cycle);
                let twice = superpose(&once, cycle);
                prop_assert_eq!(&once, &twice);
            }

            #[test]
            fn whole_cycle_shift_leaves_fold_unchanged(samples in prop::collection::vec(
                (0.0f64..5_000.0, 0.0f64..60.0), 0..80), k in 1u32..20) {
                // Sec. VI-B's core claim: superposition preserves relative
                // position within the cycle.
                let cycle = 98.0;
                let shifted: Vec<(f64, f64)> = samples
                    .iter()
                    .map(|&(t, v)| (t + k as f64 * cycle, v))
                    .collect();
                let a = superpose(&samples, cycle);
                let b = superpose(&shifted, cycle);
                prop_assert_eq!(a.len(), b.len());
                for (&(xa, va), &(xb, vb)) in a.iter().zip(&b) {
                    prop_assert!((xa - xb).abs() < 1e-6);
                    prop_assert!((va - vb).abs() < 1e-12);
                }
            }

            #[test]
            fn binning_conserves_mass(samples in prop::collection::vec(
                (0.0f64..3_000.0, 0.0f64..60.0), 0..120)) {
                // Per-bin mean × per-bin count sums back to the total: the
                // fold loses no sample mass. Recover counts by re-binning.
                let cycle_len = 100usize;
                let folded = superpose(&samples, cycle_len as f64);
                let binned = bin_cycle(&folded, cycle_len);
                let mut counts = vec![0u32; cycle_len];
                for &(x, _) in &folded {
                    counts[(x as usize).min(cycle_len - 1)] += 1;
                }
                let mass: f64 = binned
                    .iter()
                    .zip(&counts)
                    .map(|(b, &c)| b.unwrap_or(0.0) * c as f64)
                    .sum();
                let total: f64 = samples.iter().map(|p| p.1).sum();
                prop_assert!((mass - total).abs() < 1e-6 * total.max(1.0));
                // And a bin is empty iff no sample landed in it.
                for (b, &c) in binned.iter().zip(&counts) {
                    prop_assert_eq!(b.is_some(), c > 0);
                }
            }

            #[test]
            fn gap_fill_preserves_observed_bins(samples in prop::collection::vec(
                (0.0f64..2_000.0, 0.0f64..50.0), 1..60)) {
                let cycle_len = 60usize;
                let binned = bin_cycle(&superpose(&samples, cycle_len as f64), cycle_len);
                let filled = fill_gaps_circular(&binned);
                prop_assert_eq!(filled.len(), cycle_len);
                for (f, b) in filled.iter().zip(&binned) {
                    if let Some(v) = b {
                        prop_assert!((f - v).abs() < 1e-12);
                    }
                }
            }

            #[test]
            fn fold_contrast_stays_in_unit_interval(samples in prop::collection::vec(
                (0.0f64..10_000.0, 0.0f64..60.0), 0..150), cycle in 10.0f64..300.0) {
                let r2 = fold_contrast(&samples, cycle);
                prop_assert!((0.0..=1.0).contains(&r2));
            }
        }
    }
}
