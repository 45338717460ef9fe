//! Differential proptests for the kernel layer. The two kernels with two
//! bodies — the radix-2 butterfly and the epoch fold, SSE2 on `x86_64` —
//! must match their scalar references **bit for bit** (`f64::to_bits`):
//! the butterfly on arbitrary finite inputs at every stage size, the fold
//! on any times, values and periods. The grid kernels must reproduce the
//! legacy per-point evaluations they replace.

use proptest::prelude::*;
use taxilight_signal::kernels::{self, scalar, FoldBins, FoldColumns};
use taxilight_signal::Complex64;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cbits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Lengths that exercise empty, single-element, sub-lane, exact-lane, and
/// ragged-tail regimes (the drawn vector is cycled/stretched to `len`).
fn vec_with_ragged_len(max: usize) -> impl Strategy<Value = Vec<f64>> {
    (0usize..=max, prop::collection::vec(-1.0e6f64..1.0e6, 1..64)).prop_map(|(len, xs)| {
        (0..len).map(|k| xs[k % xs.len()] * (1.0 + (k / xs.len()) as f64 * 0.01)).collect()
    })
}

fn complex_vec(max: usize) -> impl Strategy<Value = Vec<Complex64>> {
    (vec_with_ragged_len(max), 0u64..u64::MAX).prop_map(|(xs, salt)| {
        xs.iter()
            .enumerate()
            .map(|(k, &re)| Complex64::new(re, re * 0.7 - (k as f64) - (salt % 97) as f64))
            .collect()
    })
}

/// Strictly increasing finite sample points plus a regular query grid.
fn points_and_grid() -> impl Strategy<Value = (Vec<(f64, f64)>, f64, f64, usize)> {
    (
        prop::collection::vec((0.1f64..20.0, -500.0f64..500.0), 1..60),
        -100.0f64..100.0,
        0.01f64..30.0,
        0usize..300,
    )
        .prop_map(|(deltas, t0, dt, count)| {
            let mut t = -50.0;
            let points: Vec<(f64, f64)> = deltas
                .into_iter()
                .map(|(d, y)| {
                    t += d;
                    (t, y)
                })
                .collect();
            (points, t0, dt, count)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn butterfly_paths_bitwise_equal(buf in complex_vec(128), stage_sel in 0usize..8) {
        // Pad to ≥ 2 elements, then round down to a power-of-two length
        // and pick a valid stage half-size for it.
        let mut buf = buf;
        while buf.len() < 2 {
            buf.push(Complex64::new(1.5, -2.5));
        }
        let n = if buf.len().is_power_of_two() {
            buf.len()
        } else {
            buf.len().next_power_of_two() / 2
        };
        let buf = &buf[..n];
        let half = 1usize << (stage_sel % n.trailing_zeros() as usize);
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
        let mut a = buf.to_vec();
        let mut b = buf.to_vec();
        scalar::butterfly_stage(&mut a, half, &tw);
        kernels::butterfly_stage(&mut b, half, &tw);
        prop_assert_eq!(cbits(&a), cbits(&b));
    }

    #[test]
    fn lerp_grid_matches_legacy_eval(input in points_and_grid()) {
        let (points, t0, dt, count) = input;
        let mut out = Vec::new();
        kernels::lerp_grid_into(&points, t0, dt, count, &mut out);
        // The segment scan must reproduce the legacy per-point
        // binary-search evaluation (the bit-identity-class contract).
        let legacy: Vec<f64> = (0..count)
            .map(|k| {
                taxilight_signal::interpolate::linear_interpolate(
                    &points,
                    &[t0 + dt * k as f64],
                )
                .unwrap()[0]
            })
            .collect();
        prop_assert_eq!(bits(&out), bits(&legacy));
    }

    #[test]
    fn spline_grid_matches_legacy_eval(input in points_and_grid()) {
        let (points, t0, dt, count) = input;
        let spline = taxilight_signal::interpolate::CubicSpline::new(&points).unwrap();
        // Recover the knot second-derivatives via the free resample path:
        // compare kernel output against `sample_grid`, which evaluates the
        // legacy per-point expression.
        let legacy = spline.sample_grid(t0, dt, count);
        let ws_out = {
            let mut ws = taxilight_signal::SignalWorkspace::new();
            let mut out = Vec::new();
            ws.resample_into(
                &points,
                t0,
                dt.max(0.01),
                count,
                taxilight_signal::interpolate::Method::CubicSpline,
                &mut out,
            )
            .ok();
            out
        };
        // `resample_into` merges same-slot points first, so only compare
        // when merging is a no-op (all knots in distinct unit slots).
        let distinct_slots = points
            .windows(2)
            .all(|w| w[0].0.floor() != w[1].0.floor());
        let all_on_slots = points.iter().all(|&(t, _)| t == t.floor());
        if distinct_slots && all_on_slots {
            prop_assert_eq!(bits(&ws_out), bits(&legacy));
        }
    }
}

/// Exact bits of one fold: each bin's `[Σv, Σv²]`, then the counts.
fn fold_bits(b: &FoldBins) -> Vec<u64> {
    let sums = b.sums.iter().flat_map(|s| [s[0].to_bits(), s[1].to_bits()]);
    sums.chain(b.counts.iter().map(|&c| c as u64)).collect()
}

/// The dispatched fold (SSE2 on `x86_64` wherever its domain holds) and
/// the scalar reference give the same bits.
fn same_fold(samples: &[(f64, f64)], cycle: f64) -> Result<(), TestCaseError> {
    let mut cols = FoldColumns::new();
    cols.fill(samples);
    prop_assert_eq!(
        fold_bits(&kernels::fold_bins(&cols, cycle)),
        fold_bits(&scalar::fold_bins(&cols, cycle)),
        "cycle {:e}, {} samples",
        cycle,
        samples.len()
    );
    Ok(())
}

/// Periods as the fold-validation grid makes them: any value, whole
/// seconds and quarter seconds.
fn period(cycle: f64, shape: u32) -> f64 {
    match shape {
        0 => cycle,
        1 => cycle.round(),
        _ => (cycle * 4.0).round() / 4.0,
    }
}

/// `x` moved by `ulps` units in the last place; 0 stays 0.
fn ulps_away(x: f64, ulps: i64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Speeds in the km/h range, cycled over the samples.
fn speed(values: &[f64], i: usize) -> f64 {
    values[i % values.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fold_paths_bitwise_equal(
        times in prop::collection::vec(0.0f64..3_600.0, 0..300),
        values in prop::collection::vec(-5.0f64..80.0, 1..16),
        cycle in 5.0f64..400.0,
        shape in 0u32..3,
        whole_seconds in prop::bool::ANY,
    ) {
        // Window-relative report times are whole seconds; pooled and
        // mirrored samples need not be. Odd lengths fold a tail sample.
        let samples: Vec<(f64, f64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (if whole_seconds { t.floor() } else { t }, speed(&values, i)))
            .collect();
        same_fold(&samples, period(cycle, shape))?;
    }

    #[test]
    fn fold_paths_agree_at_period_and_bin_edges(
        cycle in 5.0f64..400.0,
        shape in 0u32..3,
        edges in prop::collection::vec((0u64..100_000, -3i64..=3, 0u32..3), 1..80),
        values in prop::collection::vec(-5.0f64..80.0, 1..16),
    ) {
        // Times within ±3 ulps of k·cycle, where the quotient is off by
        // one, and of k·cycle/12, where the phase sits on a bin edge
        // (for k < 12 the remainder itself does, to the ulp).
        let cycle = period(cycle, shape);
        let samples: Vec<(f64, f64)> = edges
            .iter()
            .enumerate()
            .map(|(i, &(k, ulps, kind))| {
                let edge = match kind {
                    0 => k as f64 * cycle,
                    1 => k as f64 * cycle / 12.0,
                    _ => (k % 12) as f64 * cycle / 12.0,
                };
                (ulps_away(edge, ulps), speed(&values, i))
            })
            .collect();
        same_fold(&samples, cycle)?;
    }

    #[test]
    fn fold_paths_agree_outside_the_sse2_domain(
        times in prop::collection::vec(0.0f64..3_600.0, 1..120),
        values in prop::collection::vec(-5.0f64..80.0, 1..16),
        cycle in 5.0f64..400.0,
        pick in 0usize..120,
        ulps in -3i64..=3,
        frac in 0.0f64..1.0,
        tiny in 1u64..(1u64 << 52),
    ) {
        let samples: Vec<(f64, f64)> =
            times.iter().enumerate().map(|(i, &t)| (t, speed(&values, i))).collect();
        let i = pick % samples.len();
        let with = |t: f64| {
            let mut s = samples.clone();
            s[i].0 = t;
            s
        };
        // A negative time.
        same_fold(&with(-samples[i].0 - 1.0), cycle)?;
        // t/cycle at and beyond 2^25, up to past the i32 quotient range.
        let edge = cycle * (1u64 << 25) as f64;
        same_fold(&with(ulps_away(edge, ulps)), cycle)?;
        for scale in [1.0, 2.0, 64.0, 1e6] {
            same_fold(&with(edge * scale * (1.0 + frac)), cycle)?;
        }
        // A non-finite time.
        same_fold(&with(f64::NAN), cycle)?;
        same_fold(&with(f64::INFINITY), cycle)?;
        // A subnormal cycle, and cycles whose reciprocals are not normal.
        same_fold(&samples, f64::from_bits(tiny))?;
        same_fold(&samples, f64::MIN_POSITIVE * (1.0 + frac))?;
        same_fold(&samples, f64::MAX * frac.max(0.5))?;
    }
}

#[test]
fn empty_and_single_element_inputs() {
    assert_eq!(kernels::sum(&[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(kernels::sum(&[3.5]), 3.5);

    let mut out = Vec::new();
    kernels::magnitudes_into(&[], &mut out);
    assert!(out.is_empty());
    kernels::magnitudes_into(&[Complex64::new(3.0, -4.0)], &mut out);
    assert_eq!(out, vec![5.0]);

    taxilight_signal::convolution::circular_moving_average_into(&[], 5, &mut out);
    assert!(out.is_empty());
    taxilight_signal::convolution::circular_moving_average_into(&[7.0], 0, &mut out);
    assert_eq!(out, vec![7.0]);
}
