//! Golden digests of every per-light identification stage.
//!
//! Each test runs a fixed case list through one stage twice: once through
//! the free entry point, which builds a fresh workspace per call, and once
//! through one [`IdentifyWorkspace`] reused across every case. Each run
//! folds every output (`f64::to_bits`, bins, lengths, error variants) into
//! an FNV-1a digest, and both must equal the pinned literal: the literal
//! locks the output bits, the reused run proves that no state leaks from
//! one call into the next.
//!
//! The literals pin the x86_64 Linux build: FFT twiddles and Bluestein
//! chirps come from `Complex64::cis`, which calls the platform libm's
//! `sin_cos`.

use crate::change_point::{green_onset_from_stops, identify_change_point};
use crate::config::{CycleMethod, IdentifyConfig};
use crate::cycle::testutil::{planted_obs, square_samples, Lcg};
use crate::cycle::{identify_cycle_from_samples, speed_samples};
use crate::engine::{Identifier, IdentifyRequest};
use crate::enhance::mirror_enhance;
use crate::superpose::{bin_cycle, cycle_profile, fill_gaps_circular, superpose};
use crate::view::ScheduleView;
use crate::workspace::IdentifyWorkspace;
use taxilight_signal::periodogram::SpectrumPath;
use taxilight_sim::lights::PhasePlan;
use taxilight_trace::time::Timestamp;

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

    fn values(&mut self, vs: &[f64]) {
        self.words(std::iter::once(vs.len() as u64).chain(vs.iter().map(|v| v.to_bits())));
    }

    fn pairs(&mut self, ps: &[(f64, f64)]) {
        let bits = ps.iter().flat_map(|&(a, b)| [a.to_bits(), b.to_bits()]);
        self.words(std::iter::once(ps.len() as u64).chain(bits));
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

#[test]
fn cycle_stage_digest_is_pinned() {
    // Three planted cycles, a NaN/Inf-spliced signal, flat traffic, too
    // few samples, a zero-length window and a pow2 window.
    let mut cases: Vec<(Vec<(f64, f64)>, usize)> = Vec::new();
    for (cycle, red, offset, gap, seed) in
        [(98, 39, 0, 5.0, 1u64), (106, 63, 30, 20.0, 7), (120, 55, 10, 25.0, 13)]
    {
        let obs = planted_obs(cycle, red, offset, 3600, gap, seed);
        cases.push((speed_samples(&obs, Timestamp(0), 500.0), 3600));
    }
    let mut dirty = cases[0].0.clone();
    for k in (0..dirty.len()).step_by(9) {
        dirty[k].1 = f64::NAN;
    }
    dirty.push((f64::INFINITY, 30.0));
    cases.push((dirty, 3600));
    cases.push(((0..60).map(|k| (k as f64 * 7.0, 35.0)).collect(), 3600));
    cases.push((vec![(1.0, 20.0), (2.0, 0.0)], 3600));
    cases.push((cases[0].0.clone(), 0));
    cases.push((cases[0].0.iter().copied().filter(|&(t, _)| t < 2048.0).collect(), 2048));
    let configs = [
        IdentifyConfig::default(),
        IdentifyConfig { spectrum: SpectrumPath::PaddedPow2, ..IdentifyConfig::default() },
        IdentifyConfig { refine_peak: true, ..IdentifyConfig::default() },
        IdentifyConfig { cycle_method: CycleMethod::Autocorrelation, ..IdentifyConfig::default() },
        IdentifyConfig { fold_validate: false, ..IdentifyConfig::default() },
    ];

    let fold = |d: &mut Digest, r: Result<crate::cycle::CycleEstimate, _>| match r {
        Ok(e) => d.words([e.cycle_s.to_bits(), e.bin as u64, e.snr.to_bits(), e.samples_used as _]),
        Err(e) => d.error(&e),
    };
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = IdentifyWorkspace::new();
    for (samples, window) in &cases {
        for cfg in &configs {
            fold(&mut fresh, identify_cycle_from_samples(samples, *window, cfg));
            fold(&mut reused, ws.cycle_from_samples(samples, *window, cfg));
        }
    }
    assert!(ws.plan_stats().hits() > 0, "plans should be reused across cases");
    assert_pinned("cycle", &[("fresh", fresh), ("reused", reused)], 0x940bb8352ee30981);
}

#[test]
#[allow(clippy::type_complexity)]
fn enhance_stage_digest_is_pinned() {
    let mut rng = Lcg(77);
    let mut cases: Vec<(Vec<(f64, f64)>, Vec<(f64, f64)>)> = vec![
        (vec![(10.0, 40.0), (30.0, 0.0)], vec![(10.0, 0.0), (20.0, 40.0), (40.0, 0.0)]),
        (vec![(3.0, 12.0), (9.0, 30.0)], vec![]),
        (vec![], vec![(1.0, 80.0), (1.4, 10.0)]),
        (vec![], vec![]),
        (vec![(0.0, 0.0)], vec![(1.0, 80.0)]),
    ];
    for _ in 0..6 {
        let (n, m) = (rng.range(0.0, 60.0) as usize, rng.range(0.0, 60.0) as usize);
        let mut series = |k: usize| -> Vec<(f64, f64)> {
            (0..k).map(|_| (rng.range(-5.0, 900.0), rng.range(0.0, 55.0))).collect()
        };
        let primary = series(n);
        cases.push((primary, series(m)));
    }

    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = IdentifyWorkspace::new();
    for (primary, perpendicular) in &cases {
        fresh.pairs(&mirror_enhance(primary, perpendicular));
        ws.pool_primary.clear();
        ws.pool_primary.extend_from_slice(primary);
        ws.pool_perpendicular.clear();
        ws.pool_perpendicular.extend_from_slice(perpendicular);
        ws.mirror_enhance_pools();
        reused.pairs(&ws.enhanced);
    }
    assert_pinned("enhance", &[("fresh", fresh), ("reused", reused)], 0x0597169ae30473df);
}

/// Superposition cases, including exactly tied folded coordinates (10,
/// 108 and 206 all fold to 10 at cycle 98), whose bin sums depend on the
/// fold order.
fn profile_cases() -> Vec<(Vec<(f64, f64)>, f64)> {
    let mut rng = Lcg(9);
    let mut cases: Vec<(Vec<(f64, f64)>, f64)> = vec![
        (vec![(10.0, 1.0), (108.0, 2.0), (206.0, 3.0), (150.0, 4.0)], 98.0),
        (vec![], 50.0),
        (vec![(7.2, 33.0)], 60.0),
        (vec![(0.4, 0.1), (0.6, 0.2)], 1.3),
    ];
    for _ in 0..8 {
        let n = (rng.next_f64() * 150.0) as usize;
        let cycle = 10.0 + rng.next_f64() * 200.0;
        let s = (0..n)
            .map(|_| {
                ((rng.next_f64() * 5000.0).round(), (rng.next_f64() * 60.0 * 8.0).round() / 8.0)
            })
            .collect();
        cases.push((s, cycle));
    }
    cases
}

#[test]
fn profile_stage_digest_is_pinned() {
    let (mut fresh, mut steps, mut reused) = (Digest::new(), Digest::new(), Digest::new());
    let mut ws = IdentifyWorkspace::new();
    for (samples, cycle_s) in &profile_cases() {
        fresh.values(&cycle_profile(samples, *cycle_s));
        let cycle_len = cycle_s.round().max(1.0) as usize;
        steps.values(&fill_gaps_circular(&bin_cycle(&superpose(samples, *cycle_s), cycle_len)));
        ws.cycle_profile(samples, *cycle_s);
        reused.values(&ws.profile);
    }
    let runs = [("fresh", fresh), ("steps", steps), ("reused", reused)];
    assert_pinned("profile", &runs, 0x4bc5505865744b7a);
}

#[test]
fn fold_and_bin_steps_digest_is_pinned() {
    let mut d = Digest::new();
    for (samples, cycle_s) in &profile_cases() {
        let folded = superpose(samples, *cycle_s);
        d.pairs(&folded);
        let binned = bin_cycle(&folded, cycle_s.round().max(1.0) as usize);
        d.words(binned.into_iter().map(|b| b.map_or(u64::MAX, f64::to_bits)));
    }
    assert_pinned("fold/bin", &[("free", d)], 0xa6090efcf0d91c94);
}

#[test]
#[allow(clippy::type_complexity)]
fn change_point_stage_digest_is_pinned() {
    let cases: Vec<(Vec<(f64, f64)>, f64, f64)> = vec![
        (square_samples(98.0, 39.0, 41.0, 98.0 * 30.0, 8.0, 3), 98.0, 39.0),
        (square_samples(100.0, 40.0, 85.0, 4_000.0, 9.0, 5), 100.0, 40.0),
        (square_samples(106.0, 63.0, 20.0, 106.0 * 40.0, 25.0, 11), 106.0, 63.0),
        (vec![], 98.0, 39.0),
        (vec![(0.0, 10.0)], 0.0, 39.0),
        (vec![(0.0, 10.0)], 98.0, 98.0),
        // Flat profile: skips the edge refinement branch.
        ((0..200).map(|k| (k as f64 * 7.0, 20.0)).collect(), 90.0, 30.0),
    ];
    let fold = |d: &mut Digest, r: Result<crate::change_point::ChangePointEstimate, _>| match r {
        Ok(e) => d.words([e.red_start_s, e.green_start_s, e.min_windowed_speed].map(f64::to_bits)),
        Err(e) => d.error(&e),
    };
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = IdentifyWorkspace::new();
    for (samples, cycle_s, red_s) in &cases {
        fold(&mut fresh, identify_change_point(samples, *cycle_s, *red_s));
        fold(&mut reused, ws.change_point(samples, *cycle_s, *red_s));
    }
    assert_pinned("change point", &[("fresh", fresh), ("reused", reused)], 0xb2dd2e83b1866629);
}

#[test]
fn onset_stage_digest_is_pinned() {
    let onsets: Vec<f64> = (0..40).map(|k| 41.0 + 98.0 * k as f64 + (k % 5) as f64).collect();
    let (mut fresh, mut reused) = (Digest::new(), Digest::new());
    let mut ws = IdentifyWorkspace::new();
    for (set, cycle_s, min_stops) in
        [(&onsets[..], 98.0, 8), (&onsets[..3], 98.0, 8), (&onsets[..], 0.5, 1)]
    {
        let r = green_onset_from_stops(set, cycle_s, min_stops);
        fresh.words([r.map_or(u64::MAX, f64::to_bits)]);
        let r = ws.green_onset_from_stops(set, cycle_s, min_stops);
        reused.words([r.map_or(u64::MAX, f64::to_bits)]);
    }
    assert_pinned("onset", &[("fresh", fresh), ("reused", reused)], 0x6069be14dca552e8);
}

/// The whole chain — cycle, enhancement, red, consensus and the fused
/// change point — over the simulated city the pipeline tests build.
#[test]
fn serial_identifier_view_digest_is_pinned() {
    let (city, _signals, parts, at) =
        crate::pipeline::tests::simulated_world(PhasePlan::new(100, 45, 10), 120, 3600);
    let outcome =
        Identifier::with_defaults(&city.net).run(&parts, &IdentifyRequest::all(at).serial());
    assert!(outcome.ok_count() >= 2, "fixture should identify several lights");
    let view = ScheduleView::new(0, Some(at), outcome.schedules().map(|(l, s)| (l, *s)).collect());
    assert_pinned("view", &[("serial", Digest(view.digest()))], 0xb1ad828e7fc56d69);
}
