//! Reuse never leaks state: one workspace driven through many
//! heterogeneous calls keeps answering exactly what a fresh one answers.
//!
//! The workspace's correctness contract is *exact* equality — same
//! summation order, same bin grid — not approximate agreement. Every
//! comparison here is on `f64::to_bits`; `tests/golden.rs` pins the bits
//! themselves.

use taxilight_signal::interpolate::{resample, Method};
use taxilight_signal::periodogram::{PeriodBand, PeriodEstimate, SpectrumPath};
use taxilight_signal::SignalWorkspace;

fn estimate_bits(e: &PeriodEstimate) -> (usize, u64, u64, u64) {
    (e.bin, e.period.to_bits(), e.magnitude.to_bits(), e.snr.to_bits())
}

/// One workspace, 100 heterogeneous calls — mixed lengths, methods, and
/// spectrum paths — must keep producing exactly what the wrappers' fresh
/// workspace produces. Any state leaking between calls (stale buffer
/// tails, wrong plan, dirty scratch) shows up as a bit mismatch.
#[test]
fn workspace_reused_across_100_heterogeneous_calls_never_leaks_state() {
    let mut ws = SignalWorkspace::new();
    let band = PeriodBand::TRAFFIC_LIGHTS;
    let mut candidates = Vec::new();
    let mut fresh_candidates = Vec::new();
    let mut grid = Vec::new();

    for call in 0..100u64 {
        // Deterministic per-call shape: length cycles through pow2, prime,
        // the paper's 3600, and small odd sizes; contents vary per call.
        let n = match call % 5 {
            0 => 256,
            1 => 997,
            2 => 3600,
            3 => 64,
            _ => 131 + (call as usize % 7) * 10,
        };
        let sig: Vec<f64> =
            (0..n).map(|k| ((k as u64 * 2654435761 + call * 97) % 1013) as f64 / 9.0).collect();
        let path = if call % 3 == 0 { SpectrumPath::PaddedPow2 } else { SpectrumPath::Exact };
        let refine = call % 4 == 1;

        // Period search vs a fresh workspace.
        let fresh = SignalWorkspace::new().dominant_period(&sig, 1.0, band, refine, path);
        let got = ws.dominant_period(&sig, 1.0, band, refine, path);
        assert_eq!(
            got.as_ref().map(estimate_bits),
            fresh.as_ref().map(estimate_bits),
            "call {call}: period search diverged"
        );

        // Candidate ranking vs a fresh workspace.
        let k = 1 + (call as usize % 6);
        ws.band_candidates_into(&sig, 1.0, band, k, path, &mut candidates);
        SignalWorkspace::new().band_candidates_into(
            &sig,
            1.0,
            band,
            k,
            path,
            &mut fresh_candidates,
        );
        assert_eq!(
            candidates.iter().map(estimate_bits).collect::<Vec<_>>(),
            fresh_candidates.iter().map(estimate_bits).collect::<Vec<_>>(),
            "call {call}: candidates diverged"
        );

        // Resample vs the free wrapper, rotating through every method.
        let method = match call % 3 {
            0 => Method::NearestOrZero,
            1 => Method::Linear,
            _ => Method::CubicSpline,
        };
        let samples: Vec<(f64, f64)> = (0..30)
            .map(|k| (k as f64 * 13.3 + (call % 2) as f64 * 0.4, (k * 7 % 19) as f64))
            .collect();
        ws.resample_into(&samples, 0.0, 1.0, 400, method, &mut grid).unwrap();
        let fresh_grid = resample(&samples, 0.0, 1.0, 400, method).unwrap();
        assert_eq!(grid.len(), fresh_grid.len(), "call {call}");
        for (a, b) in grid.iter().zip(&fresh_grid) {
            assert_eq!(a.to_bits(), b.to_bits(), "call {call}: resample diverged");
        }
    }

    // Plans were actually reused: far fewer builds than lookups.
    let stats = ws.plan_stats();
    assert!(stats.hits() > stats.misses(), "expected cache reuse, got {stats:?}");
}
