//! Per-worker reusable state for the identification hot path.
//!
//! [`IdentifyWorkspace`] owns a [`SignalWorkspace`] (FFT plan cache plus
//! resample/spectrum scratch) and every intermediate buffer the per-light
//! `cycle → enhance → superpose → red → change_point` chain needs from this
//! crate. After a warmup call per signal shape, the workspace-threaded
//! pipeline performs **zero heap allocations** on the steady-state
//! cycle/DFT path and returns results **bit-identical** to the allocating
//! reference functions — pinned by the per-stage equality tests in
//! `cycle`/`enhance`/`superpose`/`change_point` and the counting-allocator
//! test behind the `alloc-counter` feature.
//!
//! ## Ownership rules
//!
//! **One workspace per thread, never shared.** The engine keeps a checkout
//! pool and hands each scoped worker its own workspace for the whole run;
//! nothing on the per-light path takes a lock. Sharing one workspace behind
//! a mutex would serialize exactly the state the design keeps thread-local
//! (plans, scratch) and is never necessary: plans are cheap to build once
//! per worker and amortize across every light the worker processes.

use std::collections::HashSet;

use crate::red::Stop;
use taxilight_signal::periodogram::PeriodEstimate;
use taxilight_signal::plan::PlanCacheStats;
use taxilight_signal::SignalWorkspace;

/// Wall-clock time spent in each pipeline stage, accumulated across the
/// lights a workspace processed. Timing never influences results.
///
/// Internally integer nanoseconds, not seconds-as-f64: integer addition
/// is exactly associative and commutative, so merging per-worker
/// accumulations yields the **same total no matter how many shards the
/// run used or in which order the engine merged them** — the property
/// the sharded-equals-serial stage-total test pins. Float accumulation
/// would make the merged totals drift with shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Stage 1: cycle-length identification (resample + DFT + fold
    /// validation), including the enhancement fallback. Nanoseconds.
    cycle_ns: u64,
    /// Stage 2: stop extraction and red-duration classification.
    red_ns: u64,
    /// Stage 3: superposition, change-point search and onset fusion.
    change_ns: u64,
    /// Time spent inside `taxilight-signal` kernels (spectrum +
    /// resample grid evaluation), a *subset* of `cycle_ns` — drained from
    /// the signal workspace after each stage-1 lap so traces can separate
    /// vectorized-kernel time from surrounding orchestration.
    kernel_ns: u64,
}

impl StageTimings {
    /// Builds timings from explicit per-stage nanosecond totals (tests
    /// and report plumbing; the pipeline uses the `add_*` accumulators).
    pub fn from_nanos(cycle_ns: u64, red_ns: u64, change_ns: u64) -> Self {
        StageTimings { cycle_ns, red_ns, change_ns, kernel_ns: 0 }
    }

    /// Accumulates one stage-1 (cycle) lap.
    #[inline]
    pub fn add_cycle(&mut self, elapsed: std::time::Duration) {
        self.cycle_ns += elapsed.as_nanos() as u64;
    }

    /// Accumulates one stage-2 (red) lap.
    #[inline]
    pub fn add_red(&mut self, elapsed: std::time::Duration) {
        self.red_ns += elapsed.as_nanos() as u64;
    }

    /// Accumulates one stage-3 (change-point) lap.
    #[inline]
    pub fn add_change(&mut self, elapsed: std::time::Duration) {
        self.change_ns += elapsed.as_nanos() as u64;
    }

    /// Accumulates nanoseconds spent inside dispatched signal kernels
    /// (drained from `SignalWorkspace::take_kernel_nanos`).
    #[inline]
    pub fn add_kernel_ns(&mut self, ns: u64) {
        self.kernel_ns += ns;
    }

    /// Stage-1 (cycle) total, seconds.
    pub fn cycle_s(&self) -> f64 {
        self.cycle_ns as f64 * 1e-9
    }

    /// Stage-2 (red) total, seconds.
    pub fn red_s(&self) -> f64 {
        self.red_ns as f64 * 1e-9
    }

    /// Stage-3 (change-point) total, seconds.
    pub fn change_s(&self) -> f64 {
        self.change_ns as f64 * 1e-9
    }

    /// Kernel-time total (subset of the cycle stage), seconds.
    pub fn kernel_s(&self) -> f64 {
        self.kernel_ns as f64 * 1e-9
    }

    /// Raw kernel-time nanoseconds (subset of the cycle stage).
    pub fn kernel_nanos(&self) -> u64 {
        self.kernel_ns
    }

    /// Raw `(cycle, red, change)` nanosecond totals.
    pub fn as_nanos(&self) -> (u64, u64, u64) {
        (self.cycle_ns, self.red_ns, self.change_ns)
    }

    /// Adds another accumulation (e.g. a sibling worker's) into this
    /// one. Exactly associative and order-independent (integer adds).
    pub fn merge(&mut self, other: &StageTimings) {
        self.cycle_ns += other.cycle_ns;
        self.red_ns += other.red_ns;
        self.change_ns += other.change_ns;
        self.kernel_ns += other.kernel_ns;
    }

    /// Total across all stages, seconds.
    pub fn total_s(&self) -> f64 {
        (self.cycle_ns + self.red_ns + self.change_ns) as f64 * 1e-9
    }
}

/// Per-worker scratch + plan cache for allocation-free identification.
///
/// See the [module docs](self) for the ownership rules. Buffers grow on
/// first use and are kept afterwards; a workspace reused across lights and
/// rounds stops allocating once it has seen each signal shape once.
#[derive(Debug, Default)]
pub struct IdentifyWorkspace {
    /// FFT plans + resample/spectrum/periodogram scratch.
    pub(crate) signal: SignalWorkspace,
    /// Per-stage wall-clock accumulated since the last reset.
    pub(crate) timings: StageTimings,
    // --- cycle stage ---
    /// Finite-filtered `(t, v)` samples.
    pub(crate) finite: Vec<(f64, f64)>,
    /// 1 Hz resampled speed grid.
    pub(crate) grid: Vec<f64>,
    /// In-band DFT candidates plus their subdivisions.
    pub(crate) candidates: Vec<PeriodEstimate>,
    /// `(period, fold score, bin, snr)` per refined candidate.
    pub(crate) scored: Vec<(f64, f64, usize, f64)>,
    // --- enhancement stage ---
    /// Slot-merged primary samples.
    pub(crate) prim: Vec<(f64, f64)>,
    /// Slot-merged perpendicular samples.
    pub(crate) perp: Vec<(f64, f64)>,
    /// Eq. (3) output: primary plus mirrored perpendicular.
    pub(crate) enhanced: Vec<(f64, f64)>,
    /// Seconds already covered by the primary road.
    pub(crate) have: HashSet<i64>,
    /// Same-axis observation pool of the whole intersection.
    pub(crate) pool_primary: Vec<(f64, f64)>,
    /// Perpendicular-axis pool (to be mirrored).
    pub(crate) pool_perpendicular: Vec<(f64, f64)>,
    // --- superpose / change-point stage ---
    /// `(folded t, v, index)` sort scratch reproducing the stable fold
    /// order without allocation.
    pub(crate) folded: Vec<(f64, f64, usize)>,
    /// Per-second value sums of the folded cycle.
    pub(crate) sums: Vec<f64>,
    /// Per-second sample counts of the folded cycle.
    pub(crate) bin_counts: Vec<u32>,
    /// Per-second means, `None` where no sample landed.
    pub(crate) binned: Vec<Option<f64>>,
    /// Indices of the filled bins (gap-fill scratch).
    pub(crate) filled: Vec<usize>,
    /// The gap-filled 1 Hz cyclic speed profile.
    pub(crate) profile: Vec<f64>,
    /// Red-window moving average of the profile.
    pub(crate) averaged: Vec<f64>,
    /// 3 s moving average used by the edge refinement.
    pub(crate) smoothed: Vec<f64>,
    /// Folded histogram of per-stop green-onset estimates.
    pub(crate) onset_counts: Vec<f64>,
    /// Kernel-smoothed onset histogram.
    pub(crate) onset_smoothed: Vec<f64>,
    // --- pipeline glue ---
    /// In-zone stops feeding the red-duration classifier.
    pub(crate) stops: Vec<Stop>,
    /// Per-stop green-onset estimates, window-relative seconds.
    pub(crate) onsets: Vec<f64>,
    /// `(t, speed)` samples near the stop line.
    pub(crate) speed: Vec<(f64, f64)>,
}

impl IdentifyWorkspace {
    /// An empty workspace; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        IdentifyWorkspace::default()
    }

    /// Per-stage wall-clock accumulated since the last
    /// [`reset_run_stats`](Self::reset_run_stats).
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// Hit/miss counters of the owned FFT plan cache since the last
    /// [`reset_run_stats`](Self::reset_run_stats).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.signal.plan_stats()
    }

    /// Zeroes the timing and plan-cache counters. Cached plans and grown
    /// buffers are kept — that is the whole point of reuse.
    pub fn reset_run_stats(&mut self) {
        self.timings = StageTimings::default();
        self.signal.reset_plan_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_merge_and_total() {
        let mut a = StageTimings::from_nanos(1_000_000_000, 500_000_000, 250_000_000);
        let b = StageTimings::from_nanos(2_000_000_000, 1_000_000_000, 750_000_000);
        a.merge(&b);
        assert_eq!(a, StageTimings::from_nanos(3_000_000_000, 1_500_000_000, 1_000_000_000));
        assert_eq!(a.total_s(), 5.5);
        assert_eq!((a.cycle_s(), a.red_s(), a.change_s()), (3.0, 1.5, 1.0));
    }

    #[test]
    fn stage_timings_merge_is_permutation_invariant() {
        // Integer nanosecond accumulation makes the merged total exactly
        // independent of worker count and merge order — the property the
        // engine relies on for sharded == serial stage totals.
        let parts: Vec<StageTimings> = (0..7u64)
            .map(|k| StageTimings::from_nanos(k * 13 + 1, k * 7 + 2, k * 29 + 3))
            .collect();
        let mut forward = StageTimings::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = StageTimings::default();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        // Pairwise tree merge (as a 4-shard run would produce).
        let mut pairs: Vec<StageTimings> = parts
            .chunks(2)
            .map(|c| {
                let mut acc = c[0];
                if let Some(second) = c.get(1) {
                    acc.merge(second);
                }
                acc
            })
            .collect();
        while pairs.len() > 1 {
            let top = pairs.pop().unwrap();
            pairs[0].merge(&top);
        }
        assert_eq!(forward, reverse);
        assert_eq!(forward, pairs[0]);
    }

    #[test]
    fn reset_clears_counters_keeps_plans() {
        let mut ws = IdentifyWorkspace::new();
        ws.timings.add_cycle(std::time::Duration::from_secs(1));
        let sig: Vec<f64> = (0..256).map(|k| (k % 7) as f64).collect();
        ws.signal.dominant_period(
            &sig,
            1.0,
            taxilight_signal::periodogram::PeriodBand::TRAFFIC_LIGHTS,
            false,
            taxilight_signal::periodogram::SpectrumPath::Exact,
        );
        assert_eq!(ws.plan_stats().misses(), 1);
        ws.reset_run_stats();
        assert_eq!(ws.timings(), StageTimings::default());
        assert_eq!(ws.plan_stats(), PlanCacheStats::default());
    }
}
