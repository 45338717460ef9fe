//! The kernel microbenchmark axis: the two `taxilight-signal` kernels with
//! two bodies, each timed against its portable reference at the shape the
//! pipeline runs it, reported as `BENCH_kernels.json`.
//!
//! * [`kernels::butterfly_stage`] (SSE2 on `x86_64`) against
//!   [`kernels::scalar::butterfly_stage`] over every stage of an
//!   8 192-point transform, the internal length of the exact-length
//!   (Bluestein) spectrum of the 3 600-s speed grid.
//! * [`kernels::fold_bins`] (SSE2 on `x86_64`) against
//!   [`kernels::scalar::fold_bins`] over one light's fold-validation
//!   refinement grid: ~260 whole-second samples of an hour's window
//!   folded at every quarter-second step around 24 candidate periods.
//!
//! Like the other axes, the report splits a seed-**deterministic
//! workload** section (each kernel's shape, its bit-identity verdict and
//! the output checksum — byte-identical across runs, because the two
//! bodies are bit-identical) from honest **timing** measurements: one lap
//! of each body per pair, alternating which runs first so drift and cache
//! warmth fall on both sides, with per-body bins, the speedup and the
//! number of pairs the selected body won.
//!
//! ```text
//! cargo run --release -p taxilight-bench --bin figures -- kernels
//! ```

use taxilight_eval::JsonWriter;
use taxilight_signal::complex::Complex64;
use taxilight_signal::kernels::{self, FoldBins, FoldColumns};

use crate::summary::{self, SampleSummary};
use crate::throughput::fnv1a;

/// The report's schema tag.
const SCHEMA: &str = "taxilight-kernels/3";

/// Workload shape for one kernel-bench run. The workload section of the
/// report is deterministic in these knobs.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Input seed (splitmix64-expanded into the buffer and the samples).
    pub seed: u64,
    /// Transform length (a power of two; the pipeline's is 8 192).
    pub len: usize,
    /// Full transforms (every stage, from a fresh copy of the input) per
    /// timed butterfly lap.
    pub iters: usize,
    /// Passes over the whole refinement grid per timed fold lap.
    pub fold_iters: usize,
    /// Timed pairs per kernel: one lap of each body per pair.
    pub pairs: usize,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        Self { seed: 77, len: 8_192, iters: 100, fold_iters: 20, pairs: 21 }
    }
}

impl KernelBenchConfig {
    /// A reduced run for CI and unit tests: the pipeline's shapes, fewer
    /// repetitions per lap, the minimum of 10 pairs.
    pub fn quick() -> Self {
        Self { seed: 77, len: 8_192, iters: 2, fold_iters: 2, pairs: 10 }
    }
}

/// One kernel's verdict and timing bins.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Whether the selected body produced exactly the scalar reference's
    /// bits on the whole workload. Expected `true`; surfaced here so the
    /// artifact proves it on the machine that produced the timings.
    pub bit_identical: bool,
    /// FNV-1a digest of the scalar output's exact bits.
    pub checksum: u64,
    /// Per-lap elapsed seconds, scalar reference.
    pub scalar: SampleSummary,
    /// Per-lap elapsed seconds, selected body.
    pub simd: SampleSummary,
    /// Pairs in which the selected body's lap was faster.
    pub simd_faster_pairs: usize,
}

impl KernelTiming {
    /// Median scalar time over median selected-body time; 0 when
    /// unmeasurable.
    pub fn speedup(&self) -> f64 {
        if self.simd.median > 0.0 {
            self.scalar.median / self.simd.median
        } else {
            0.0
        }
    }
}

/// The kernel-bench report.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// The configuration that produced it.
    pub cfg: KernelBenchConfig,
    /// What the selected bodies are on this machine (`"sse2"` or
    /// `"portable"`).
    pub simd_path: &'static str,
    /// Radix-2 stages per transform (`log2(len)`).
    pub stages: usize,
    /// Samples in the fold workload.
    pub fold_samples: usize,
    /// Periods in the fold workload's refinement grid.
    pub fold_periods: usize,
    /// The butterfly's verdict and bins.
    pub butterfly: KernelTiming,
    /// The fold's verdict and bins.
    pub fold: KernelTiming,
}

/// splitmix64 — every input value is a pure function of `(seed, index)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value in `[0, 1)`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic value in `[-50, 50)`.
fn val(seed: u64, i: u64) -> f64 {
    unit(seed, i) * 100.0 - 50.0
}

/// One stage's twiddle table per radix-2 stage, built with the same
/// recurrence as `taxilight_signal::plan::Pow2Plan`.
fn stage_twiddles(n: usize) -> Vec<Vec<Complex64>> {
    let mut stages = Vec::new();
    let mut half = 1;
    while half < n {
        let w_base = Complex64::cis(-std::f64::consts::PI / half as f64);
        let mut w = Complex64::ONE;
        stages.push(
            (0..half)
                .map(|_| {
                    let cur = w;
                    w *= w_base;
                    cur
                })
                .collect(),
        );
        half *= 2;
    }
    stages
}

type StageFn = fn(&mut [Complex64], usize, &[Complex64]);

/// Runs every stage of one transform over `buf` in place.
fn transform(stage: StageFn, buf: &mut [Complex64], twiddles: &[Vec<Complex64>]) {
    for tw in twiddles {
        stage(buf, tw.len(), tw);
    }
}

/// One light's fold-validation input: whole-second report times over an
/// hour's window (gaps of 4–24 s, ~260 samples) with a 98-s red/green
/// speed pattern, and the refinement grid of 24 candidate periods
/// `3 600/b`, each stepped by 0.25 s over `±clamp(p²/3 600, 1.5, 8)` —
/// the grid the cycle stage folds at.
fn fold_workload(seed: u64) -> (Vec<(f64, f64)>, Vec<f64>) {
    let mut samples = Vec::new();
    let mut t = 0.0;
    let mut i = 0u64;
    while t < 3_600.0 {
        let red = t % 98.0 < 39.0;
        let v = if red { 4.0 * unit(seed, i) } else { 28.0 + 17.0 * unit(seed, i) };
        samples.push((t, v));
        t += (4.0 + 20.0 * unit(seed.wrapping_add(1), i)).floor();
        i += 1;
    }
    let mut periods = Vec::new();
    for b in (12..=104).step_by(4) {
        let p0 = 3_600.0 / b as f64;
        let half_width = (p0 * p0 / 3_600.0).clamp(1.5, 8.0);
        let steps = (2.0 * half_width / 0.25) as i64;
        periods.push(p0);
        periods.extend((0..=steps).map(|k| p0 - half_width + 0.25 * k as f64));
    }
    (samples, periods)
}

type FoldFn = fn(&FoldColumns, f64) -> FoldBins;

/// A kernel's workload shape, as `(key, value)` pairs of the report.
type Shape = [(&'static str, usize); 3];

/// Exact bits of one fold: each bin's `[Σv, Σv²]`, then the counts.
fn fold_bits(b: &FoldBins) -> impl Iterator<Item = u64> + '_ {
    let sums = b.sums.iter().flat_map(|s| [s[0].to_bits(), s[1].to_bits()]);
    sums.chain(b.counts.iter().map(|&c| c as u64))
}

/// Times `pairs` pairs of laps of the two bodies (scalar reference first
/// in even pairs, second in odd ones).
fn time_pairs(pairs: usize, mut lap: impl FnMut(usize) -> f64) -> (Vec<f64>, Vec<f64>, usize) {
    let mut laps = [Vec::with_capacity(pairs), Vec::with_capacity(pairs)];
    let mut simd_faster_pairs = 0;
    for pair in 0..pairs {
        let mut pair_s = [0.0; 2];
        for step in 0..2 {
            let side = (pair + step) % 2;
            pair_s[side] = lap(side);
        }
        if pair_s[1] < pair_s[0] {
            simd_faster_pairs += 1;
        }
        laps[0].push(pair_s[0]);
        laps[1].push(pair_s[1]);
    }
    let [scalar, simd] = laps;
    (scalar, simd, simd_faster_pairs)
}

/// The verdict and bins of one kernel, from both bodies' outputs as bits.
fn timing(
    outputs: [Vec<u64>; 2],
    (scalar, simd, faster): (Vec<f64>, Vec<f64>, usize),
) -> KernelTiming {
    KernelTiming {
        bit_identical: outputs[0] == outputs[1],
        checksum: fnv1a(outputs[0].iter().flat_map(|b| b.to_le_bytes())),
        scalar: SampleSummary::from_samples(&scalar),
        simd: SampleSummary::from_samples(&simd),
        simd_faster_pairs: faster,
    }
}

/// Runs the kernel bench: for each kernel one bit-identity check, then
/// `pairs` pairs of timed laps.
///
/// # Panics
/// Panics when `cfg.len` is not a power of two ≥ 2 or `cfg.pairs` is 0.
pub fn run_kernel_bench(cfg: &KernelBenchConfig) -> KernelBenchReport {
    assert!(cfg.len >= 2 && cfg.len.is_power_of_two(), "kernel bench needs a power-of-two length");
    assert!(cfg.pairs >= 1, "kernel bench needs at least one pair");

    let input: Vec<Complex64> = (0..cfg.len as u64)
        .map(|i| Complex64::new(val(cfg.seed, 2 * i), val(cfg.seed, 2 * i + 1)))
        .collect();
    let twiddles = stage_twiddles(cfg.len);
    let stage_bodies: [StageFn; 2] = [kernels::scalar::butterfly_stage, kernels::butterfly_stage];
    let outputs = stage_bodies.map(|stage| {
        let mut buf = input.clone();
        transform(stage, &mut buf, &twiddles);
        buf.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect::<Vec<u64>>()
    });
    let mut scratch = input.clone();
    let butterfly = timing(
        outputs,
        time_pairs(cfg.pairs, |side| {
            summary::time(|| {
                for _ in 0..cfg.iters {
                    scratch.copy_from_slice(&input);
                    transform(stage_bodies[side], &mut scratch, &twiddles);
                    std::hint::black_box(&mut scratch);
                }
            })
            .1
        }),
    );

    let (samples, periods) = fold_workload(cfg.seed);
    let mut columns = FoldColumns::new();
    columns.fill(&samples);
    let fold_bodies: [FoldFn; 2] = [kernels::scalar::fold_bins, kernels::fold_bins];
    let outputs = fold_bodies.map(|fold| {
        periods.iter().flat_map(|&p| fold_bits(&fold(&columns, p)).collect::<Vec<u64>>()).collect()
    });
    let fold = timing(
        outputs,
        time_pairs(cfg.pairs, |side| {
            summary::time(|| {
                for _ in 0..cfg.fold_iters {
                    for &p in &periods {
                        std::hint::black_box(fold_bodies[side](&columns, std::hint::black_box(p)));
                    }
                }
            })
            .1
        }),
    );

    KernelBenchReport {
        cfg: cfg.clone(),
        simd_path: kernels::active_path_name(),
        stages: twiddles.len(),
        fold_samples: samples.len(),
        fold_periods: periods.len(),
        butterfly,
        fold,
    }
}

impl KernelBenchReport {
    /// Whether both kernels' selected bodies matched their references.
    pub fn bit_identical(&self) -> bool {
        self.butterfly.bit_identical && self.fold.bit_identical
    }

    /// The two kernels as the report names them, each with its workload
    /// shape and its verdict and bins.
    fn kernels(&self) -> [(&'static str, Shape, &KernelTiming); 2] {
        let butterfly = [("len", self.cfg.len), ("stages", self.stages), ("iters", self.cfg.iters)];
        let fold = [
            ("samples", self.fold_samples),
            ("periods", self.fold_periods),
            ("iters", self.cfg.fold_iters),
        ];
        [("butterfly_stage", butterfly, &self.butterfly), ("fold_bins", fold, &self.fold)]
    }

    /// The schema tag plus the seed-deterministic workload section (shared
    /// by [`Self::to_json`] and [`Self::deterministic_json`]).
    fn write_workload(&self, w: &mut JsonWriter) {
        w.key("schema");
        w.string(SCHEMA);
        w.raw(",");
        w.key("workload");
        w.raw("{");
        w.key("seed");
        w.raw(&self.cfg.seed.to_string());
        w.raw(",");
        w.key("pairs");
        w.raw(&self.cfg.pairs.to_string());
        for (name, shape, k) in self.kernels() {
            w.raw(",");
            w.key(name);
            w.raw("{");
            for (key, value) in shape {
                w.key(key);
                w.raw(&value.to_string());
                w.raw(",");
            }
            w.key("bit_identical");
            w.raw(if k.bit_identical { "true" } else { "false" });
            w.raw(",");
            w.key("checksum");
            w.string(&format!("{:#018x}", k.checksum));
            w.raw("}");
        }
        w.raw("}");
    }

    /// The full report: workload plus per-body timing bins.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        self.write_workload(&mut w);
        w.raw(",");
        w.key("timing");
        w.raw("{");
        w.key("env");
        w.raw("{");
        w.key("nproc");
        w.raw(&summary::nproc().to_string());
        w.raw(",");
        w.key("arch");
        w.string(std::env::consts::ARCH);
        w.raw(",");
        w.key("simd_path");
        w.string(self.simd_path);
        w.raw("}");
        for (name, _, k) in self.kernels() {
            w.raw(",");
            w.key(name);
            w.raw("{");
            w.key("scalar");
            k.scalar.write_json(&mut w, "s");
            w.raw(",");
            w.key("simd");
            k.simd.write_json(&mut w, "s");
            w.raw(",");
            w.key("speedup");
            w.f64(k.speedup());
            w.raw(",");
            w.key("simd_faster_pairs");
            w.raw(&k.simd_faster_pairs.to_string());
            w.raw("}");
        }
        w.raw("}");
        w.raw("}");
        w.finish()
    }

    /// Only the deterministic section — byte-identical across runs of
    /// the same configuration and a literal byte prefix of
    /// [`Self::to_json`].
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        self.write_workload(&mut w);
        w.raw("}");
        w.finish()
    }

    /// Human-readable summary lines for the console; times are per
    /// transform and per fold.
    pub fn summary_lines(&self) -> Vec<String> {
        let line = |k: &KernelTiming, unit: &str, per: f64| {
            format!(
                "  scalar {:>8.2} {unit}  simd {:>8.2} {unit}  → {:>5.2}×  simd faster in {}/{} pairs  {}",
                k.scalar.median / per,
                k.simd.median / per,
                k.speedup(),
                k.simd_faster_pairs,
                self.cfg.pairs,
                if k.bit_identical { "bit-identical" } else { "DIVERGED" },
            )
        };
        let folds = (self.fold_periods * self.cfg.fold_iters.max(1)) as f64;
        vec![
            format!(
                "kernels: seed {}, {} alternating pairs per kernel, simd path {} ({} logical CPUs, {})",
                self.cfg.seed,
                self.cfg.pairs,
                self.simd_path,
                summary::nproc(),
                std::env::consts::ARCH,
            ),
            format!(
                "butterfly_stage: {} stages of {} points, {} transforms per lap",
                self.stages, self.cfg.len, self.cfg.iters
            ),
            line(&self.butterfly, "µs", self.cfg.iters.max(1) as f64 * 1e-6),
            format!(
                "fold_bins: {} samples at {} periods, {} grid passes per lap",
                self.fold_samples, self.fold_periods, self.cfg.fold_iters
            ),
            line(&self.fold, "µs", folds * 1e-6),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_is_bit_identical_and_deterministic() {
        let cfg = KernelBenchConfig::quick();
        let a = run_kernel_bench(&cfg);
        assert_eq!(a.stages, 13, "an 8 192-point transform has 13 radix-2 stages");
        assert!(a.butterfly.bit_identical, "the selected butterfly diverged from its reference");
        assert!(a.fold.bit_identical, "the selected fold diverged from its reference");
        assert!(a.bit_identical());
        assert!((200..320).contains(&a.fold_samples), "{} fold samples", a.fold_samples);
        assert!(a.fold_periods > 300, "{} fold periods", a.fold_periods);
        for k in [&a.butterfly, &a.fold] {
            assert_eq!(k.scalar.samples, cfg.pairs);
            assert_eq!(k.simd.samples, cfg.pairs);
            assert!(k.simd_faster_pairs <= cfg.pairs);
        }
        let b = run_kernel_bench(&cfg);
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "same seed, different workload bytes — determinism regression"
        );
    }

    #[test]
    fn report_contract_holds() {
        let r = run_kernel_bench(&KernelBenchConfig::quick());
        let det = r.deterministic_json();
        let full = r.to_json();
        assert!(det.ends_with('}') && full.starts_with(&det[..det.len() - 1]));
        for key in [
            "\"schema\":\"taxilight-kernels/3\"",
            "\"workload\"",
            "\"pairs\":10",
            "\"butterfly_stage\":{\"len\":8192,\"stages\":13,\"iters\":2,\"bit_identical\":true",
            "\"fold_bins\":{\"samples\":",
            "\"periods\":",
            "\"checksum\":\"0x",
            "\"timing\"",
            "\"env\"",
            "\"nproc\"",
            "\"arch\"",
            "\"simd_path\"",
            "\"scalar\"",
            "\"simd\"",
            "\"median_s\"",
            "\"speedup\"",
            "\"simd_faster_pairs\"",
        ] {
            assert!(full.contains(key), "kernel JSON missing {key}");
        }
        assert_eq!(full.matches("\"bit_identical\":true").count(), 2);
    }
}
