//! The kernel microbenchmark axis: the one `taxilight-signal` kernel with
//! two bodies — the radix-2 [`kernels::butterfly_stage`], SSE2 on `x86_64`
//! — timed against its portable reference [`kernels::scalar::butterfly_stage`]
//! at the shape the pipeline runs it: every stage of an 8 192-point
//! transform, the internal length of the exact-length (Bluestein) spectrum
//! of the 3 600-s speed grid. Reported as `BENCH_kernels.json`.
//!
//! Like the other axes, the report splits a seed-**deterministic
//! workload** section (shape, the bit-identity verdict and the output
//! checksum — byte-identical across runs, because the two bodies are
//! bit-identical) from honest **timing** measurements: one lap of each
//! body per pair, alternating which runs first so drift and cache warmth
//! fall on both sides, with per-body bins, the speedup and the number of
//! pairs the selected body won.
//!
//! ```text
//! cargo run --release -p taxilight-bench --bin figures -- kernels
//! ```

use taxilight_eval::JsonWriter;
use taxilight_signal::complex::Complex64;
use taxilight_signal::kernels;

use crate::summary::{self, SampleSummary};
use crate::throughput::fnv1a;

/// Workload shape for one kernel-bench run. The workload section of the
/// report is deterministic in these knobs.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Input seed (splitmix64-expanded into the buffer).
    pub seed: u64,
    /// Transform length (a power of two; the pipeline's is 8 192).
    pub len: usize,
    /// Full transforms (every stage, from a fresh copy of the input) per
    /// timed lap.
    pub iters: usize,
    /// Timed pairs: one lap of each body per pair.
    pub pairs: usize,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        Self { seed: 77, len: 8_192, iters: 100, pairs: 21 }
    }
}

impl KernelBenchConfig {
    /// A reduced run for CI and unit tests: the pipeline's shape, fewer
    /// transforms per lap, the minimum of 10 pairs.
    pub fn quick() -> Self {
        Self { seed: 77, len: 8_192, iters: 2, pairs: 10 }
    }
}

/// The kernel-bench report.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// The configuration that produced it.
    pub cfg: KernelBenchConfig,
    /// Radix-2 stages per transform (`log2(len)`).
    pub stages: usize,
    /// What the selected body is on this machine (`"sse2"` or
    /// `"portable"`).
    pub simd_path: &'static str,
    /// Whether the selected body produced exactly the scalar reference's
    /// bits over a full transform. Expected `true`; surfaced here so the
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

/// splitmix64 — every input value is a pure function of `(seed, index)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value in `[-50, 50)`.
fn val(seed: u64, i: u64) -> f64 {
    (mix(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        - 50.0
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

/// Runs the kernel bench: one bit-identity check, then `pairs` pairs of
/// timed laps, the scalar reference first in even pairs and second in odd
/// ones.
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
    let bodies: [StageFn; 2] = [kernels::scalar::butterfly_stage, kernels::butterfly_stage];

    let outputs = bodies.map(|stage| {
        let mut buf = input.clone();
        transform(stage, &mut buf, &twiddles);
        buf.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect::<Vec<u64>>()
    });

    let mut scratch = input.clone();
    let mut lap = |stage: StageFn| {
        summary::time(|| {
            for _ in 0..cfg.iters {
                scratch.copy_from_slice(&input);
                transform(stage, &mut scratch, &twiddles);
                std::hint::black_box(&mut scratch);
            }
        })
        .1
    };
    let mut laps = [Vec::with_capacity(cfg.pairs), Vec::with_capacity(cfg.pairs)];
    let mut simd_faster_pairs = 0;
    for pair in 0..cfg.pairs {
        let mut pair_s = [0.0; 2];
        for step in 0..2 {
            let side = (pair + step) % 2;
            pair_s[side] = lap(bodies[side]);
        }
        if pair_s[1] < pair_s[0] {
            simd_faster_pairs += 1;
        }
        laps[0].push(pair_s[0]);
        laps[1].push(pair_s[1]);
    }

    KernelBenchReport {
        cfg: cfg.clone(),
        stages: twiddles.len(),
        simd_path: kernels::active_path_name(),
        bit_identical: outputs[0] == outputs[1],
        checksum: fnv1a(outputs[0].iter().flat_map(|b| b.to_le_bytes())),
        scalar: SampleSummary::from_samples(&laps[0]),
        simd: SampleSummary::from_samples(&laps[1]),
        simd_faster_pairs,
    }
}

impl KernelBenchReport {
    /// Median scalar time over median selected-body time; 0 when
    /// unmeasurable.
    pub fn speedup(&self) -> f64 {
        if self.simd.median > 0.0 {
            self.scalar.median / self.simd.median
        } else {
            0.0
        }
    }

    /// The schema tag plus the seed-deterministic workload section (shared
    /// by [`Self::to_json`] and [`Self::deterministic_json`]).
    fn write_workload(&self, w: &mut JsonWriter) {
        w.key("schema");
        w.string("taxilight-kernels/2");
        w.raw(",");
        w.key("workload");
        w.raw("{");
        w.key("seed");
        w.raw(&self.cfg.seed.to_string());
        w.raw(",");
        w.key("kernel");
        w.string("butterfly_stage");
        w.raw(",");
        w.key("len");
        w.raw(&self.cfg.len.to_string());
        w.raw(",");
        w.key("stages");
        w.raw(&self.stages.to_string());
        w.raw(",");
        w.key("iters");
        w.raw(&self.cfg.iters.to_string());
        w.raw(",");
        w.key("pairs");
        w.raw(&self.cfg.pairs.to_string());
        w.raw(",");
        w.key("bit_identical");
        w.raw(if self.bit_identical { "true" } else { "false" });
        w.raw(",");
        w.key("checksum");
        w.string(&format!("{:#018x}", self.checksum));
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
        w.raw("},");
        w.key("scalar");
        self.scalar.write_json(&mut w, "s");
        w.raw(",");
        w.key("simd");
        self.simd.write_json(&mut w, "s");
        w.raw(",");
        w.key("speedup");
        w.f64(self.speedup());
        w.raw(",");
        w.key("simd_faster_pairs");
        w.raw(&self.simd_faster_pairs.to_string());
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
    /// transform.
    pub fn summary_lines(&self) -> Vec<String> {
        let per_transform_us = |s: &SampleSummary| s.median / self.cfg.iters.max(1) as f64 * 1e6;
        vec![
            format!(
                "kernels: butterfly_stage, {} stages of {} points, seed {}, {} transforms per lap, \
                 {} alternating pairs, simd path {} ({} logical CPUs, {})",
                self.stages,
                self.cfg.len,
                self.cfg.seed,
                self.cfg.iters,
                self.cfg.pairs,
                self.simd_path,
                summary::nproc(),
                std::env::consts::ARCH,
            ),
            format!(
                "scalar {:>8.1} µs  simd {:>8.1} µs  → {:>5.2}×  simd faster in {}/{} pairs  {}",
                per_transform_us(&self.scalar),
                per_transform_us(&self.simd),
                self.speedup(),
                self.simd_faster_pairs,
                self.cfg.pairs,
                if self.bit_identical { "bit-identical" } else { "DIVERGED" },
            ),
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
        assert!(a.bit_identical, "the selected butterfly diverged from the scalar reference");
        assert_eq!(a.scalar.samples, cfg.pairs);
        assert_eq!(a.simd.samples, cfg.pairs);
        assert!(a.simd_faster_pairs <= cfg.pairs);
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
            "\"schema\":\"taxilight-kernels/2\"",
            "\"workload\"",
            "\"kernel\":\"butterfly_stage\"",
            "\"len\":8192",
            "\"stages\":13",
            "\"pairs\":10",
            "\"bit_identical\":true",
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
    }
}
