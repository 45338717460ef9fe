//! The throughput benchmark axis: replays a seeded city-scale trace
//! through the serial and sharded identification engines and reports
//! records/s, lights/s, p50/p95 per-light identify latency and the
//! thread-scaling curve as `BENCH_throughput.json`.
//!
//! The report has two layers with different contracts:
//!
//! * **workload** — everything derived from the seed alone (record and
//!   light counts, the FNV digest of the shard schedule, the
//!   serial-vs-sharded equivalence verdict). Byte-identical across runs
//!   of the same seed on any machine; pinned by tests.
//! * **timing** — wall-clock measurements. Honest and machine-dependent;
//!   the scaling curve only shows speedup on hardware that actually has
//!   the cores (single-core CI runners report ≈1×).
//!
//! ```text
//! cargo run --release -p taxilight-bench --bin throughput -- --json BENCH_throughput.json
//! ```

use taxilight_obs::metrics::{self, MetricClass};
use taxilight_obs::span;

use crate::summary::{self, SampleSummary};

use taxilight_core::engine::{shard_of, ExecMode, Identifier, IdentifyRequest};
use taxilight_core::pipeline::{IdentifyError, LightSchedule};
use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::IdentifyConfig;
use taxilight_eval::JsonWriter;
use taxilight_roadnet::graph::LightId;
use taxilight_sim::{custom_city, paper_city, CityScenario, CityTopology, ScenarioSpec};
use taxilight_trace::time::Timestamp;

/// Workload shape for one throughput run. Everything downstream is
/// deterministic in `seed`.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Scenario seed (street grid, schedules, demand, GPS noise).
    pub seed: u64,
    /// Fleet size (before the scale factor).
    pub taxis: usize,
    /// Analysis-window length, seconds.
    pub window_s: u32,
    /// Shard count for every sharded lap (fixed so the shard schedule —
    /// and its digest — is independent of the thread ladder).
    pub shards: usize,
    /// Workload scale factor. `1` is the paper's evaluation city;
    /// `k > 1` grows the grid to ≈`k`× the intersections and the fleet to
    /// `k`× the taxis, so the thread ladder has enough work per shard for
    /// parallel laps to be meaningful on multi-core hardware.
    pub scale: usize,
    /// Serial laps in the measurement bin (median/IQR/min/max are
    /// reported; each lap is also checked bit-identical to the first).
    pub samples: usize,
    /// Thread counts for the scaling curve.
    pub thread_ladder: Vec<usize>,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            seed: 77,
            taxis: 150,
            window_s: 3600,
            shards: 32,
            scale: 1,
            samples: 3,
            thread_ladder: vec![1, 2, 4, 8],
        }
    }
}

impl ThroughputConfig {
    /// A reduced workload for smoke tests and `--quick` runs.
    pub fn quick() -> Self {
        Self {
            seed: 77,
            taxis: 60,
            window_s: 1200,
            shards: 8,
            scale: 1,
            samples: 2,
            thread_ladder: vec![1, 2],
        }
    }

    /// The scenario this config replays: the paper city at scale 1, a
    /// proportionally larger grid and fleet at higher scales.
    pub fn scenario(&self) -> CityScenario {
        if self.scale <= 1 {
            return paper_city(self.seed, self.taxis);
        }
        // Grid area grows linearly with scale (side × √scale), fleet
        // linearly with scale, keeping taxis-per-intersection roughly
        // constant.
        let dim = ((6.0 * (self.scale as f64).sqrt()).round() as usize).max(6);
        custom_city(&ScenarioSpec {
            seed: self.seed,
            taxi_count: self.taxis * self.scale,
            topology: CityTopology::Grid { dim, spacing_m: 700.0 },
            ..ScenarioSpec::default()
        })
    }
}

/// One timed lap of the sharded engine.
#[derive(Debug, Clone)]
pub struct LapTiming {
    /// Worker threads requested.
    pub threads: usize,
    /// Wall-clock seconds for the full-city identify pass.
    pub elapsed_s: f64,
    /// True when the rung requested more threads than the machine has
    /// logical CPUs — its speedup cannot exceed the smaller rungs', so
    /// readers must not interpret it as a scaling plateau of the engine.
    pub saturated: bool,
}

/// The full throughput report. See the module docs for which fields are
/// deterministic and which are measured.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Scenario seed.
    pub seed: u64,
    /// Fleet size (before the scale factor).
    pub taxis: usize,
    /// Analysis-window length, seconds.
    pub window_s: u32,
    /// Shard count used by every sharded lap.
    pub shards: usize,
    /// Workload scale factor (1 = the paper city).
    pub scale: usize,
    /// Records replayed (simulated GPS fixes).
    pub records: usize,
    /// Lights with data in the analysis window.
    pub lights: usize,
    /// Lights the serial engine identified.
    pub identified: usize,
    /// FNV-1a digest of the `(light, shard)` schedule, ascending by id.
    pub shard_digest: u64,
    /// Whether every sharded lap was bit-identical to the serial pass.
    pub sharded_matches_serial: bool,
    /// Serial full-city identify pass: the median of the
    /// [`Self::serial_bin`] laps, wall-clock seconds.
    pub serial_elapsed_s: f64,
    /// The serial measurement bin: every lap's elapsed seconds summarised
    /// as median/IQR/min/max (each lap bit-checked against the first).
    pub serial_bin: SampleSummary,
    /// Logical CPUs of the machine that produced the timing section.
    pub nproc: usize,
    /// Cycle-identification stage time within the first serial lap,
    /// seconds.
    pub stage_cycle_s: f64,
    /// Red-duration stage time within the first serial lap, seconds.
    pub stage_red_s: f64,
    /// Change-point/fusion stage time within the first serial lap,
    /// seconds.
    pub stage_change_s: f64,
    /// Time inside `taxilight-signal` kernels during the first
    /// serial lap — a subset of [`Self::stage_cycle_s`] plus the resample
    /// work of stage 3, seconds.
    pub stage_kernel_s: f64,
    /// FFT plan-cache hits during the serial lap.
    pub plan_hits: u64,
    /// FFT plan-cache misses during the serial lap.
    pub plan_misses: u64,
    /// Median single-light identify latency, milliseconds.
    pub latency_ms_p50: f64,
    /// 95th-percentile single-light identify latency, milliseconds.
    pub latency_ms_p95: f64,
    /// Batched real-time ingest (map-matching + buffering), seconds.
    pub ingest_elapsed_s: f64,
    /// One lap per thread-ladder entry.
    pub scaling: Vec<LapTiming>,
}

/// FNV-1a over a byte stream — the same function the engine uses per
/// light, here extended over the whole schedule.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub use crate::summary::percentile;

/// Exact bit patterns of one result set, for tolerance-free comparison.
fn bits(
    results: &[(LightId, Result<LightSchedule, IdentifyError>)],
) -> Vec<(u32, Result<[u64; 5], String>)> {
    results
        .iter()
        .map(|(l, r)| {
            (
                l.0,
                r.as_ref()
                    .map(|s| {
                        [
                            s.cycle_s.to_bits(),
                            s.red_s.to_bits(),
                            s.green_s.to_bits(),
                            s.red_start_s.to_bits(),
                            s.snr.to_bits(),
                        ]
                    })
                    .map_err(|e| format!("{e:?}")),
            )
        })
        .collect()
}

/// Runs the full throughput workload: simulate, preprocess, one serial
/// lap, a per-light latency sweep, one sharded lap per ladder entry
/// (each checked bit-identical to serial), and a batched ingest lap.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let scenario = cfg.scenario();
    let start = Timestamp::civil(2014, 12, 5, 9, 30, 0);
    let duration = cfg.window_s as u64 + 300;
    let (mut log, _) = scenario.run_from(start, duration);
    let at = start.offset(duration as i64);

    let identify_cfg = IdentifyConfig { window_s: cfg.window_s, ..IdentifyConfig::default() };
    let pre = taxilight_core::Preprocessor::new(&scenario.net, identify_cfg.clone());
    let (parts, _) = pre.preprocess(&mut log);
    let engine =
        Identifier::new(&scenario.net, identify_cfg.clone()).expect("default config is valid");

    // Serial reference bin: `samples` laps, each bit-checked against the
    // first (a lap that diverged from its siblings would invalidate the
    // whole bin, not just the scaling comparisons).
    let (mut serial_laps, serial_bin) = summary::time_n(cfg.samples.max(1), |k| {
        let _lap = span!("bench.serial_lap", sample = k);
        engine.run(&parts, &IdentifyRequest { exec: ExecMode::Serial, ..IdentifyRequest::all(at) })
    });
    let serial = serial_laps.remove(0);
    let serial_elapsed_s = serial_bin.median;
    let serial_bits = bits(&serial.results);
    let mut sharded_matches_serial =
        serial_laps.iter().all(|lap| bits(&lap.results) == serial_bits);
    let identified = serial.ok_count();
    let stage = serial.stats.stage_timings;
    let plan = serial.stats.plan_cache;

    // Per-light latency sweep: one single-light request per light.
    let mut latencies_ms = Vec::with_capacity(serial.results.len());
    for (light, _) in &serial.results {
        let (_, elapsed_s) =
            summary::time(|| engine.run(&parts, &IdentifyRequest::one(at, *light).serial()));
        latencies_ms.push(elapsed_s * 1e3);
    }

    // Scaling ladder, every lap checked bit-identical to serial. Rungs
    // above the machine's logical CPU count are flagged saturated — they
    // measure oversubscription, not the engine's scaling.
    let nproc = summary::nproc();
    let mut scaling = Vec::with_capacity(cfg.thread_ladder.len());
    for &threads in &cfg.thread_ladder {
        let (out, elapsed_s) = summary::time(|| {
            let _lap = span!("bench.sharded_lap", threads = threads);
            engine.run(&parts, &IdentifyRequest::all(at).sharded(cfg.shards, threads))
        });
        sharded_matches_serial &= bits(&out.results) == serial_bits;
        scaling.push(LapTiming { threads, elapsed_s, saturated: threads > nproc });
    }

    // Batched real-time ingest lap over the same records in feed order.
    let mut records = log.into_records();
    records.sort_by_key(|r| r.time);
    let record_count = records.len();
    let mut rt = RealtimeIdentifier::new(&scenario.net, identify_cfg, cfg.window_s);
    let (_, ingest_elapsed_s) = summary::time(|| {
        let _lap = span!("bench.ingest_lap", records = record_count);
        rt.extend(records.iter());
    });

    // Shard-schedule digest: ascending (light, shard) pairs.
    let mut lights: Vec<LightId> = serial.results.iter().map(|(l, _)| *l).collect();
    lights.sort_by_key(|l| l.0);
    let shard_digest = fnv1a(lights.iter().flat_map(|l| {
        l.0.to_le_bytes().into_iter().chain((shard_of(*l, cfg.shards) as u32).to_le_bytes())
    }));

    // Mirror the run's outcome into the metrics registry: seed-fixed
    // counts are deterministic, wall-clock measurements volatile.
    let reg = metrics::global();
    let det = MetricClass::Deterministic;
    let vol = MetricClass::Volatile;
    reg.gauge("taxilight_bench_lights", &[], det, "Lights in the serial lap")
        .set(serial.results.len() as f64);
    reg.gauge("taxilight_bench_lights_identified", &[], det, "Successfully identified lights")
        .set(identified as f64);
    reg.gauge("taxilight_bench_records", &[], det, "Records replayed").set(record_count as f64);
    reg.gauge(
        "taxilight_bench_sharded_matches_serial",
        &[],
        det,
        "1 when every sharded lap was bit-identical to serial",
    )
    .set(if sharded_matches_serial { 1.0 } else { 0.0 });
    reg.gauge("taxilight_bench_serial_elapsed_s", &[], vol, "Serial lap wall-clock seconds")
        .set(serial_elapsed_s);
    let latency_hist = reg.histogram(
        "taxilight_bench_identify_latency_ms",
        &[],
        vol,
        &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0],
        "Per-light single-request identify latency",
    );
    for &ms in &latencies_ms {
        latency_hist.observe(ms);
    }

    ThroughputReport {
        seed: cfg.seed,
        taxis: cfg.taxis,
        window_s: cfg.window_s,
        shards: cfg.shards,
        scale: cfg.scale,
        records: record_count,
        lights: serial.results.len(),
        identified,
        shard_digest,
        sharded_matches_serial,
        serial_elapsed_s,
        serial_bin,
        nproc,
        stage_cycle_s: stage.cycle_s(),
        stage_red_s: stage.red_s(),
        stage_change_s: stage.change_s(),
        stage_kernel_s: stage.kernel_s(),
        plan_hits: plan.hits(),
        plan_misses: plan.misses(),
        latency_ms_p50: percentile(&latencies_ms, 0.50),
        latency_ms_p95: percentile(&latencies_ms, 0.95),
        ingest_elapsed_s,
        scaling,
    }
}

fn rate(count: usize, elapsed_s: f64) -> f64 {
    if elapsed_s > 0.0 {
        count as f64 / elapsed_s
    } else {
        0.0
    }
}

impl ThroughputReport {
    /// Plan-cache hit rate over the serial lap; 0 when no lookups happened.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Writes the seed-deterministic workload section into `w` (shared by
    /// [`Self::to_json`] and [`Self::deterministic_json`]).
    fn write_workload(&self, w: &mut JsonWriter) {
        w.key("workload");
        w.raw("{");
        w.key("seed");
        w.raw(&self.seed.to_string());
        w.raw(",");
        w.key("taxis");
        w.raw(&self.taxis.to_string());
        w.raw(",");
        w.key("scale");
        w.raw(&self.scale.to_string());
        w.raw(",");
        w.key("window_s");
        w.raw(&self.window_s.to_string());
        w.raw(",");
        w.key("shards");
        w.raw(&self.shards.to_string());
        w.raw(",");
        w.key("records");
        w.raw(&self.records.to_string());
        w.raw(",");
        w.key("lights");
        w.raw(&self.lights.to_string());
        w.raw(",");
        w.key("identified");
        w.raw(&self.identified.to_string());
        w.raw(",");
        w.key("shard_digest");
        w.string(&format!("{:#018x}", self.shard_digest));
        w.raw(",");
        w.key("sharded_matches_serial");
        w.raw(if self.sharded_matches_serial { "true" } else { "false" });
        w.raw("}");
    }

    /// The full report: workload section plus wall-clock timing.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("schema");
        w.string("taxilight-throughput/3");
        w.raw(",");
        self.write_workload(&mut w);
        w.raw(",");
        w.key("timing");
        w.raw("{");
        w.key("env");
        w.raw("{");
        w.key("nproc");
        w.raw(&self.nproc.to_string());
        w.raw(",");
        w.key("arch");
        w.string(std::env::consts::ARCH);
        w.raw(",");
        w.key("kernel_path");
        w.string(taxilight_signal::kernels::active_path_name());
        w.raw("},");
        w.key("serial");
        w.raw("{");
        w.key("elapsed_s");
        w.f64(self.serial_elapsed_s);
        w.raw(",");
        w.key("records_per_s");
        w.f64(rate(self.records, self.serial_elapsed_s));
        w.raw(",");
        w.key("lights_per_s");
        w.f64(rate(self.lights, self.serial_elapsed_s));
        w.raw(",");
        w.key("bin");
        self.serial_bin.write_json(&mut w, "s");
        w.raw(",");
        w.key("stages");
        w.raw("{");
        w.key("cycle_s");
        w.f64(self.stage_cycle_s);
        w.raw(",");
        w.key("red_s");
        w.f64(self.stage_red_s);
        w.raw(",");
        w.key("change_s");
        w.f64(self.stage_change_s);
        w.raw(",");
        w.key("kernel_s");
        w.f64(self.stage_kernel_s);
        w.raw("},");
        w.key("plan_cache");
        w.raw("{");
        w.key("hits");
        w.raw(&self.plan_hits.to_string());
        w.raw(",");
        w.key("misses");
        w.raw(&self.plan_misses.to_string());
        w.raw(",");
        w.key("hit_rate");
        w.f64(self.plan_hit_rate());
        w.raw("}");
        w.raw("},");
        w.key("latency_ms");
        w.raw("{");
        w.key("p50");
        w.f64(self.latency_ms_p50);
        w.raw(",");
        w.key("p95");
        w.f64(self.latency_ms_p95);
        w.raw("},");
        w.key("ingest");
        w.raw("{");
        w.key("elapsed_s");
        w.f64(self.ingest_elapsed_s);
        w.raw(",");
        w.key("records_per_s");
        w.f64(rate(self.records, self.ingest_elapsed_s));
        w.raw("},");
        w.key("scaling");
        w.raw("[");
        for (i, lap) in self.scaling.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("{");
            w.key("threads");
            w.raw(&lap.threads.to_string());
            w.raw(",");
            w.key("elapsed_s");
            w.f64(lap.elapsed_s);
            w.raw(",");
            w.key("records_per_s");
            w.f64(rate(self.records, lap.elapsed_s));
            w.raw(",");
            w.key("lights_per_s");
            w.f64(rate(self.lights, lap.elapsed_s));
            w.raw(",");
            w.key("speedup");
            w.f64(if lap.elapsed_s > 0.0 { self.serial_elapsed_s / lap.elapsed_s } else { 0.0 });
            w.raw(",");
            w.key("saturated");
            w.raw(if lap.saturated { "true" } else { "false" });
            w.raw("}");
        }
        w.raw("]");
        w.raw("}");
        w.raw("}");
        w.finish()
    }

    /// Only the seed-deterministic section — the part that must be
    /// byte-identical across two runs of the same seed on any machine.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("schema");
        w.string("taxilight-throughput/3");
        w.raw(",");
        self.write_workload(&mut w);
        w.raw("}");
        w.finish()
    }

    /// Human-readable summary lines for the console.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = vec![
            format!(
                "workload: seed {}  taxis {}  scale {}  window {} s → {} records, {} lights ({} identified)",
                self.seed,
                self.taxis,
                self.scale,
                self.window_s,
                self.records,
                self.lights,
                self.identified
            ),
            format!(
                "shard schedule: {} shards, digest {:#018x}, sharded==serial: {}",
                self.shards, self.shard_digest, self.sharded_matches_serial
            ),
            format!(
                "serial: median {:.3} s over {} laps (IQR {:.3} s, min {:.3}, max {:.3})  ({:.0} records/s, {:.1} lights/s)  latency p50 {:.2} ms  p95 {:.2} ms",
                self.serial_elapsed_s,
                self.serial_bin.samples,
                self.serial_bin.iqr(),
                self.serial_bin.min,
                self.serial_bin.max,
                rate(self.records, self.serial_elapsed_s),
                rate(self.lights, self.serial_elapsed_s),
                self.latency_ms_p50,
                self.latency_ms_p95
            ),
            format!(
                "stages: cycle {:.3} s  red {:.3} s  change {:.3} s  (kernels {:.3} s)   plan cache: {} hits / {} misses ({:.1}% hit rate)",
                self.stage_cycle_s,
                self.stage_red_s,
                self.stage_change_s,
                self.stage_kernel_s,
                self.plan_hits,
                self.plan_misses,
                100.0 * self.plan_hit_rate()
            ),
            format!(
                "ingest: {:.3} s  ({:.0} records/s batched real-time extend)",
                self.ingest_elapsed_s,
                rate(self.records, self.ingest_elapsed_s)
            ),
        ];
        for lap in &self.scaling {
            out.push(format!(
                "sharded x{} threads: {:.3} s  ({:.0} records/s, speedup {:.2}x){}",
                lap.threads,
                lap.elapsed_s,
                rate(self.records, lap.elapsed_s),
                if lap.elapsed_s > 0.0 { self.serial_elapsed_s / lap.elapsed_s } else { 0.0 },
                if lap.saturated {
                    format!("  [saturated: only {} logical CPUs]", self.nproc)
                } else {
                    String::new()
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> ThroughputReport {
        ThroughputReport {
            seed: 77,
            taxis: 150,
            window_s: 3600,
            shards: 32,
            scale: 1,
            records: 12345,
            lights: 24,
            identified: 22,
            shard_digest: 0x0123456789abcdef,
            sharded_matches_serial: true,
            serial_elapsed_s: 2.5,
            serial_bin: SampleSummary::from_samples(&[2.5, 2.4, 2.9]),
            nproc: 2,
            stage_cycle_s: 1.75,
            stage_red_s: 0.4,
            stage_change_s: 0.3,
            stage_kernel_s: 0.6,
            plan_hits: 46,
            plan_misses: 2,
            latency_ms_p50: 10.25,
            latency_ms_p95: 42.0,
            ingest_elapsed_s: 0.5,
            scaling: vec![
                LapTiming { threads: 1, elapsed_s: 2.5, saturated: false },
                LapTiming { threads: 4, elapsed_s: 0.7, saturated: true },
            ],
        }
    }

    /// Satellite contract: the serializer is byte-stable — the same
    /// report data always produces the same bytes.
    #[test]
    fn serialization_is_byte_stable() {
        let r = synthetic();
        assert_eq!(r.to_json(), r.to_json());
        assert_eq!(r.deterministic_json(), r.deterministic_json());
    }

    #[test]
    fn json_schema_is_complete() {
        let json = synthetic().to_json();
        for key in [
            "\"schema\":\"taxilight-throughput/3\"",
            "\"workload\"",
            "\"scale\":1",
            "\"shard_digest\":\"0x0123456789abcdef\"",
            "\"sharded_matches_serial\":true",
            "\"timing\"",
            "\"env\"",
            "\"nproc\":2",
            "\"arch\"",
            "\"kernel_path\"",
            "\"serial\"",
            "\"records_per_s\"",
            "\"bin\"",
            "\"samples\":3",
            "\"median_s\"",
            "\"p25_s\"",
            "\"p75_s\"",
            "\"stages\"",
            "\"cycle_s\"",
            "\"kernel_s\"",
            "\"plan_cache\"",
            "\"hits\":46",
            "\"misses\":2",
            "\"hit_rate\"",
            "\"latency_ms\"",
            "\"ingest\"",
            "\"scaling\"",
            "\"speedup\"",
            "\"saturated\":false",
            "\"saturated\":true",
        ] {
            assert!(json.contains(key), "throughput JSON missing {key}");
        }
        // The deterministic section is a literal prefix-slice of the full
        // report, so the two can never drift apart.
        let det = synthetic().deterministic_json();
        assert!(det.ends_with('}') && json.starts_with(&det[..det.len() - 1]));
    }

    /// `--scale k` must actually grow the workload: more intersections
    /// and a larger fleet, while scale 1 stays the paper city.
    #[test]
    fn scale_grows_the_workload() {
        let base = ThroughputConfig::default();
        let scaled = ThroughputConfig { scale: 4, ..ThroughputConfig::default() };
        let a = base.scenario();
        let b = scaled.scenario();
        assert!(
            b.net.light_count() > a.net.light_count(),
            "scale 4 grid ({} lights) not larger than scale 1 ({} lights)",
            b.net.light_count(),
            a.net.light_count()
        );
        assert_eq!(b.sim_config.taxi_count, 4 * a.sim_config.taxi_count);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// The real acceptance criteria, on the quick workload: the sharded
    /// engine is bit-identical to serial, and the deterministic section
    /// of the report is byte-identical across two runs of the same seed.
    #[test]
    fn quick_workload_is_deterministic_and_equivalent() {
        let cfg = ThroughputConfig::quick();
        let a = run_throughput(&cfg);
        assert!(a.records > 0 && a.lights > 0, "quick workload produced no data");
        assert!(a.identified > 0, "quick workload identified nothing");
        assert!(a.sharded_matches_serial, "sharded engine diverged from serial");
        assert!(a.plan_hits > 0, "serial lap never hit the FFT plan cache");
        assert!(a.stage_cycle_s > 0.0, "serial lap recorded no cycle-stage time");
        assert!(a.stage_kernel_s > 0.0, "serial lap recorded no kernel time");
        assert!(
            a.stage_kernel_s < a.stage_cycle_s + a.stage_change_s,
            "kernel time exceeds stages"
        );
        assert_eq!(a.serial_bin.samples, cfg.samples, "serial bin lost laps");
        assert!(a.serial_bin.min <= a.serial_elapsed_s && a.serial_elapsed_s <= a.serial_bin.max);
        assert!(a.nproc >= 1);
        for (lap, &threads) in a.scaling.iter().zip(&cfg.thread_ladder) {
            assert_eq!(lap.saturated, threads > a.nproc, "saturated flag wrong at x{threads}");
        }
        let b = run_throughput(&cfg);
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "same seed, different workload bytes — determinism regression"
        );
    }
}
