//! Regenerates every table and figure of the paper's evaluation from the
//! simulated substrate. Each subcommand prints the rows/series the paper
//! reports; EXPERIMENTS.md records paper-vs-measured.
//!
//! ```text
//! cargo run --release -p taxilight-bench --bin figures -- all
//! cargo run --release -p taxilight-bench --bin figures -- fig14
//! cargo run --release -p taxilight-bench --bin figures -- spectrum
//! ```

use taxilight_bench::{cdf_row, run_city_eval};
use taxilight_core::cycle::{identify_cycle, identify_cycle_from_samples, speed_samples};
use taxilight_core::enhance::mirror_enhance;
use taxilight_core::monitor::ScheduleMonitor;
use taxilight_core::red::{extract_stops, red_duration};
use taxilight_core::superpose::{bin_cycle, superpose};
use taxilight_core::{Identifier, IdentifyConfig, IdentifyRequest, Preprocessor};
use taxilight_navsim::experiment::{overall_saving, run_fig16, Fig16Config};
use taxilight_roadnet::generators::{grid_city, GridConfig};
use taxilight_roadnet::SegmentIndex;
use taxilight_signal::histogram::Ecdf;
use taxilight_signal::interpolate::Method;
use taxilight_signal::periodogram::{band_candidates, PeriodBand};
use taxilight_sim::lights::{DailyProgram, IntersectionPlan, PhasePlan, Schedule, SignalMap};
use taxilight_sim::{paper_city, SimConfig, Simulator};
use taxilight_trace::stats::TraceStatistics;
use taxilight_trace::time::Timestamp;

/// Every subcommand, in the order `all` runs them.
const FIGURES: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("table2", table2),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig16", fig16),
    ("ablation", ablation),
    ("density", density),
    ("accuracy", accuracy),
    ("robustness", robustness),
    ("throughput", throughput),
    ("kernels", kernels),
    ("spectrum", spectrum),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<&(&str, fn())> =
        FIGURES.iter().filter(|(name, _)| arg == "all" || arg == *name).collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown figure '{arg}'\nusage: figures [all|{}]  (kernels also takes --quick)",
            names.join("|")
        );
        std::process::exit(2);
    }
    for (name, run) in selected {
        println!("\n================= {name} =================");
        run();
    }
}

/// Throughput snapshot: replays the seeded city-scale workload through
/// the serial and sharded engines and archives the machine-readable
/// report as `BENCH_throughput.json` (the artifact CI uploads). Timing
/// fields are machine-dependent; the workload section is byte-identical
/// across runs of the same seed.
fn throughput() {
    use taxilight_bench::throughput::{run_throughput, ThroughputConfig};
    let report = run_throughput(&ThroughputConfig::default());
    for line in report.summary_lines() {
        println!("{line}");
    }
    let path = "BENCH_throughput.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Kernel microbenchmark: times the selected bodies (SSE2 on x86_64) of
/// the radix-2 butterfly, over every stage of an 8 192-point transform,
/// and of the fold, over one light's refinement grid, against their scalar
/// references in alternating pairs, checks the outputs bit-identical, and
/// archives the machine-readable report as `BENCH_kernels.json` (the
/// artifact CI uploads). The run exits 1 if either body diverges from its
/// reference. Speedups are machine-dependent; the workload section (seed,
/// shapes, bit-identity + checksums) is byte-identical across runs of the
/// same seed.
fn kernels() {
    use taxilight_bench::kernels::{run_kernel_bench, KernelBenchConfig};
    let cfg = if std::env::args().any(|a| a == "--quick") {
        KernelBenchConfig::quick()
    } else {
        KernelBenchConfig::default()
    };
    let report = run_kernel_bench(&cfg);
    for line in report.summary_lines() {
        println!("{line}");
    }
    let path = "BENCH_kernels.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    if !report.bit_identical() {
        eprintln!("FAIL: a selected kernel body diverged from its scalar reference");
        std::process::exit(1);
    }
}

/// DESIGN.md's Eq.-(1) ablation: the paper's plain O(N²) DFT against the
/// FFT that computes the same spectrum in O(N log N), on a 97-s tone at
/// 512 points and at the 30- and 60-min 1 Hz grids. Each side is timed in
/// a bin of 5 laps; the run exits 1 if any FFT bin differs from the DFT's
/// by more than 1e-6·(1+|x|), the bound `fft_matches_dft_oracle` uses.
fn spectrum() {
    use std::hint::black_box;
    use taxilight_bench::summary::{nproc, time_n};
    use taxilight_signal::dft::dft_real;
    use taxilight_signal::fft::eq1_spectrum;
    const LAPS: usize = 5;
    println!(
        "nproc {}  arch {}  kernel path {}  ({LAPS} laps per bin)",
        nproc(),
        std::env::consts::ARCH,
        taxilight_signal::kernels::active_path_name()
    );
    println!(
        "{:>6} {:>14} {:>10} {:>14} {:>10} {:>9} {:>10}",
        "n", "DFT median ms", "IQR ms", "FFT median ms", "IQR ms", "speedup", "gap/(1+|x|)"
    );
    let mut agree = true;
    for n in [512usize, 1800, 3600] {
        let signal: Vec<f64> =
            (0..n).map(|k| (2.0 * std::f64::consts::PI * k as f64 / 97.0).sin() + 20.0).collect();
        let (dft, dft_bin) = time_n(LAPS, |_| dft_real(black_box(&signal)));
        let (fft, fft_bin) = time_n(LAPS, |_| eq1_spectrum(black_box(&signal)));
        let (exact, fast) = (&dft[0], &fft[0]);
        assert_eq!(exact.len(), fast.len(), "spectra of different lengths at n = {n}");
        let mut worst = 0.0f64;
        for (x, y) in exact.iter().zip(fast) {
            let gap = (*y - *x).abs();
            agree &= gap < 1e-6 * (1.0 + x.abs());
            worst = worst.max(gap / (1.0 + x.abs()));
        }
        println!(
            "{n:>6} {:>14.3} {:>10.3} {:>14.4} {:>10.4} {:>8.0}x {worst:>10.1e}",
            dft_bin.median * 1e3,
            dft_bin.iqr() * 1e3,
            fft_bin.median * 1e3,
            fft_bin.iqr() * 1e3,
            dft_bin.median / fft_bin.median,
        );
    }
    if !agree {
        eprintln!("FAIL: the FFT spectrum differs from the Eq.-(1) DFT beyond 1e-6·(1+|x|)");
        std::process::exit(1);
    }
}

/// Accuracy-regression snapshot: runs the taxilight-eval fast conformance
/// matrix and archives the machine-readable report as
/// `BENCH_accuracy.json` (the artifact CI uploads).
fn accuracy() {
    let scenarios = taxilight_eval::matrix();
    let report = taxilight_eval::run_matrix(&scenarios);
    for s in &report.scenarios {
        println!("{}", s.summary_line());
        for f in &s.failures {
            println!("      gate: {f}");
        }
    }
    let path = "BENCH_accuracy.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Fault-injection degradation curves: every corruption profile swept
/// over the full severity ladder, printed as `severity → success /
/// median cycle / median red` series and archived as
/// `BENCH_robustness.json` (the artifact CI uploads).
fn robustness() {
    let report = taxilight_eval::run_robustness(&taxilight_eval::robustness::FULL_SEVERITIES);
    for p in &report.profiles {
        println!("{}", p.summary_line());
        println!("      severity   ok     cycle_s  red_bins  change_s  spurious");
        for pt in &p.points {
            println!(
                "      {:>8.2}  {:>5.2}  {:>7.2}  {:>8.2}  {:>8.1}  {:>8.2}",
                pt.severity,
                pt.success_rate,
                pt.median_cycle_err_s,
                pt.median_red_bins,
                pt.median_change_err_s,
                pt.spurious_change_rate,
            );
        }
        for f in &p.failures {
            println!("      gate: {f}");
        }
    }
    let path = "BENCH_robustness.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Fig. 1 — aggregated taxi updates vs. the road network. The paper's
/// visual comparison becomes a coverage statistic: how close reported
/// fixes lie to actual roads.
fn fig1() {
    let scenario = paper_city(1, 120);
    let (mut log, _) = scenario.run_from(Timestamp::civil(2014, 12, 5, 8, 0, 0), 3 * 3600);
    let index = SegmentIndex::build(&scenario.net, 250.0);
    let total = log.len();
    let mut within = [0usize; 4];
    let radii = [15.0, 30.0, 60.0, 120.0];
    for r in log.records() {
        for (k, &radius) in radii.iter().enumerate() {
            if index.nearest_segment(&scenario.net, r.position, radius).is_some() {
                within[k] += 1;
            }
        }
    }
    println!("3 h of updates ({total} records) vs. the road network:");
    for (k, &radius) in radii.iter().enumerate() {
        println!(
            "  within {radius:>5.0} m of a road: {:>5.1}%",
            100.0 * within[k] as f64 / total as f64
        );
    }
    println!("(paper: the aggregated plot visually traces the OSM road network)");
}

/// Fig. 2 — trace statistics over a simulated day.
fn fig2() {
    let scenario = paper_city(5, 120);
    let (mut log, _) = scenario.run(24 * 3600);
    let stats = TraceStatistics::compute(&mut log);
    println!("records {}  taxis {}", stats.record_count, stats.taxi_count);
    println!(
        "(b) update interval: mean {:.2} s, σ {:.2}   [paper 20.41 / 20.54]",
        stats.interval.mean, stats.interval.stddev
    );
    println!(
        "(c) stationary consecutive updates: {:.1}%   [paper 42.66%]; moving mean {:.1} m [paper 100.69]",
        100.0 * stats.stationary_fraction,
        stats.moving_distance.mean
    );
    let (mu, sigma) = stats.speed_diff_normal;
    println!("(d) speed differences fit N({mu:.2}, {sigma:.1})   [paper N(0, 40)]");
    println!("(a) records per 2-hour block:");
    let max: u64 = stats.slot_counts.iter().sum::<u64>().max(1);
    for block in 0..12 {
        let total: u64 = (0..12).map(|k| stats.slot_counts[block * 12 + k]).sum();
        println!(
            "  {:02}:00-{:02}:00 {:>7} {}",
            block * 2,
            block * 2 + 2,
            total,
            "#".repeat((total * 600 / max) as usize)
        );
    }
    if let Some(r) = stats.slot_imbalance() {
        println!("slot imbalance {r:.1}× (paper: pronounced night/day imbalance)");
    }
}

/// Table II — records per hour at the monitored intersections.
fn table2() {
    let scenario = paper_city(11, 150);
    let (mut log, _) = scenario.run_from(Timestamp::civil(2014, 12, 5, 10, 0, 0), 3600);
    println!("{:<4} {:>16} {:>18}", "ID", "records/hour", "(within 250 m)");
    let mut counts = Vec::new();
    for (k, &ix) in scenario.monitored.iter().enumerate() {
        let pos = scenario.net.intersection(ix).position(&scenario.net);
        let n = log.records().iter().filter(|r| r.position.distance_m(pos) < 250.0).count();
        counts.push(n);
        println!("{:<4} {:>16} {:>18}", k + 1, n, "");
    }
    let max = *counts.iter().max().unwrap_or(&0);
    let min = counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(1);
    println!("busiest/idlest ratio: {:.1}×   [paper: 5071/198 ≈ 25.6×]", max as f64 / min as f64);
}

/// A simulated single-intersection world shared by Figs. 6–11.
fn single_light_world(
    cycle: u32,
    red: u32,
    offset: u32,
    taxis: usize,
    duration_s: u64,
) -> (
    taxilight_roadnet::generators::GeneratedCity,
    SignalMap,
    taxilight_core::PartitionedTraces,
    Timestamp,
    IdentifyConfig,
) {
    let city =
        grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
    let mut signals = SignalMap::new();
    let plan = PhasePlan::new(cycle, red, offset);
    for &ix in &city.intersections {
        signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
    }
    let start = Timestamp::civil(2014, 12, 5, 14, 0, 0);
    let mut sim = Simulator::new(
        &city.net,
        &signals,
        SimConfig {
            taxi_count: taxis,
            start,
            seed: 42,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        },
    );
    sim.run(duration_s);
    let (mut log, _) = sim.into_log();
    let cfg = IdentifyConfig::default();
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let (parts, _) = pre.preprocess(&mut log);
    (city, signals, parts, start.offset(duration_s as i64), cfg)
}

/// Fig. 6 — periodicity identification: raw samples → interpolated 1 Hz
/// signal → DFT spectrum with the winning bin.
fn fig6() {
    let truth_cycle = 98;
    // The paper's Fig. 6 shows a busy intersection (its Table-II leader
    // logs 5071 records/h); use a dense fleet for the same regime.
    let (_city, _signals, parts, at, cfg) = single_light_world(truth_cycle, 39, 0, 300, 3600);
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("light with data");
    let t0 = at.offset(-3600);
    let obs = parts.window(light, t0, at);
    let samples = speed_samples(obs, t0, cfg.influence_radius_m);
    println!(
        "raw samples in 1 h window: {} (≈{:.1}/min)",
        samples.len(),
        samples.len() as f64 / 60.0
    );

    let grid =
        taxilight_signal::interpolate::resample(&samples, 0.0, 1.0, 3600, Method::CubicSpline)
            .expect("resample");
    println!("interpolated to 3600 × 1 Hz grid (spline; negative speeds tolerated)");
    let cands = band_candidates(&grid, 1.0, PeriodBand::TRAFFIC_LIGHTS, 5);
    println!("strongest DFT bins in the 30–300 s band:");
    for c in &cands {
        println!("  bin {:>3} → period {:>6.1} s  |x| = {:>7.2}", c.bin, c.period, c.magnitude);
    }
    match identify_cycle(obs, t0, at, &cfg) {
        Ok(est) => println!(
            "identified cycle: {:.1} s (bin {})   [truth {truth_cycle} s; paper example: bin 37 → 97 s vs truth 98 s]",
            est.cycle_s, est.bin
        ),
        Err(e) => println!("identification failed: {e}"),
    }
}

/// Fig. 7 — intersection-based enhancement on sparse data: cycle error
/// solo vs. enhanced at decreasing fleet sizes.
fn fig7() {
    println!("{:>7} {:>14} {:>14}", "taxis", "solo err (s)", "enhanced (s)");
    for taxis in [15usize, 25, 40, 80] {
        let truth = 110.0;
        let (city, _signals, parts, at, cfg) = single_light_world(110, 50, 20, taxis, 3600);
        let light = parts
            .lights_with_data()
            .into_iter()
            .max_by_key(|&l| parts.observations(l).len())
            .expect("light with data");
        let t0 = at.offset(-3600);
        let obs = parts.window(light, t0, at);
        let solo = identify_cycle(obs, t0, at, &cfg)
            .map(|e| (e.cycle_s - truth).abs())
            .map(|e| format!("{e:.1}"))
            .unwrap_or_else(|_| "fail".into());
        // Enhanced: pool the perpendicular approaches via Eq. (3).
        let this = city.net.light(light).unwrap();
        let mut primary = speed_samples(obs, t0, cfg.influence_radius_m);
        let mut perp = Vec::new();
        for l in &city.net.intersection(this.intersection).lights {
            if l.id == light {
                continue;
            }
            let w = parts.window(l.id, t0, at);
            let s = speed_samples(w, t0, cfg.influence_radius_m);
            let d = taxilight_trace::geo::heading_difference(l.heading_deg, this.heading_deg);
            if (45.0..=135.0).contains(&d) {
                perp.extend(s);
            } else {
                primary.extend(s);
            }
        }
        let merged = mirror_enhance(&primary, &perp);
        let enhanced = identify_cycle_from_samples(&merged, 3600, &cfg)
            .map(|e| format!("{:.1}", (e.cycle_s - truth).abs()))
            .unwrap_or_else(|_| "fail".into());
        println!("{taxis:>7} {solo:>14} {enhanced:>14}");
    }
    println!("(paper: either direction alone cannot reconstruct the cycle; mirrored data can)");
}

/// Fig. 9 — red-duration identification via the border interval.
fn fig9() {
    let truth_cycle = 106;
    let truth_red = 63;
    let (_city, _signals, parts, at, cfg) = single_light_world(truth_cycle, truth_red, 0, 80, 5400);
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("light with data");
    let t0 = at.offset(-5400);
    let obs = parts.window(light, t0, at);
    let stops: Vec<_> = extract_stops(obs, cfg.stationary_threshold_m)
        .into_iter()
        .filter(|s| s.dist_to_stop_m <= cfg.influence_radius_m)
        .collect();
    println!("stops extracted near the light: {}", stops.len());
    let interval = taxilight_core::pipeline::mean_sample_interval(obs);
    println!("mean sample interval: {interval:.2} s (paper: 20.14 s)");
    let mut hist = taxilight_signal::histogram::Histogram::with_bin_width(
        0.0,
        truth_cycle as f64 + interval,
        interval,
    );
    for s in &stops {
        if !s.passenger_changed && s.duration_s <= truth_cycle as f64 {
            hist.add(s.duration_s);
        }
    }
    println!("stop-duration histogram (mean-interval bins):");
    for b in 0..hist.bins() {
        let (lo, hi) = hist.bin_range(b);
        println!(
            "  [{lo:>5.1},{hi:>5.1}) {:>4} {}",
            hist.count(b),
            "#".repeat(hist.count(b) as usize)
        );
    }
    match red_duration(&stops, truth_cycle as f64, interval) {
        Ok(est) => println!(
            "border bin {} → red = {:.1} s   [truth {truth_red} s; paper example: 63 s]",
            est.border_bin, est.red_s
        ),
        Err(e) => println!("red identification failed: {e}"),
    }
}

/// Fig. 10 — data superposition: samples per within-cycle second before
/// and after folding.
fn fig10() {
    // 15 min of warm-up traffic, then the 3 analysed cycles.
    let (_city, signals, parts, at, cfg) = single_light_world(98, 39, 0, 250, 900 + 3 * 98);
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("light with data");
    let t0 = at.offset(-(3 * 98) as i64);
    let obs = parts.window(light, t0, at);
    // Fold by ABSOLUTE time shifted by this approach's red onset, so the
    // red phase occupies fold coordinates [0, red).
    let plan = signals.plan(light, at);
    let samples: Vec<(f64, f64)> = obs
        .iter()
        .filter(|o| o.dist_to_stop_m <= cfg.influence_radius_m)
        .map(|o| ((o.time.0 - plan.offset_s as i64) as f64, o.speed_kmh))
        .collect();
    println!("3 consecutive 98 s cycles, {} samples total", samples.len());
    let folded = superpose(&samples, 98.0);
    let binned = bin_cycle(&folded, 98);
    let filled = binned.iter().filter(|b| b.is_some()).count();
    println!("after superposition: {} of 98 within-cycle seconds hold at least one sample", filled);
    let red_len = plan.red_s as usize;
    let red_vals: Vec<f64> = (0..red_len).filter_map(|i| binned[i]).collect();
    let green_vals: Vec<f64> = (red_len..98).filter_map(|i| binned[i]).collect();
    let red_mean: f64 = red_vals.iter().sum::<f64>() / red_vals.len().max(1) as f64;
    let green_mean: f64 = green_vals.iter().sum::<f64>() / green_vals.len().max(1) as f64;
    println!(
        "folded mean speed: red phase {red_mean:.1} km/h vs green phase {green_mean:.1} km/h \
         [paper: the folded cycle separates into a slow red block and a fast green block]"
    );
}

/// Fig. 11 — sliding-window change-point identification.
fn fig11() {
    let truth_cycle = 98;
    let truth_red = 39;
    let offset = 41; // the paper's ground truth: green→red at 41 s
    let (city, signals, parts, at, cfg) =
        single_light_world(truth_cycle, truth_red, offset, 150, 5400);
    let engine = Identifier::new(&city.net, cfg).expect("default config is valid");
    let mut errors = Vec::new();
    for light in parts.lights_with_data() {
        let Ok(est) = engine.run(&parts, &IdentifyRequest::one(at, light)).into_single() else {
            continue;
        };
        let plan = signals.plan(light, at);
        let err = taxilight_core::circular_error_s(
            est.red_start_s,
            plan.offset_s as f64,
            plan.cycle_s as f64,
        );
        println!(
            "  light {:>2}: truth onset ≡ {:>3} (cycle {}, red {:>2}) → identified phase {:>5.1}, error {err:>5.1} s",
            light.0,
            plan.offset_s,
            plan.cycle_s,
            plan.red_s,
            est.red_start_mod_cycle(),
        );
        errors.push(err);
    }
    errors.sort_by(f64::total_cmp);
    if !errors.is_empty() {
        println!(
            "median change-time error over {} lights: {:.1} s   [paper example: 3 s]",
            errors.len(),
            errors[(errors.len() - 1) / 2]
        );
    }
}

/// Fig. 12 — continuous monitoring through programme switches.
fn fig12() {
    let city =
        grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
    let off_peak = PhasePlan::new(90, 40, 10);
    let peak = PhasePlan::new(150, 70, 10);
    let mut signals = SignalMap::new();
    for &ix in &city.intersections {
        signals.install_intersection_with(&city.net, ix, IntersectionPlan { ns: off_peak }, |p| {
            let peak_plan = if p == off_peak { peak } else { peak.antiphase() };
            Schedule::PreProgrammed(DailyProgram::new(vec![
                (0, p),
                (7 * 3600, peak_plan),
                (9 * 3600, p),
            ]))
        });
    }
    let start = Timestamp::civil(2014, 5, 21, 5, 30, 0);
    let mut sim = Simulator::new(
        &city.net,
        &signals,
        SimConfig {
            taxi_count: 90,
            start,
            seed: 3,
            hourly_activity: [1.0; 24],
            ..SimConfig::default()
        },
    );
    sim.run(5 * 3600);
    let (mut log, _) = sim.into_log();
    let cfg = IdentifyConfig { window_s: 1800, ..IdentifyConfig::default() };
    let pre = Preprocessor::new(&city.net, cfg.clone());
    let engine = Identifier::new(&city.net, cfg.clone()).expect("default config is valid");
    let (parts, _) = pre.preprocess(&mut log);
    let light = parts
        .lights_with_data()
        .into_iter()
        .max_by_key(|&l| parts.observations(l).len())
        .expect("light with data");
    let mut monitor = ScheduleMonitor::new(20.0, 2);
    let mut samples = Vec::new();
    let mut t = start.offset(cfg.window_s as i64);
    while t <= start.offset(5 * 3600) {
        let cycle = engine
            .run(&parts, &IdentifyRequest::one(t, light))
            .into_single()
            .ok()
            .map(|e| e.cycle_s);
        monitor.push(t, cycle);
        samples.push((t, cycle));
        t = t.offset(600);
    }
    println!("cycle re-estimates every 10 min (truth: 90 s, 150 s in 07:00–09:00):");
    for (at, cycle) in samples {
        let shown = cycle.map(|c| format!("{c:6.1}")).unwrap_or_else(|| "    --".into());
        println!("  {} {shown}", &at.format()[11..16]);
    }
    for e in monitor.changes() {
        println!(
            "detected change at {}: {:.0} s → {:.0} s",
            e.at.format(),
            e.from_cycle_s,
            e.to_cycle_s
        );
    }
}

/// Fig. 13 — truth vs. identified for the monitored lights at one instant.
fn fig13() {
    let cfg = IdentifyConfig::default();
    let eval = run_city_eval(21, 180, 1, &cfg);
    let monitored: std::collections::HashSet<_> = eval
        .scenario
        .monitored
        .iter()
        .flat_map(|&ix| eval.scenario.net.intersection(ix).lights.iter().map(|l| l.id))
        .collect();
    println!("{:>6} {:>14} {:>14} {:>12}", "light", "cycle est/true", "red est/true", "change err");
    let mut shown = 0;
    for e in &eval.evals {
        if !monitored.contains(&e.light) {
            continue;
        }
        match (&e.estimate, &e.errors) {
            (Some(est), Some(err)) => println!(
                "{:>6} {:>7.1}/{:<6.0} {:>7.1}/{:<6.0} {:>10.1}s",
                e.light.0, est.cycle_s, e.truth.cycle_s, est.red_s, e.truth.red_s, err.change_err_s
            ),
            _ => println!("{:>6}  identification failed", e.light.0),
        }
        shown += 1;
    }
    println!("({} monitored lights evaluated; paper: errors <5 s on average)", shown);
}

/// Fig. 14 — error CDFs over repeated identifications.
fn fig14() {
    let cfg = IdentifyConfig::default();
    let eval = run_city_eval(33, 180, 4, &cfg);
    let (cycle, red, change) = eval.error_vectors();
    println!("{} identifications, success rate {:.1}%", cycle.len(), 100.0 * eval.success_rate());
    let thresholds = [2.0, 4.0, 6.0, 10.0, 20.0];
    println!("{}", cdf_row("cycle length", &cycle, &thresholds));
    println!("{}", cdf_row("red duration", &red, &thresholds));
    println!("{}", cdf_row("signal change", &change, &thresholds));
    let gross = cycle.iter().filter(|&&e| e > 10.0).count() as f64 / cycle.len().max(1) as f64;
    println!("cycle gross-error share (>10 s): {:.1}%   [paper: ~7%]", 100.0 * gross);
    println!("[paper: red/change ~80% within 6 s]");
}

/// Fig. 16 — navigation savings vs. distance.
fn fig16() {
    let rows = run_fig16(&Fig16Config::default());
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>8}",
        "dist (km)", "trips", "baseline (s)", "aware (s)", "saved"
    );
    for row in &rows {
        println!(
            "{:>10} {:>8} {:>14.1} {:>14.1} {:>7.1}%",
            row.distance_hops,
            row.trips,
            row.baseline_s,
            row.aware_s,
            100.0 * row.saving()
        );
    }
    println!("overall: {:.1}%   [paper: ~15%]", 100.0 * overall_saving(&rows));
}

/// Beyond the paper: identification accuracy vs. fleet density. The
/// paper's Shenzhen feed delivers up to 5071 records/hour at one
/// intersection; this sweep shows the estimator's errors collapsing
/// toward the paper's as the feed approaches that density.
fn density() {
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "taxis", "ok rate", "cycle ≤6s", "gross >10s", "red ≤6s", "change ≤6s"
    );
    for taxis in [80usize, 180, 400] {
        let eval = run_city_eval(33, taxis, 2, &IdentifyConfig::default());
        let (cycle, red, change) = eval.error_vectors();
        let frac = |xs: &[f64], t: f64| 100.0 * Ecdf::new(xs).fraction_at_or_below(t);
        println!(
            "{:>7} {:>8.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            taxis,
            100.0 * eval.success_rate(),
            frac(&cycle, 6.0),
            100.0 - frac(&cycle, 10.0),
            frac(&red, 6.0),
            frac(&change, 6.0),
        );
    }
}

/// DESIGN.md ablations: interpolation method, fold validation,
/// enhancement threshold, window length.
fn ablation() {
    let base = IdentifyConfig::default();
    let variants: Vec<(&str, IdentifyConfig)> = vec![
        ("baseline (spline+fold)", base.clone()),
        ("no fold validation", IdentifyConfig { fold_validate: false, ..base.clone() }),
        ("linear interpolation", IdentifyConfig { interpolation: Method::Linear, ..base.clone() }),
        (
            "zero-fill interpolation",
            IdentifyConfig { interpolation: Method::NearestOrZero, ..base.clone() },
        ),
        ("no enhancement", IdentifyConfig { enhance_below_samples: 0, ..base.clone() }),
        ("30 min window", IdentifyConfig { window_s: 1800, ..base.clone() }),
        ("refined peak", IdentifyConfig { refine_peak: true, ..base.clone() }),
        (
            "autocorrelation method",
            IdentifyConfig {
                cycle_method: taxilight_core::CycleMethod::Autocorrelation,
                ..base.clone()
            },
        ),
        ("no intersection consensus", IdentifyConfig { intersection_consensus: false, ..base }),
    ];
    println!(
        "{:<26} {:>8} {:>12} {:>12} {:>12}",
        "variant", "ok rate", "cycle ≤6s", "red ≤10s", "change ≤10s"
    );
    for (name, cfg) in variants {
        let eval = run_city_eval(33, 150, 2, &cfg);
        let (cycle, red, change) = eval.error_vectors();
        let frac = |xs: &[f64], t: f64| 100.0 * Ecdf::new(xs).fraction_at_or_below(t);
        println!(
            "{:<26} {:>7.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            name,
            100.0 * eval.success_rate(),
            frac(&cycle, 6.0),
            frac(&red, 10.0),
            frac(&change, 10.0)
        );
    }
}
