//! The `taxilightd` serving-path benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload backfill|live --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the daemon in its own process and prints the
//! end-to-end metrics; `--trace 1` does the same run, then replays the
//! workload in-process under span tracing and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct","attempted","failed","metrics"}`; a divergence from
//! the offline replay exits 1 without it. See `perfbench/README.md`.

mod check;
mod client;
mod e2e;
mod feed;
mod proc;
mod replay;
mod trace;

use std::path::PathBuf;

use taxilight_bench::summary::{nproc, percentile};
use taxilight_obs::json::fmt_f64;
use taxilight_serve::FeedFormat;

use crate::feed::{Feed, Workload};
use crate::replay::Replay;

const USAGE: &str = "usage: perfbench --workload backfill|live --seed N --seconds S --trace 0|1";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        let bad = || format!("bad {arg} value {value:?}");
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s > 0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        if let Err(e) = proc::host(&args[1..]) {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// A metric as printed and as put in the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A failed-query median is infinite; the result object needs a number.
    Metric { name, value: if value.is_finite() { value } else { 1e12 }, unit }
}

fn digest(d: u64) -> String {
    format!("\"{d:#018x}\"")
}

fn run(opts: &Opts) -> Result<(), String> {
    let w = opts.workload;
    let shape = w.shape();
    let net = shape.net.build();

    // Workload and oracle, outside every timed phase.
    let mut feed = Feed::new(&net, shape, opts.seed);
    let warm_n = feed.warmup.len();
    let mut oracle = Replay::new(&net);
    oracle.connection(&feed.warmup.bytes, shape.format);
    let warm_view = oracle.views.get(&1).cloned().ok_or("the warm-up fired no round offline")?;
    let lights: Vec<u32> = warm_view.schedules().map(|(l, _)| l.0).collect();
    let stats = oracle.match_stats();
    let warm_section = format!(
        "{{\"records\":{},\"plates\":{},\"identified\":{},\"partitioned_share\":{},\"obs_per_light_h_median\":{},\"rounds\":1,\"changes\":{},\"digest\":{}}}",
        warm_n,
        oracle.plates[0],
        lights.len(),
        fmt_f64(stats.partitioned as f64 / stats.input.max(1) as f64),
        fmt_f64(oracle.obs_per_light_h_median()),
        oracle.changes,
        digest(warm_view.digest()),
    );

    let e2e = e2e::run(w, opts.seconds, &mut feed, &warm_view, &lights, net.light_count())?;
    oracle.connection(&e2e.phase.bytes[..e2e.phase.prefix_len(e2e.sent)], shape.format);
    let divergences = check::divergences(&e2e, &oracle, warm_n);
    if !divergences.is_empty() {
        for d in &divergences {
            eprintln!("divergence: {d}");
        }
        return Err(format!("{} divergences from the offline replay", divergences.len()));
    }

    // Deterministic for a seed (and `--seconds`): the workload and what
    // the oracle makes of it. On backfill the measured connection's
    // length depends on speed, so only the warm-up is described.
    let final_view = oracle.view();
    let feed_section = match shape.compression {
        Some(_) => format!(
            ",\"feed\":{{\"records\":{},\"rounds\":{},\"changes\":{},\"digest\":{},\"obs_per_light_h_median\":{}}}",
            warm_n + e2e.sent,
            final_view.version(),
            oracle.changes,
            digest(final_view.digest()),
            fmt_f64(oracle.obs_per_light_h_median()),
        ),
        None => String::new(),
    };
    println!(
        "workload {{\"name\":\"{}\",\"seed\":{},\"seconds\":{},\"network\":\"{}\",\"lights\":{},\"plates\":{},\"format\":\"{}\",\"warmup\":{}{},\"table2_records_per_intersection_h\":[198,5071]}}",
        w.name(),
        opts.seed,
        opts.seconds,
        shape.net.as_str(),
        net.light_count(),
        shape.plates,
        match shape.format {
            FeedFormat::Csv => "csv",
            FeedFormat::NdJson => "ndjson",
        },
        warm_section,
        feed_section,
    );
    println!(
        "env {{\"nproc\":{},\"arch\":\"{}\",\"kernel_path\":\"{}\",\"steal_s\":{}}}",
        nproc(),
        std::env::consts::ARCH,
        taxilight_signal::kernels::active_path_name(),
        fmt_f64(e2e.steal_s),
    );

    let query_p50 = percentile(&e2e.query_ms, 0.5);
    let end_to_end = [
        m("setup_s", percentile(&e2e.setup_s, 0.5), "s"),
        m("ingest_rps", e2e.ingest_rps, "records/s"),
        m("ttv_p50_ms", percentile(&e2e.ttv_ms, 0.5), "ms"),
        m("query_p50_ms", query_p50, "ms"),
        m("peak_rss_mb", e2e.peak_rss_mb, "MiB"),
    ];
    println!(
        "run {{\"setups_s\":[{}],\"records_sent\":{},\"rounds\":{},\"ttv_ms\":[{}],\"queries\":{},\"query_p99_ms\":{},\"query_late_p50_ms\":{},\"lag_growing\":{},\"final_digest\":{}}}",
        e2e.setup_s.iter().map(|&s| fmt_f64(s)).collect::<Vec<_>>().join(","),
        e2e.sent,
        e2e.rounds_published,
        e2e.ttv_ms.iter().map(|&s| fmt_f64(s)).collect::<Vec<_>>().join(","),
        e2e.queries,
        fmt_f64(percentile(&e2e.query_ms, 0.99)),
        fmt_f64(percentile(&e2e.query_late_ms, 0.5)),
        e2e.lag_growing,
        digest(final_view.digest()),
    );

    // Operations: records, rounds and queries. A live run whose ingest lag
    // still grows has every measured round counted as failed.
    let records = (warm_n + e2e.sent) as u64;
    let attempted = records + e2e.rounds_expected + e2e.queries;
    let failed = records.saturating_sub(e2e.processed)
        + e2e.bad_lines
        + e2e.rounds_expected.abs_diff(e2e.rounds_published)
        + e2e.queries_failed
        + if e2e.lag_growing { e2e.rounds_expected - 1 } else { 0 };
    println!(
        "operations attempted {attempted} failed {failed} (records {records} processed {} bad_lines {}; rounds expected {} published {}; queries {} failed {})",
        e2e.processed, e2e.bad_lines, e2e.rounds_expected, e2e.rounds_published, e2e.queries, e2e.queries_failed
    );
    if e2e.lag_growing {
        println!("live: feed-clock ingest lag still growing at the end: the offered rate exceeds capacity");
    }

    let metrics: Vec<Metric> = if opts.trace {
        // Inside the package, wherever it was built from.
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/{}-{}.trace.json",
            w.name(),
            opts.seed
        ));
        let traced =
            trace::run(shape, opts.seconds, &net, &feed.warmup, &e2e.phase, &lights, &path)?;
        println!("trace {} ({} spans)", traced.trace_path.display(), traced.trace_spans);
        for (k, e) in end_to_end.iter().enumerate() {
            println!(
                "tracing overhead: {} untraced {} traced {} {}",
                e.name, e.value, traced.e2e[k], e.unit
            );
        }
        let mut layers: Vec<Metric> = traced.layers.iter().map(|&(n, v, u)| m(n, v, u)).collect();
        let read_ms =
            traced.layers.iter().find(|l| l.0 == "store.read_ns_p50").map_or(0.0, |l| l.1 / 1e6);
        layers.extend([
            m("http.queries", e2e.queries as f64, "count"),
            m("http.failed", e2e.queries_failed as f64, "count"),
            m("http.overhead_ms_p50", query_p50 - read_ms, "ms"),
            m("http.query_p99_ms", percentile(&e2e.query_ms, 0.99), "ms"),
            m("gen.late_ms_p99", percentile(&e2e.late_ms, 0.99), "ms"),
            m("gen.offered_rps", e2e.offered_rps, "records/s"),
            m("proc.daemon_cpu_s", e2e.daemon_cpu_s, "s"),
            m("proc.steal_s", e2e.steal_s, "s"),
        ]);
        layers
    } else {
        end_to_end.into_iter().collect()
    };
    for x in &metrics {
        println!("{} {} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", x.name, x.value, x.unit))
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use taxilight_bench::summary::{percentile, SampleSummary};

    /// Every reported percentile is `bench::summary`'s nearest rank: an
    /// observed value, never an interpolated one.
    #[test]
    fn percentiles_are_bench_summary_nearest_rank() {
        let ms: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&ms, 0.5), 101.0);
        assert_eq!(percentile(&ms, 0.99), 198.0);
        assert_eq!(SampleSummary::from_samples(&ms).median, percentile(&ms, 0.5));
        // A failed query is an infinite latency: it can move the median
        // up but never poison it with NaN.
        let mut with_failure = vec![1.0, 2.0, 3.0];
        with_failure.push(f64::INFINITY);
        assert_eq!(percentile(&with_failure, 0.5), 3.0);
    }
}
