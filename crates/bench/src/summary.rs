//! Study-grade sample statistics shared by every benchmark axis.
//!
//! Each benchmark used to report a single wall-clock lap (or an ad-hoc
//! nearest-rank percentile of its own). This module centralises the
//! discipline: a measurement is an **N-sample bin** summarised by its
//! five-number summary — median, interquartile range, min, max — plus
//! the shared nearest-rank [`percentile`] everything derives from. One
//! lap is still a valid bin (`samples: 1`, degenerate spread); the point
//! is that the report always says how many laps backed a number.
//!
//! Timing helpers ([`time`], [`time_n`]) replace bare `Instant::now()`
//! pairs so every axis measures the same way, and [`nproc`] records the
//! hardware parallelism the honest-timing sections are interpreted
//! against (a thread-scaling rung above `nproc` cannot speed up — the
//! throughput report marks such rungs `saturated`).

use std::time::Instant;

use taxilight_eval::JsonWriter;

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
///
/// `q` is a fraction in `[0, 1]`; the rank is `round((n−1)·q)` of the
/// ascending sort (total order, NaNs last).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Five-number summary of an N-sample measurement bin.
///
/// All quantiles are nearest-rank ([`percentile`]) — actual observed
/// values, never interpolated ones — so a summary of one lap is that
/// lap's value five times over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Laps in the bin.
    pub samples: usize,
    /// Median (p50).
    pub median: f64,
    /// Lower quartile (p25).
    pub p25: f64,
    /// Upper quartile (p75).
    pub p75: f64,
    /// Fastest lap.
    pub min: f64,
    /// Slowest lap.
    pub max: f64,
}

impl SampleSummary {
    /// Summarises a bin; all fields 0 when `values` is empty.
    pub fn from_samples(values: &[f64]) -> SampleSummary {
        SampleSummary {
            samples: values.len(),
            median: percentile(values, 0.50),
            p25: percentile(values, 0.25),
            p75: percentile(values, 0.75),
            min: percentile(values, 0.0),
            max: percentile(values, 1.0),
        }
    }

    /// Interquartile range, `p75 − p25`.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// Writes `{"samples":N,"median_<unit>":…,"p25_<unit>":…,…}` — the
    /// one JSON shape every report embeds for a measurement bin.
    pub fn write_json(&self, w: &mut JsonWriter, unit: &str) {
        w.raw("{");
        w.key("samples");
        w.raw(&self.samples.to_string());
        for (name, v) in [
            ("median", self.median),
            ("p25", self.p25),
            ("p75", self.p75),
            ("min", self.min),
            ("max", self.max),
        ] {
            w.raw(",");
            w.key(&format!("{name}_{unit}"));
            w.f64(v);
        }
        w.raw("}");
    }
}

/// Times one lap of `f`: returns its value and elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Times `n` laps of `f` (passed the lap index): returns every lap's
/// value and the bin summary of their elapsed seconds.
pub fn time_n<T>(n: usize, mut f: impl FnMut(usize) -> T) -> (Vec<T>, SampleSummary) {
    assert!(n >= 1, "a measurement bin needs at least one lap");
    let mut values = Vec::with_capacity(n);
    let mut laps = Vec::with_capacity(n);
    for k in 0..n {
        let (value, elapsed_s) = time(|| f(k));
        values.push(value);
        laps.push(elapsed_s);
    }
    (values, SampleSummary::from_samples(&laps))
}

/// Logical CPUs available to this process; 1 when undetectable.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn nearest_rank_of_a_hundred_samples() {
        // rank = round((n−1)·q) of the ascending sort: p99 of 1..=100 is
        // rank 98 → 99.0, the median is rank round(49.5) = 50 → 51.0.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        let s = SampleSummary::from_samples(&xs);
        assert_eq!((s.median, s.min, s.max), (51.0, 1.0, 100.0));
    }

    #[test]
    fn summary_of_known_bin() {
        let s = SampleSummary::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.samples, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn single_lap_is_a_degenerate_bin() {
        let s = SampleSummary::from_samples(&[7.5]);
        assert_eq!(s.samples, 1);
        for v in [s.median, s.p25, s.p75, s.min, s.max] {
            assert_eq!(v, 7.5);
        }
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    fn empty_bin_is_all_zero() {
        let s = SampleSummary::from_samples(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!((s.median, s.min, s.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn json_shape_is_byte_stable() {
        let s = SampleSummary::from_samples(&[2.0, 1.0, 3.0]);
        let emit = || {
            let mut w = JsonWriter::new();
            s.write_json(&mut w, "ms");
            w.finish()
        };
        let json = emit();
        assert_eq!(json, emit());
        for key in ["\"samples\":3", "\"median_ms\":", "\"p25_ms\":", "\"min_ms\":", "\"max_ms\":"]
        {
            assert!(json.contains(key), "summary JSON missing {key}: {json}");
        }
    }

    #[test]
    fn time_n_counts_laps_and_orders_bounds() {
        let (values, bin) = time_n(4, |k| k * k);
        assert_eq!(values, vec![0, 1, 4, 9]);
        assert_eq!(bin.samples, 4);
        assert!(bin.min <= bin.median && bin.median <= bin.max);
        assert!(bin.p25 <= bin.p75);
    }

    #[test]
    fn nproc_is_positive() {
        assert!(nproc() >= 1);
    }
}
