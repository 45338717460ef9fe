//! Scheduling-change identification (paper Sec. VII, Fig. 12).
//!
//! The system re-estimates the cycle length every 5 minutes. The resulting
//! series has obvious outliers (the frequency-domain estimator is "either
//! very accurate, or has notable errors") which a median-of-5 filter
//! removes; a *persistent* level shift in the cleaned series is a
//! scheduling change (peak/off-peak programme switch).
//!
//! [`ScheduleMonitor`] detects those shifts incrementally, in state that
//! does not grow with the number of samples: the five newest samples (the
//! reach of the median window), the detector's level and its deviation
//! run, and the confirmed events. The paper's day-over-day correction of
//! the current estimate is not applied.

use taxilight_trace::time::Timestamp;

/// Width of the centred median filter applied to the cycle series.
const WINDOW: usize = 5;

/// One monitoring sample: a periodic cycle re-estimate (or a failed one).
#[derive(Debug, Clone, Copy)]
struct MonitorSample {
    /// When the estimate was made.
    at: Timestamp,
    /// The cycle estimate; `None` when identification failed in this slot.
    cycle_s: Option<f64>,
}

/// A detected scheduling change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    /// First sample time at which the new level holds.
    pub at: Timestamp,
    /// Stable cycle before the change, seconds.
    pub from_cycle_s: f64,
    /// Stable cycle after the change, seconds.
    pub to_cycle_s: f64,
}

/// The level-shift detector over the smoothed series.
#[derive(Debug, Clone)]
struct Detector {
    tolerance_s: f64,
    /// At least 1.
    persistence: usize,
    /// Current stable level; `None` until the first valid smoothed sample.
    level: Option<f64>,
    /// Consecutive smoothed samples deviating from `level`; always shorter
    /// than the persistence between steps.
    run: Vec<(Timestamp, f64)>,
}

impl Detector {
    /// Steps over one valid smoothed sample, appending a confirmed change
    /// to `events`: a change is confirmed when `persistence` consecutive
    /// samples each deviate from the level by more than `tolerance_s`, and
    /// the new level is the median of that run.
    fn step(&mut self, at: Timestamp, c: f64, events: &mut Vec<ChangeEvent>) {
        let Some(level) = self.level else {
            self.level = Some(c);
            return;
        };
        if (c - level).abs() > self.tolerance_s {
            self.run.push((at, c));
            if self.run.len() >= self.persistence {
                let start = self.run[0].0;
                // `total_cmp` ties only identical values, so sorting in
                // place picks the same median as sorting a copy would.
                self.run.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                let new_level = self.run[self.run.len() / 2].1;
                events.push(ChangeEvent { at: start, from_cycle_s: level, to_cycle_s: new_level });
                self.level = Some(new_level);
                self.run.clear();
            }
        } else {
            self.run.clear();
        }
    }
}

/// Continuous change monitor for one light.
#[derive(Debug, Clone)]
pub struct ScheduleMonitor {
    /// The newest samples, oldest first. A slot not yet filled holds a
    /// failed sample at the start of time, which no median counts.
    recent: [MonitorSample; WINDOW],
    /// Detector state after every sample whose median window is complete.
    detector: Detector,
    /// Changes confirmed over those samples.
    events: Vec<ChangeEvent>,
}

impl ScheduleMonitor {
    /// Creates a monitor that reports a change once `persistence` (at
    /// least 1) consecutive smoothed estimates each deviate from the
    /// current stable level by more than `tolerance_s`.
    pub fn new(tolerance_s: f64, persistence: usize) -> Self {
        let persistence = persistence.max(1);
        ScheduleMonitor {
            recent: [MonitorSample { at: Timestamp(i64::MIN), cycle_s: None }; WINDOW],
            detector: Detector {
                tolerance_s,
                persistence,
                level: None,
                run: Vec::with_capacity(persistence),
            },
            events: Vec::new(),
        }
    }

    /// Appends a sample (samples must arrive in time order). Constant work;
    /// allocates only when it confirms a change.
    ///
    /// # Panics
    /// Panics when `at` is earlier than the previous sample.
    pub fn push(&mut self, at: Timestamp, cycle_s: Option<f64>) {
        assert!(at >= self.recent[WINDOW - 1].at, "monitor samples must be time-ordered");
        self.recent.copy_within(1.., 0);
        self.recent[WINDOW - 1] = MonitorSample { at, cycle_s };
        // The sample two behind the newest now has its whole window.
        if let Some(c) = self.smoothed_at(WINDOW - 3) {
            let at = self.recent[WINDOW - 3].at;
            self.detector.step(at, c, &mut self.events);
        }
    }

    /// Every scheduling change detected so far, oldest first: the
    /// confirmed ones, then any that the two newest samples confirm on
    /// their still-incomplete median windows. A later sample can withdraw
    /// one of the latter.
    pub fn changes(&self) -> Vec<ChangeEvent> {
        let mut events = self.events.clone();
        let mut detector = self.detector.clone();
        for pos in WINDOW - 2..WINDOW {
            if let Some(c) = self.smoothed_at(pos) {
                let at = self.recent[pos].at;
                detector.step(at, c, &mut events);
            }
        }
        events
    }

    /// Median of the valid samples in the centred window around
    /// `recent[pos]` (`pos` at least `WINDOW / 2`), cut off at the newest
    /// sample; `None` when that sample failed.
    fn smoothed_at(&self, pos: usize) -> Option<f64> {
        self.recent[pos].cycle_s?;
        let mut window = [0.0f64; WINDOW];
        let mut n = 0;
        for c in self.recent[pos - WINDOW / 2..].iter().filter_map(|s| s.cycle_s) {
            window[n] = c;
            n += 1;
        }
        window[..n].sort_unstable_by(f64::total_cmp);
        Some(window[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch body the monitor replaced, kept as the differential
    /// oracle: median-of-`k` filtered history, each valid sample replaced
    /// by the median of the valid samples in a centred window of `k` (odd)
    /// samples; failed slots stay `None`.
    fn smoothed(history: &[MonitorSample], k: usize) -> Vec<MonitorSample> {
        assert!(k % 2 == 1, "median window must be odd");
        let half = k / 2;
        let n = history.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let mut window: Vec<f64> = history[lo..hi].iter().filter_map(|s| s.cycle_s).collect();
            let smoothed = if window.is_empty() || history[i].cycle_s.is_none() {
                None
            } else {
                window.sort_by(f64::total_cmp);
                Some(window[window.len() / 2])
            };
            out.push(MonitorSample { at: history[i].at, cycle_s: smoothed });
        }
        out
    }

    /// The batch detector over the whole smoothed history (the oracle for
    /// [`ScheduleMonitor::changes`]).
    fn detect_changes(
        history: &[MonitorSample],
        tolerance_s: f64,
        persistence: usize,
    ) -> Vec<ChangeEvent> {
        let persistence = persistence.max(1);
        let smoothed = smoothed(history, 5);
        let valid: Vec<(Timestamp, f64)> =
            smoothed.iter().filter_map(|s| s.cycle_s.map(|c| (s.at, c))).collect();
        let mut events = Vec::new();
        let Some(&(_, first)) = valid.first() else {
            return events;
        };
        let mut level = first;
        let mut deviation_run: Vec<(Timestamp, f64)> = Vec::new();
        for &(at, c) in &valid[1..] {
            if (c - level).abs() > tolerance_s {
                deviation_run.push((at, c));
                if deviation_run.len() >= persistence {
                    // Confirmed change: new level = median of the run.
                    let mut run: Vec<f64> = deviation_run.iter().map(|p| p.1).collect();
                    run.sort_by(f64::total_cmp);
                    let new_level = run[run.len() / 2];
                    events.push(ChangeEvent {
                        at: deviation_run[0].0,
                        from_cycle_s: level,
                        to_cycle_s: new_level,
                    });
                    level = new_level;
                    deviation_run.clear();
                }
            } else {
                deviation_run.clear();
            }
        }
        events
    }

    fn t(day: u8, sod: i64) -> Timestamp {
        Timestamp::civil(2014, 5, 21 + day, 0, 0, 0).offset(sod)
    }

    /// A daily pattern: 90 s off-peak, 140 s in 7–9 h and 17–19 h, sampled
    /// every 5 min for three days, with outliers injected.
    fn three_day_series() -> Vec<MonitorSample> {
        let mut out = Vec::new();
        for day in 0..3u8 {
            for slot in 0..(86_400 / 300) {
                let sod = slot * 300;
                let hour = sod / 3600;
                let peak = (7..9).contains(&hour) || (17..19).contains(&hour);
                let mut cycle = if peak { 140.0 } else { 90.0 };
                // Deterministic outliers: every 37th slot is wildly wrong
                // (the frequency method's failure mode).
                if slot % 37 == 5 {
                    cycle = 260.0;
                }
                // Every 53rd slot fails entirely.
                let value = if slot % 53 == 11 { None } else { Some(cycle) };
                out.push(MonitorSample { at: t(day, sod as i64), cycle_s: value });
            }
        }
        out
    }

    fn monitor_of(
        series: &[MonitorSample],
        tolerance_s: f64,
        persistence: usize,
    ) -> ScheduleMonitor {
        let mut m = ScheduleMonitor::new(tolerance_s, persistence);
        for s in series {
            m.push(s.at, s.cycle_s);
        }
        m
    }

    /// `(at, from, to)` bit patterns, so NaN levels compare too.
    fn bits(events: &[ChangeEvent]) -> Vec<(i64, u64, u64)> {
        events.iter().map(|e| (e.at.0, e.from_cycle_s.to_bits(), e.to_cycle_s.to_bits())).collect()
    }

    #[test]
    fn push_requires_time_order() {
        let mut m = ScheduleMonitor::new(20.0, 2);
        m.push(Timestamp(100), Some(90.0));
        m.push(Timestamp(100), Some(90.0)); // equal is fine
        let result = std::panic::catch_unwind(move || {
            m.push(Timestamp(50), Some(90.0));
        });
        assert!(result.is_err());
    }

    #[test]
    fn smoothing_removes_isolated_outliers() {
        let series = three_day_series();
        let smoothed = smoothed(&series, 5);
        // No smoothed valid value should be near the 260 s outlier level.
        for s in &smoothed {
            if let Some(c) = s.cycle_s {
                assert!(c < 200.0, "outlier survived smoothing: {c}");
            }
        }
        // Failed slots stay None.
        let raw_none = series.iter().filter(|s| s.cycle_s.is_none()).count();
        let smooth_none = smoothed.iter().filter(|s| s.cycle_s.is_none()).count();
        assert_eq!(raw_none, smooth_none);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn smoothing_rejects_even_window() {
        smoothed(&three_day_series(), 4);
    }

    #[test]
    fn detects_the_daily_program_switches() {
        let series = three_day_series();
        let events = monitor_of(&series, 20.0, 3).changes();
        assert_eq!(bits(&events), bits(&detect_changes(&series, 20.0, 3)));
        // 3 days × 4 switches (off→peak, peak→off, twice a day).
        assert_eq!(events.len(), 12, "events: {events:?}");
        // Alternating directions.
        for (k, e) in events.iter().enumerate() {
            if k % 2 == 0 {
                assert!(e.to_cycle_s > e.from_cycle_s, "event {k} should rise");
            } else {
                assert!(e.to_cycle_s < e.from_cycle_s, "event {k} should fall");
            }
            assert!((e.from_cycle_s - e.to_cycle_s).abs() > 20.0);
        }
        // First morning switch lands near 07:00 on day one.
        let first = events[0].at;
        let sod = first.seconds_of_day();
        assert!((sod as i64 - 7 * 3600).abs() <= 900, "first switch at {sod}s of day");
    }

    #[test]
    fn no_false_changes_on_stable_schedule() {
        let mut m = ScheduleMonitor::new(20.0, 3);
        for slot in 0..200 {
            // Static 106 s light with small estimation jitter and outliers.
            let jitter = ((slot * 7) % 5) as f64 - 2.0;
            let cycle = if slot % 31 == 3 { 230.0 } else { 106.0 + jitter };
            m.push(Timestamp(slot as i64 * 300), Some(cycle));
        }
        assert!(m.changes().is_empty());
    }

    #[test]
    fn single_sample_history_detects_nothing() {
        let mut m = ScheduleMonitor::new(20.0, 2);
        m.push(Timestamp(0), Some(96.0));
        assert!(m.changes().is_empty());
        // And a single *failed* sample is equally quiet.
        let mut f = ScheduleMonitor::new(20.0, 2);
        f.push(Timestamp(0), None);
        assert!(f.changes().is_empty());
    }

    #[test]
    fn identical_consecutive_schedules_never_flag_a_change() {
        let mut exact = ScheduleMonitor::new(0.0, 1);
        let mut m = ScheduleMonitor::new(20.0, 2);
        for k in 0..50i64 {
            exact.push(Timestamp(k * 300), Some(120.0));
            m.push(Timestamp(k * 300), Some(120.0));
        }
        assert!(exact.changes().is_empty(), "zero tolerance, exact repeats");
        assert!(m.changes().is_empty());
    }

    #[test]
    fn change_on_reidentification_boundary_is_attributed_to_it() {
        // The programme switches exactly at a re-identification instant:
        // every sample up to (and excluding) the boundary sees the old
        // cycle, the boundary sample itself already sees the new one.
        let boundary = 25i64;
        let mut m = ScheduleMonitor::new(20.0, 2);
        for k in 0..50i64 {
            let cycle = if k < boundary { 90.0 } else { 140.0 };
            m.push(Timestamp(k * 300), Some(cycle));
        }
        let events = m.changes();
        assert_eq!(events.len(), 1, "{events:?}");
        let e = events[0];
        assert!((e.from_cycle_s - 90.0).abs() < 1.0);
        assert!((e.to_cycle_s - 140.0).abs() < 1.0);
        // The median-5 smoother can smear the onset by up to two slots;
        // the event must land within that halo of the true boundary.
        let err = (e.at.0 - boundary * 300).abs();
        assert!(err <= 2 * 300, "event at {:?}, boundary {}", e.at, boundary * 300);
    }

    #[test]
    fn a_tentative_change_can_be_withdrawn() {
        // Two high samples confirm a change on truncated windows; the
        // next two low samples complete those windows and withdraw it,
        // exactly as the batch detector over the longer history does.
        let mut history = Vec::new();
        let mut m = ScheduleMonitor::new(20.0, 2);
        let mut seen = Vec::new();
        for (k, c) in [90.0, 90.0, 90.0, 90.0, 150.0, 150.0, 90.0, 90.0].into_iter().enumerate() {
            let s = MonitorSample { at: Timestamp(k as i64 * 300), cycle_s: Some(c) };
            history.push(s);
            m.push(s.at, s.cycle_s);
            assert_eq!(bits(&m.changes()), bits(&detect_changes(&history, 20.0, 2)));
            seen.push(m.changes().len());
        }
        assert_eq!(seen, [0, 0, 0, 0, 0, 1, 1, 0]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Level segments with jitter, exact repeats (median ties), failed
        /// slots, outliers and the odd NaN; timestamps advance by 0–600 s.
        /// Half the segments sit on a 10 s grid, so level steps of exactly
        /// a grid tolerance occur.
        fn series() -> impl Strategy<Value = Vec<MonitorSample>> {
            (
                prop::collection::vec((60.0f64..200.0, 0u8..2, 1usize..25), 1..6),
                prop::collection::vec((0u8..40, -4.0f64..4.0, 20.0f64..320.0, 0i64..600), 64),
            )
                .prop_map(|(segments, noise)| {
                    let mut out: Vec<MonitorSample> = Vec::new();
                    let mut at = 0i64;
                    for (level, on_grid, len) in segments {
                        let level =
                            if on_grid == 1 { (level / 10.0).round() * 10.0 } else { level };
                        for _ in 0..len {
                            let (kind, jitter, outlier, dt) = noise[out.len() % noise.len()];
                            let cycle_s = match kind {
                                0..=5 => None,
                                6..=9 => Some(outlier),
                                10..=19 => Some(level),
                                20 => Some(f64::NAN),
                                _ => Some(level + jitter),
                            };
                            at += dt;
                            out.push(MonitorSample { at: Timestamp(at), cycle_s });
                        }
                    }
                    out
                })
        }

        proptest! {
            #[test]
            fn changes_match_the_batch_detector_after_every_push(
                history in series(),
                tolerance_s in (0u8..8, 0.0f64..30.0)
                    .prop_map(|(k, t)| if k < 4 { 10.0 * f64::from(k) } else { t }),
                persistence in 0usize..5,
            ) {
                let mut m = ScheduleMonitor::new(tolerance_s, persistence);
                // The stream `RealtimeIdentifier::reidentify` emits: each
                // round, the events past the count already reported.
                let (mut emitted, mut expected) = (Vec::new(), Vec::new());
                let (mut reported, mut expected_reported) = (0, 0);
                for k in 0..history.len() {
                    m.push(history[k].at, history[k].cycle_s);
                    let events = m.changes();
                    let oracle = detect_changes(&history[..=k], tolerance_s, persistence);
                    prop_assert_eq!(bits(&events), bits(&oracle), "after push {}", k);
                    emitted.extend(events.iter().skip(reported).copied());
                    reported = events.len();
                    expected.extend(oracle.iter().skip(expected_reported).copied());
                    expected_reported = oracle.len();
                }
                prop_assert_eq!(bits(&emitted), bits(&expected));
            }

            #[test]
            fn smoothed_preserves_shape(values in prop::collection::vec(
                prop::option::of(60.0f64..200.0), 1..80)) {
                let history: Vec<MonitorSample> = values
                    .iter()
                    .enumerate()
                    .map(|(k, &cycle_s)| MonitorSample { at: Timestamp(k as i64 * 300), cycle_s })
                    .collect();
                let smoothed = smoothed(&history, 5);
                prop_assert_eq!(smoothed.len(), values.len());
                for (raw, s) in values.iter().zip(&smoothed) {
                    prop_assert_eq!(raw.is_none(), s.cycle_s.is_none());
                }
            }

            #[test]
            fn constant_series_with_sparse_outliers_yields_no_changes(
                base in 60.0f64..200.0,
                outlier_seeds in prop::collection::btree_set(1usize..11, 0..4),
            ) {
                // Isolated outliers, spaced ≥5 slots apart and away from
                // the series boundary (the median-5 filter needs full
                // neighbourhoods; an outlier in the very first window can
                // legitimately poison the initial level — the detector's
                // documented warm-up sensitivity).
                let outlier_slots: std::collections::BTreeSet<usize> =
                    outlier_seeds.iter().map(|s| s * 5).collect();
                let mut m = ScheduleMonitor::new(base * 0.2, 3);
                for k in 0..60usize {
                    let v = if outlier_slots.contains(&k) { base * 3.0 } else { base };
                    m.push(Timestamp(k as i64 * 300), Some(v));
                }
                prop_assert!(m.changes().is_empty());
            }
        }
    }
}
