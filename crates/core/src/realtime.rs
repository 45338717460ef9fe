//! Real-time streaming identification — the deployment shape the paper's
//! title promises.
//!
//! [`RealtimeIdentifier`] consumes raw taxi records as they arrive from
//! the fleet feed, map-matches and partitions them incrementally, keeps a
//! sliding per-light window, re-identifies on a fixed cadence (the
//! paper's 5-minute monitoring loop), and feeds each light's estimates to
//! a [`ScheduleMonitor`] so scheduling changes surface as they happen. At
//! any instant the current best schedule of any light is queryable in
//! O(1).

use crate::config::{ConfigError, IdentifyConfig};
use crate::engine::{Identifier, IdentifyRequest};
use crate::health::HealthRegistry;
use crate::monitor::{ChangeEvent, ScheduleMonitor};
use crate::pipeline::LightSchedule;
use crate::preprocess::{LightObs, PartitionedTraces, Preprocessor};
use crate::view::ScheduleView;
use rayon::prelude::*;
use std::collections::BTreeMap;
use taxilight_obs::metrics::{self, Counter, Gauge, MetricClass};
use taxilight_obs::{event, span};
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_trace::io::TraceFileError;
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::source::{RecordBatch, RecordSource};
use taxilight_trace::time::Timestamp;

/// Intake and round statistics of a [`RealtimeIdentifier`], as of the most
/// recent re-identification round. Returned by
/// [`RealtimeIdentifier::round_report`].
///
/// The counters are cumulative over the engine's lifetime; the per-round
/// fields describe the latest round only. All values derive from the feed
/// clock (record timestamps), never the wall clock, so a replayed feed
/// reproduces the report exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundReport {
    /// Instant of the most recent round, `None` before the first fires.
    pub at: Option<Timestamp>,
    /// Rounds fired so far.
    pub rounds: u64,
    /// Lights the latest round attempted (buffered lights at round time).
    pub lights_attempted: usize,
    /// Lights the latest round successfully identified.
    pub lights_identified: usize,
    /// Matched records discarded as (taxi, timestamp) duplicates.
    pub records_deduped_total: u64,
    /// Matched records discarded because they arrived *after* the round
    /// whose window they belonged to — older than the retained horizon.
    /// Before this counter existed such records were silently buffered and
    /// evicted unused; now the loss is visible so operators can widen
    /// [`reorder_grace_s`](RealtimeBuilder::reorder_grace_s).
    pub out_of_grace_total: u64,
    /// Feed-clock seconds between the newest record seen and the latest
    /// round instant — how far the watermark had to run past the round
    /// before it fired (≥ the reorder grace once rounds are firing).
    pub watermark_lag_s: f64,
}

/// Streaming identification engine for one city.
///
/// All per-light state lives in `BTreeMap`s so every drain path iterates
/// in light-id order — output never depends on hash iteration order.
pub struct RealtimeIdentifier<'a> {
    net: &'a RoadNetwork,
    pre: Preprocessor<'a>,
    cfg: IdentifyConfig,
    /// The batch engine every round routes through. Built once so its
    /// workspace pool — FFT plans, scratch buffers — persists across
    /// rounds: steady-state re-identification allocates nothing on the
    /// cycle/DFT path.
    engine: Identifier<'a>,
    /// Re-identification cadence (the paper's 5 minutes).
    interval_s: u32,
    /// Extra feed-clock slack before a due round fires, to let records
    /// delayed in transit arrive. See [`reorder_grace_s`].
    ///
    /// [`reorder_grace_s`]: RealtimeBuilder::reorder_grace_s
    reorder_grace_s: u32,
    /// Whether any round has fired yet (fixes the round schedule).
    started: bool,
    /// Sliding per-light observation buffers, time-ordered, deduplicated
    /// by (taxi, timestamp).
    buffers: BTreeMap<u32, Vec<LightObs>>,
    /// Latest successful schedule per light.
    current: BTreeMap<u32, LightSchedule>,
    /// Scheduling-change monitors per light.
    monitors: BTreeMap<u32, ScheduleMonitor>,
    /// Newly detected scheduling changes since the last drain.
    pending_changes: Vec<(LightId, ChangeEvent)>,
    /// Change counts already reported per light.
    reported_changes: BTreeMap<u32, usize>,
    /// Per-light health accumulated round by round (confidence, grade,
    /// freshness, failure reasons) — feed-clock deterministic.
    health: HealthRegistry,
    /// Next scheduled re-identification instant.
    next_run: Option<Timestamp>,
    /// Newest record time seen (the feed watermark).
    now: Option<Timestamp>,
    /// Oldest record time seen (anchors the first round).
    earliest: Option<Timestamp>,
    /// Instant of the most recent fired round.
    last_round_at: Option<Timestamp>,
    /// Rounds fired so far.
    rounds: u64,
    /// Lights attempted / identified by the latest round.
    last_round_attempted: usize,
    last_round_identified: usize,
    /// Cumulative matched records dropped as duplicates.
    deduped_total: u64,
    /// Cumulative matched records dropped as older than the retained
    /// horizon of the last round (see [`RoundReport::out_of_grace_total`]).
    out_of_grace_total: u64,
    /// Registry mirrors of the intake counters and the watermark gauge.
    dedup_counter: Counter,
    out_of_grace_counter: Counter,
    watermark_lag_gauge: Gauge,
}

/// Validating builder for [`RealtimeIdentifier`], consistent with
/// [`IdentifyConfig::builder`]: every setter is infallible and
/// [`build`](RealtimeBuilder::build) runs the full validation once —
/// degenerate configs and a zero interval surface as a [`ConfigError`]
/// at construction instead of a panic deep inside the round loop.
#[derive(Debug, Clone)]
pub struct RealtimeBuilder<'a> {
    net: &'a RoadNetwork,
    cfg: IdentifyConfig,
    interval_s: u32,
    reorder_grace_s: u32,
}

impl<'a> RealtimeBuilder<'a> {
    /// Identification configuration (defaults to the paper setup).
    pub fn config(mut self, cfg: IdentifyConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Re-identification cadence in seconds (default: the paper's 300).
    pub fn interval_s(mut self, v: u32) -> Self {
        self.interval_s = v;
        self
    }

    /// Reorder grace in feed-clock seconds (default 0): a round due at
    /// `t` only fires once the watermark passes `t + grace`, giving
    /// records delayed in transit that long to arrive. With a grace
    /// covering the feed's worst reordering, a shuffled feed reproduces
    /// the clean feed's schedules exactly (rounds still analyse the
    /// window ending at `t`).
    pub fn reorder_grace_s(mut self, v: u32) -> Self {
        self.reorder_grace_s = v;
        self
    }

    /// Validates and builds the streaming engine.
    pub fn build(self) -> Result<RealtimeIdentifier<'a>, ConfigError> {
        self.cfg.validate()?;
        if self.interval_s == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        let mut rt = RealtimeIdentifier::new(self.net, self.cfg, self.interval_s);
        rt.reorder_grace_s = self.reorder_grace_s;
        Ok(rt)
    }
}

impl<'a> RealtimeIdentifier<'a> {
    /// Starts a validating builder over `net`, pre-loaded with the paper
    /// defaults (default config, 300 s interval, no reorder grace).
    pub fn builder(net: &'a RoadNetwork) -> RealtimeBuilder<'a> {
        RealtimeBuilder { net, cfg: IdentifyConfig::default(), interval_s: 300, reorder_grace_s: 0 }
    }

    /// Creates the engine. `interval_s` is the re-identification cadence.
    /// Prefer [`builder`](RealtimeIdentifier::builder), which reports
    /// degenerate values as a [`ConfigError`] instead of panicking.
    ///
    /// # Panics
    /// Panics when `interval_s` is zero.
    pub fn new(net: &'a RoadNetwork, cfg: IdentifyConfig, interval_s: u32) -> Self {
        assert!(interval_s > 0, "re-identification interval must be positive");
        RealtimeIdentifier {
            net,
            pre: Preprocessor::new(net, cfg.clone()),
            engine: Identifier::new_unchecked(net, cfg.clone()),
            cfg,
            interval_s,
            reorder_grace_s: 0,
            started: false,
            buffers: BTreeMap::new(),
            current: BTreeMap::new(),
            monitors: BTreeMap::new(),
            pending_changes: Vec::new(),
            reported_changes: BTreeMap::new(),
            health: HealthRegistry::new(),
            next_run: None,
            now: None,
            earliest: None,
            last_round_at: None,
            rounds: 0,
            last_round_attempted: 0,
            last_round_identified: 0,
            deduped_total: 0,
            out_of_grace_total: 0,
            dedup_counter: metrics::global().counter(
                "taxilight_realtime_records_deduped_total",
                &[],
                MetricClass::Deterministic,
                "Matched records dropped as (taxi, timestamp) duplicates",
            ),
            out_of_grace_counter: metrics::global().counter(
                "taxilight_realtime_out_of_grace_total",
                &[],
                MetricClass::Deterministic,
                "Matched records dropped for arriving after their window's round",
            ),
            watermark_lag_gauge: metrics::global().gauge(
                "taxilight_realtime_watermark_lag_s",
                &[],
                MetricClass::Deterministic,
                "Feed-clock seconds between the watermark and the latest round instant",
            ),
        }
    }

    /// Feeds one raw record. Records may arrive out of order (network
    /// delay) or duplicated (at-least-once upload); buffers stay
    /// time-sorted and deduplicated by (taxi, timestamp), and
    /// re-identification fires once the feed watermark passes the next
    /// scheduled instant plus the reorder grace.
    pub fn push(&mut self, record: &TaxiRecord) {
        let matched = self.pre.match_record(record);
        self.ingest(record.time, matched);
    }

    /// Sequential half of record intake: buffer the (already map-matched)
    /// observation, advance the watermark, fire due rounds. Splitting this
    /// from the pure matching step lets [`extend`] amortize map matching
    /// over a whole batch while keeping intake semantics identical to
    /// push-by-push — including rounds that fire mid-batch.
    ///
    /// [`extend`]: RealtimeIdentifier::extend
    fn ingest(&mut self, t: Timestamp, matched: Option<(LightId, LightObs)>) {
        if let Some((light, obs)) = matched {
            // A record older than the last round's retained horizon can
            // never enter a future window: buffering it would only feed
            // the next eviction. Count the loss instead of hiding it.
            let horizon = self.last_round_at.map(|r| r.offset(-(self.cfg.window_s as i64) - 60));
            if horizon.is_some_and(|h| obs.time < h) {
                self.out_of_grace_total += 1;
                self.out_of_grace_counter.inc();
                event!("realtime.out_of_grace", light = light.0);
            } else {
                let buf = self.buffers.entry(light.0).or_default();
                // Insert keeping time order (near-append in practice). All
                // equal-time observations sit directly before `pos`, so the
                // duplicate scan is O(taxis reporting this second).
                let pos = buf.partition_point(|o| o.time <= obs.time);
                let duplicate = buf[..pos]
                    .iter()
                    .rev()
                    .take_while(|o| o.time == obs.time)
                    .any(|o| o.taxi == obs.taxi);
                if !duplicate {
                    buf.insert(pos, obs);
                } else {
                    self.deduped_total += 1;
                    self.dedup_counter.inc();
                }
            }
        }
        if self.now.is_none_or(|n| t > n) {
            self.now = Some(t);
        }
        if self.earliest.is_none_or(|e| t < e) {
            self.earliest = Some(t);
        }
        self.run_due_rounds();
    }

    /// Fires every round whose due instant the watermark has passed (plus
    /// grace). The first due instant derives from the *earliest* record
    /// time — not arrival order — so a reordered feed schedules the same
    /// rounds as the clean one; afterwards rounds advance on the fixed
    /// cadence, catching up in a loop across feed gaps.
    fn run_due_rounds(&mut self) {
        let Some(now) = self.now else { return };
        if !self.started {
            let Some(earliest) = self.earliest else { return };
            self.next_run = Some(earliest.offset(self.cfg.window_s as i64));
        }
        while let Some(due) = self.next_run {
            if now.delta(due) < self.reorder_grace_s as i64 {
                break;
            }
            self.started = true;
            self.reidentify(due);
            self.next_run = Some(due.offset(self.interval_s as i64));
        }
    }

    /// Feeds a batch of records.
    ///
    /// Map matching — the spatial-index lookup dominating per-record intake
    /// cost — is a pure function of the record, so the whole batch is
    /// matched up front in parallel and the results ingested sequentially.
    /// This is observably identical to pushing record by record (the
    /// watermark advances per record, so rounds still fire mid-batch at
    /// exactly the same points), just cheaper.
    pub fn extend<'r>(&mut self, records: impl IntoIterator<Item = &'r TaxiRecord>) {
        let batch: Vec<&TaxiRecord> = records.into_iter().collect();
        let matched: Vec<(Timestamp, Option<(LightId, LightObs)>)> = {
            let pre = &self.pre;
            batch.into_par_iter().map(|r| (r.time, pre.match_record(r))).collect()
        };
        for (t, m) in matched {
            self.ingest(t, m);
        }
    }

    /// Feeds an entire bounded-memory [`RecordSource`] — the out-of-core
    /// intake for city-day feeds that never fit in RAM.
    ///
    /// Each batch goes through the same matched-in-parallel /
    /// ingested-sequentially path as [`extend`], and the batch split is
    /// invisible: for the same record sequence, any chunk size produces
    /// the same rounds, schedules and [`round_report`] as one giant
    /// `extend` or push-by-push — pinned by `tests/stream_equivalence.rs`.
    /// Resident memory is `O(chunk) + O(window)`: the sliding buffers'
    /// eviction horizon caps per-light state independent of feed length.
    ///
    /// Returns the number of records consumed (decoded records, not
    /// rejected lines — those stay with the source).
    ///
    /// [`extend`]: RealtimeIdentifier::extend
    /// [`round_report`]: RealtimeIdentifier::round_report
    pub fn extend_source<S: RecordSource>(&mut self, src: &mut S) -> Result<u64, TraceFileError> {
        let mut batch = RecordBatch::new();
        let mut consumed = 0u64;
        loop {
            let more = src.next_batch(&mut batch)?;
            if !batch.records.is_empty() {
                consumed += batch.records.len() as u64;
                self.extend(batch.records.iter());
            }
            if !more {
                break;
            }
        }
        Ok(consumed)
    }

    /// Runs one re-identification round at `at` over every buffered light
    /// and updates the monitors. Called automatically by [`push`]; public
    /// so callers with their own clock can force a round.
    ///
    /// [`push`]: RealtimeIdentifier::push
    pub fn reidentify(&mut self, at: Timestamp) {
        let _round_span = span!("realtime.round", at = at.0, lights = self.buffers.len());
        // The round counter this round's successes publish under (the
        // schedule-view version) and the analysis window it examined.
        let round = self.rounds + 1;
        let window_start = at.offset(-(self.cfg.window_s as i64));
        let horizon = at.offset(-(self.cfg.window_s as i64) - 60);
        // Evict observations that fell out of every future window.
        for buf in self.buffers.values_mut() {
            let keep_from = buf.partition_point(|o| o.time < horizon);
            buf.drain(..keep_from);
        }

        // Assemble a PartitionedTraces view over the buffers.
        let parts = PartitionedTraces::from_buckets(
            self.net.light_count(),
            self.buffers.iter().map(|(&id, obs)| (LightId(id), obs.as_slice())),
        );

        // BTreeMap keys iterate in light-id order; the engine returns
        // results in the same ascending order, so per-round processing
        // order — and the order of surfaced change events — is stable.
        // Consensus is off for Many-selections, preserving the historical
        // per-round behaviour (each light judged on its own data).
        let lights: Vec<LightId> = self.buffers.keys().map(|&id| LightId(id)).collect();
        let req = IdentifyRequest::many(at, lights);
        let mut attempted = 0usize;
        let mut identified = 0usize;
        for (light, result) in self.engine.run(&parts, &req).results {
            attempted += 1;
            identified += result.is_ok() as usize;
            let cycle = result.as_ref().ok().map(|e| e.cycle_s);
            if let Ok(est) = &result {
                self.current.insert(light.0, *est);
            }
            let monitor =
                self.monitors.entry(light.0).or_insert_with(|| ScheduleMonitor::new(20.0, 2));
            monitor.push(at, cycle);
            // Surface any newly confirmed scheduling changes.
            let events = monitor.changes();
            let reported = self.reported_changes.entry(light.0).or_insert(0);
            for e in events.iter().skip(*reported) {
                self.pending_changes.push((light, *e));
            }
            *reported = events.len();
            // Fold this round's outcome into the light's health record:
            // window quality, confidence on success, reason on failure.
            let quality = crate::quality::assess(&parts, light, window_start, at, &self.cfg);
            self.health.record_round(light, round, at, &result, &quality, events.len() as u64);
        }
        self.last_round_at = Some(at);
        self.rounds += 1;
        self.last_round_attempted = attempted;
        self.last_round_identified = identified;
        let lag_s = self.now.map(|n| n.delta(at) as f64).unwrap_or(0.0);
        self.watermark_lag_gauge.set(lag_s);
        event!(
            "realtime.round_done",
            at = at.0,
            attempted = attempted,
            identified = identified,
            watermark_lag_s = lag_s
        );
    }

    /// Intake and round statistics as of the most recent round. The
    /// counters also feed the process-wide metrics registry
    /// (`taxilight_realtime_*`); this report is the per-instance view.
    pub fn round_report(&self) -> RoundReport {
        RoundReport {
            at: self.last_round_at,
            rounds: self.rounds,
            lights_attempted: self.last_round_attempted,
            lights_identified: self.last_round_identified,
            records_deduped_total: self.deduped_total,
            out_of_grace_total: self.out_of_grace_total,
            watermark_lag_s: match (self.now, self.last_round_at) {
                (Some(n), Some(at)) => n.delta(at) as f64,
                _ => 0.0,
            },
        }
    }

    /// The latest identified schedule of `light`, if any round succeeded.
    pub fn schedule(&self, light: LightId) -> Option<&LightSchedule> {
        self.current.get(&light.0)
    }

    /// Every light's latest schedule, in light-id order.
    pub fn schedules(&self) -> impl Iterator<Item = (LightId, &LightSchedule)> {
        self.current.iter().map(|(&id, s)| (LightId(id), s))
    }

    /// Estimated wait for green at `light` if arriving at `t`; `None`
    /// when the light has no schedule yet.
    pub fn wait_for_green(&self, light: LightId, t: Timestamp) -> Option<f64> {
        self.schedule(light).map(|s| s.wait_for_green(t))
    }

    /// Drains scheduling-change events detected since the last call,
    /// sorted by `(timestamp, LightId)`.
    ///
    /// Rounds surface events per light in light-id order, so after a
    /// multi-round catch-up the raw buffer interleaves timestamps across
    /// lights; the sort makes drained pages deterministic and
    /// chronological regardless of how many rounds ran between drains —
    /// the order the serving daemon's change-history pages rely on.
    pub fn take_changes(&mut self) -> Vec<(LightId, ChangeEvent)> {
        let mut changes = std::mem::take(&mut self.pending_changes);
        changes.sort_by_key(|(l, e)| (e.at, l.0));
        changes
    }

    /// The per-light change monitor, if the light ever reported.
    pub fn monitor(&self, light: LightId) -> Option<&ScheduleMonitor> {
        self.monitors.get(&light.0)
    }

    /// Per-light health accumulated across rounds: quality grade,
    /// estimate confidence (SNR), last-identified version and
    /// event-time, failure-reason counts. Like every other output of
    /// this engine it derives from the feed clock only, so a replayed
    /// feed reproduces it bit-for-bit.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// The engine's shared map-matching stage — e.g. for its lifetime
    /// reject-reason totals ([`Preprocessor::cumulative_stats`]).
    pub fn preprocessor(&self) -> &Preprocessor<'a> {
        &self.pre
    }

    /// Number of lights currently holding buffered observations.
    pub fn buffered_lights(&self) -> usize {
        self.buffers.len()
    }

    /// Total buffered observations.
    pub fn buffered_observations(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Takes an immutable, versioned [`ScheduleView`] snapshot of every
    /// light's latest schedule — the read-only query surface shared by
    /// the serving daemon, navsim and eval.
    ///
    /// The view is a point-in-time copy (one allocation per snapshot,
    /// typically once per round): queries against it never borrow the
    /// identifier, so readers and the round loop proceed independently.
    /// `version` is the round counter and `at` the latest round instant,
    /// making any two snapshots of the same feed position bit-comparable
    /// via [`ScheduleView::digest`].
    pub fn view(&self) -> ScheduleView {
        // BTreeMap iteration is ascending — the sorted fast path.
        ScheduleView::from_sorted(
            self.rounds,
            self.last_round_at,
            self.current.iter().map(|(&id, s)| (LightId(id), *s)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxilight_roadnet::generators::{grid_city, GridConfig};
    use taxilight_sim::lights::{IntersectionPlan, PhasePlan, SignalMap};
    use taxilight_sim::sim::{SimConfig, Simulator};

    fn world(
    ) -> (taxilight_roadnet::generators::GeneratedCity, SignalMap, Vec<TaxiRecord>, Timestamp) {
        let city =
            grid_city(&GridConfig { rows: 3, cols: 3, spacing_m: 600.0, ..GridConfig::default() });
        let mut signals = SignalMap::new();
        let plan = PhasePlan::new(96, 42, 11);
        for &ix in &city.intersections {
            signals.install_intersection(&city.net, ix, IntersectionPlan { ns: plan });
        }
        let start = Timestamp::civil(2014, 12, 5, 9, 0, 0);
        let mut sim = Simulator::new(
            &city.net,
            &signals,
            SimConfig {
                taxi_count: 130,
                start,
                seed: 31,
                hourly_activity: [1.0; 24],
                ..SimConfig::default()
            },
        );
        sim.run(5000);
        let (log, _) = sim.into_log();
        // A live feed arrives in (rough) chronological order, not grouped
        // per taxi the way `into_records` sorts.
        let mut records = log.into_records();
        records.sort_by_key(|r| r.time);
        (city, signals, records, start)
    }

    #[test]
    fn streaming_identifies_after_warmup() {
        let (city, signals, records, start) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        engine.extend(records.iter());
        assert!(engine.buffered_lights() > 0);
        assert!(engine.buffered_observations() > 0);

        // After a full window plus a couple of intervals, at least one
        // light must carry a schedule near the truth.
        let mut good = 0;
        let mut total = 0;
        for light in city.net.lights() {
            if let Some(est) = engine.schedule(light.id) {
                total += 1;
                let truth = signals.plan(light.id, start.offset(4000));
                if (est.cycle_s - truth.cycle_s as f64).abs() < 6.0 {
                    good += 1;
                }
            }
        }
        assert!(total >= 2, "streaming engine identified {total} lights");
        assert!(good >= 1, "{good}/{total} near truth");
    }

    #[test]
    fn wait_for_green_is_queryable() {
        let (city, _signals, records, start) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        engine.extend(records.iter());
        let lit = city.net.lights().iter().map(|l| l.id).find(|&l| engine.schedule(l).is_some());
        let Some(light) = lit else {
            panic!("no schedule identified");
        };
        let w = engine.wait_for_green(light, start.offset(4500)).unwrap();
        assert!((0.0..=300.0).contains(&w));
        assert!(engine.monitor(light).is_some());
        assert!(engine.wait_for_green(LightId(9999), start).is_none());
    }

    #[test]
    fn eviction_bounds_memory() {
        let (city, _signals, records, _) = world();
        let cfg = IdentifyConfig { window_s: 1200, ..IdentifyConfig::default() };
        let mut engine = RealtimeIdentifier::new(&city.net, cfg, 300);
        engine.extend(records.iter());
        // Buffers must hold roughly a window of data, not the whole feed.
        let per_light = engine.buffered_observations() / engine.buffered_lights().max(1);
        // The 1260 s retained horizon holds at most ~a quarter of the
        // 5000 s feed; without eviction the busiest approaches would hold
        // 4× this.
        assert!(per_light < 700, "per-light buffer {per_light} — eviction broken?");
    }

    #[test]
    fn out_of_order_records_are_tolerated() {
        let (city, _signals, mut records, _) = world();
        // Shuffle lightly: swap adjacent pairs (network jitter).
        for k in (0..records.len() - 1).step_by(2) {
            records.swap(k, k + 1);
        }
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        engine.extend(records.iter());
        // Buffers stay time-sorted despite the jitter.
        let parts_ok = city.net.lights().iter().all(|l| {
            engine
                .buffers
                .get(&l.id.0)
                .map(|b| b.windows(2).all(|w| w[0].time <= w[1].time))
                .unwrap_or(true)
        });
        assert!(parts_ok, "buffers lost time order");
    }

    #[test]
    fn shuffled_and_duplicated_feed_matches_clean_schedules() {
        use taxilight_trace::corrupt::{corrupt_records, CorruptOp};
        let (city, _signals, records, _) = world();
        // The grace must cover the worst reordering: a window of 15
        // positions at ~6 records/s is well inside 60 s of slack.
        let mut clean = RealtimeIdentifier::builder(&city.net).reorder_grace_s(60).build().unwrap();
        clean.extend(records.iter());

        let dirty = corrupt_records(
            &records,
            &[CorruptOp::Duplicate { prob: 0.3 }, CorruptOp::Shuffle { window: 15 }],
            77,
        );
        assert!(dirty.len() > records.len());
        let mut noisy = RealtimeIdentifier::builder(&city.net).reorder_grace_s(60).build().unwrap();
        noisy.extend(dirty.iter());

        let a: Vec<(LightId, LightSchedule)> = clean.schedules().map(|(l, s)| (l, *s)).collect();
        let b: Vec<(LightId, LightSchedule)> = noisy.schedules().map(|(l, s)| (l, *s)).collect();
        assert!(!a.is_empty(), "clean feed identified nothing");
        assert_eq!(a, b, "shuffled+duplicated feed diverged from clean feed");
    }

    #[test]
    fn duplicate_records_are_deduplicated() {
        let (city, _signals, records, _) = world();
        let mut once = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        once.extend(records.iter());
        let mut twice = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        for r in &records {
            twice.push(r);
            twice.push(r);
        }
        assert_eq!(once.buffered_observations(), twice.buffered_observations());
        let a: Vec<(LightId, LightSchedule)> = once.schedules().map(|(l, s)| (l, *s)).collect();
        let b: Vec<(LightId, LightSchedule)> = twice.schedules().map(|(l, s)| (l, *s)).collect();
        assert_eq!(a, b);
        // The drop is counted, not silent: every matched duplicate of the
        // doubled feed shows up in the report; the clean feed drops none.
        assert_eq!(once.round_report().records_deduped_total, 0);
        assert!(twice.round_report().records_deduped_total > 0);
    }

    #[test]
    fn round_report_tracks_rounds_and_watermark() {
        let (city, _signals, records, _) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        assert_eq!(engine.round_report().rounds, 0);
        assert_eq!(engine.round_report().at, None);
        engine.extend(records.iter());
        let report = engine.round_report();
        assert!(report.rounds >= 1, "no round fired over a 5000 s feed");
        assert!(report.at.is_some());
        assert!(report.lights_attempted > 0);
        assert!(report.lights_identified <= report.lights_attempted);
        // Feed clock only: the watermark can never trail the round it fired.
        assert!(report.watermark_lag_s >= 0.0);
        assert!(report.watermark_lag_s < 300.0 + 1.0, "lag {}", report.watermark_lag_s);
    }

    #[test]
    fn out_of_grace_records_are_counted_not_buffered() {
        let (city, _signals, records, start) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        engine.extend(records.iter());
        assert!(engine.round_report().rounds >= 1);
        assert_eq!(engine.round_report().out_of_grace_total, 0);
        let buffered = engine.buffered_observations();
        // Replay the very first matched record far behind the last round's
        // horizon: it must be counted and must not re-enter the buffers.
        let mut stale = None;
        for r in &records {
            if engine.pre.match_record(r).is_some() {
                stale = Some(*r);
                break;
            }
        }
        let mut stale = stale.expect("feed contains matched records");
        stale.time = start.offset(-10_000);
        engine.push(&stale);
        assert_eq!(engine.round_report().out_of_grace_total, 1);
        assert_eq!(engine.buffered_observations(), buffered);
    }

    #[test]
    fn feed_gap_catches_up_with_multiple_rounds() {
        let (city, _signals, records, _) = world();
        // Deliver the first half, then jump the clock far ahead: the
        // catch-up loop must fire every intermediate round, not just one.
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        let half = records.len() / 2;
        engine.extend(records[..half].iter());
        let before = engine.round_report().rounds;
        let mut last = *records.last().unwrap();
        last.time = last.time.offset(3600);
        engine.push(&last);
        let caught_up = engine.round_report().rounds - before;
        assert!(caught_up >= 3, "expected several catch-up rounds, saw {caught_up}");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let city = grid_city(&GridConfig { rows: 3, cols: 3, ..GridConfig::default() });
        RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 0);
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        use crate::config::ConfigError;
        let city = grid_city(&GridConfig { rows: 3, cols: 3, ..GridConfig::default() });
        // Zero interval: rejected as a value, not a panic.
        let err = RealtimeIdentifier::builder(&city.net).interval_s(0).build();
        assert!(matches!(err, Err(ConfigError::ZeroInterval)));
        // Invalid identification config surfaces through the same channel.
        let bad = IdentifyConfig { window_s: 0, ..IdentifyConfig::default() };
        assert!(RealtimeIdentifier::builder(&city.net).config(bad).build().is_err());
        // The defaults build.
        let rt = RealtimeIdentifier::builder(&city.net).build().unwrap();
        assert_eq!(rt.interval_s, 300);
        assert_eq!(rt.reorder_grace_s, 0);
    }

    #[test]
    fn take_changes_returns_timestamp_then_light_order() {
        let city = grid_city(&GridConfig { rows: 3, cols: 3, ..GridConfig::default() });
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        // Inject events the way multi-round catch-up does: grouped per
        // round in light-id order, timestamps interleaved across lights.
        let ev = |at: i64| ChangeEvent { at: Timestamp(at), from_cycle_s: 90.0, to_cycle_s: 96.0 };
        engine.pending_changes = vec![
            (LightId(7), ev(100)),
            (LightId(2), ev(400)),
            (LightId(9), ev(100)),
            (LightId(1), ev(100)),
            (LightId(5), ev(250)),
        ];
        let drained = engine.take_changes();
        let keys: Vec<(i64, u32)> = drained.iter().map(|(l, e)| (e.at.0, l.0)).collect();
        assert_eq!(keys, vec![(100, 1), (100, 7), (100, 9), (250, 5), (400, 2)]);
        // Drain is exhaustive: a second call returns nothing.
        assert!(engine.take_changes().is_empty());
    }

    #[test]
    fn health_registry_tracks_rounds_deterministically() {
        let (city, _signals, records, _) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        assert!(engine.health().is_empty());
        engine.extend(records.iter());

        let health = engine.health();
        assert!(!health.is_empty(), "no health records after a 5000 s feed");
        let report = engine.round_report();
        // Every currently scheduled light has a health record agreeing
        // with the engine's own state.
        for (light, sched) in engine.schedules() {
            let h = health.get(light).expect("scheduled light missing from health");
            assert!(h.identified());
            assert_eq!(h.snr, sched.snr, "health snr diverges from schedule");
            assert_eq!(h.cycle_s, sched.cycle_s);
            assert!(h.last_version >= 1 && h.last_version <= report.rounds);
            assert!(h.successes >= 1 && h.successes <= h.attempts);
            let at = h.last_at.expect("identified light without last_at");
            assert!(h.age_s(at.offset(60)) == Some(60.0));
        }
        // Grade counts partition the registry.
        assert_eq!(health.grade_counts().iter().sum::<usize>(), health.len());
        // Snapshot is a faithful copy in id order.
        let snap = health.snapshot();
        assert_eq!(snap.len(), health.len());
        assert!(snap.windows(2).all(|w| w[0].light.0 < w[1].light.0));

        // Feed-clock determinism: a replay reproduces every record.
        let mut replay = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        replay.extend(records.iter());
        assert_eq!(replay.health().snapshot(), snap);
    }

    #[test]
    fn view_snapshot_matches_engine_and_outlives_it() {
        let (city, _signals, records, start) = world();
        let mut engine = RealtimeIdentifier::new(&city.net, IdentifyConfig::default(), 300);
        assert_eq!(engine.view().version(), 0);
        assert!(engine.view().is_empty());
        engine.extend(records.iter());
        let view = engine.view();
        assert_eq!(view.version(), engine.rounds);
        assert_eq!(view.at(), engine.round_report().at);
        assert!(!view.is_empty(), "no schedules after a 5000 s feed");
        for (l, s) in engine.schedules() {
            assert_eq!(view.schedule(l), Some(s));
            let t = start.offset(4500);
            assert_eq!(view.wait_for_green(l, t), engine.wait_for_green(l, t));
        }
        // Same state → same digest; the snapshot survives engine mutation.
        assert_eq!(view.digest(), engine.view().digest());
        let digest = view.digest();
        drop(engine);
        assert_eq!(view.digest(), digest);
    }
}
