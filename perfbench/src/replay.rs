//! The offline oracle: the same bytes, split into the same connections,
//! decoded by the same `FeedSource` and fed to a `RealtimeIdentifier`
//! configured like the daemon's. Batches are split after each record
//! that fires a round, so the view of every version is kept.

use std::collections::BTreeMap;
use std::io::Cursor;

use taxilight_core::preprocess::PreprocessStats;
use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::ScheduleView;
use taxilight_roadnet::graph::RoadNetwork;
use taxilight_serve::{FeedFormat, FeedSource};
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::source::{RecordBatch, RecordSource};

use crate::feed::{RoundClock, GRACE_S, INTERVAL_S};

/// Decode chunk of both the daemon and the oracle (the daemon default).
pub const CHUNK: usize = 64 * 1024;

/// A `RealtimeIdentifier` built exactly as the daemon builds its own.
pub fn daemon_engine(net: &RoadNetwork) -> RealtimeIdentifier<'_> {
    RealtimeIdentifier::builder(net)
        .interval_s(INTERVAL_S)
        .reorder_grace_s(GRACE_S)
        .build()
        .expect("the daemon's configuration is valid")
}

/// Calls `f(segment, rounds)` over `records` cut after every record that
/// fires a round: `rounds` is how many rounds the segment's last record
/// fires (0 for a segment that fires none).
pub fn split_at_triggers(
    records: &[TaxiRecord],
    clock: &mut RoundClock,
    mut f: impl FnMut(&[TaxiRecord], u64),
) {
    let mut start = 0;
    for (k, r) in records.iter().enumerate() {
        let fired = clock.observe(r.time.0);
        if fired > 0 {
            if k > start {
                f(&records[start..k], 0);
            }
            f(&records[k..=k], fired);
            start = k + 1;
        }
    }
    if start < records.len() {
        f(&records[start..], 0);
    }
}

/// The oracle's state after some connections.
pub struct Replay<'n> {
    engine: RealtimeIdentifier<'n>,
    clock: RoundClock,
    /// The view right after each round, by version.
    pub views: BTreeMap<u64, ScheduleView>,
    /// Records decoded so far.
    pub records: u64,
    /// Undecodable lines so far.
    pub bad_lines: u64,
    /// Plates each connection's decoder learned.
    pub plates: Vec<usize>,
    /// Changes drained so far.
    pub changes: usize,
    /// A round the clock predicted that the engine did not fire, or the
    /// reverse: `(version expected, rounds fired)`.
    pub clock_mismatch: Option<(u64, u64)>,
}

impl<'n> Replay<'n> {
    /// An oracle with no connection replayed yet.
    pub fn new(net: &'n RoadNetwork) -> Replay<'n> {
        Replay {
            engine: daemon_engine(net),
            clock: RoundClock::daemon(),
            views: BTreeMap::new(),
            records: 0,
            bad_lines: 0,
            plates: Vec::new(),
            changes: 0,
            clock_mismatch: None,
        }
    }

    /// Replays one feed connection's bytes. Decoding runs on its own
    /// thread, ahead of the engine, as in the daemon.
    pub fn connection(&mut self, bytes: &[u8], format: FeedFormat) {
        let (tx, rx) = std::sync::mpsc::sync_channel::<RecordBatch>(8);
        let plates = std::thread::scope(|s| {
            let decoder = s.spawn(move || {
                let mut src = FeedSource::new(Cursor::new(bytes), format, CHUNK);
                let mut batch = RecordBatch::new();
                while src.next_batch(&mut batch).expect("in-memory reads cannot fail") {
                    if tx.send(std::mem::take(&mut batch)).is_err() {
                        break;
                    }
                }
                plates(&src)
            });
            for batch in rx {
                self.feed(&batch);
            }
            decoder.join().expect("replay decoder panicked")
        });
        self.plates.push(plates);
        // Rounds fired by a batch's records without the clock predicting
        // them show up here too.
        let rounds = self.engine.round_report().rounds;
        if rounds != self.clock.rounds() && self.clock_mismatch.is_none() {
            self.clock_mismatch = Some((self.clock.rounds(), rounds));
        }
    }

    fn feed(&mut self, batch: &RecordBatch) {
        self.bad_lines += batch.bad_lines.len() as u64;
        self.records += batch.records.len() as u64;
        let Replay { engine, clock, views, changes, clock_mismatch, .. } = self;
        let mut predicted = engine.round_report().rounds;
        split_at_triggers(&batch.records, clock, |segment, fired| {
            engine.extend(segment.iter());
            predicted += fired;
            if fired > 0 {
                let rounds = engine.round_report().rounds;
                if rounds != predicted && clock_mismatch.is_none() {
                    *clock_mismatch = Some((predicted, rounds));
                }
                *changes += engine.take_changes().len();
                views.insert(rounds, engine.view());
            }
        });
    }

    /// The latest view.
    pub fn view(&self) -> ScheduleView {
        self.engine.view()
    }

    /// Map-matching totals over every record replayed.
    pub fn match_stats(&self) -> PreprocessStats {
        self.engine.preprocessor().cumulative_stats()
    }

    /// Median over lights of observations in the latest window, per hour
    /// of window.
    pub fn obs_per_light_h_median(&self) -> f64 {
        obs_per_light_h_median(&self.engine)
    }
}

/// Plates a connection's decoder has learned.
pub fn plates<R: std::io::Read>(src: &FeedSource<R>) -> usize {
    match src {
        FeedSource::Csv(s) => s.fleet().len(),
        FeedSource::NdJson(s) => s.fleet().len(),
    }
}

/// Median over `engine`'s lights of observations in the latest window,
/// per hour of window.
pub fn obs_per_light_h_median(engine: &RealtimeIdentifier<'_>) -> f64 {
    let per_h: Vec<f64> = engine
        .health()
        .iter()
        .map(|h| h.observations as f64 * 3600.0 / crate::feed::window_s() as f64)
        .collect();
    taxilight_bench::summary::percentile(&per_h, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{Feed, NetKind, Shape, Workload};

    /// The clock's predicted triggers are exactly the records on which a
    /// daemon-configured engine, fed record by record, fires its rounds.
    #[test]
    fn predicted_triggers_are_the_rounds_the_engine_fires() {
        let net = NetKind::PaperCity.build();
        let shape = Shape { plates: 240, ..Workload::Live.shape() };
        let mut feed = Feed::new(&net, shape, 5);
        let measured = feed.measured(usize::MAX, 4_800);
        let mut engine = daemon_engine(&net);
        let mut clock = RoundClock::daemon();
        let mut fleet = taxilight_trace::record::Fleet::new();
        let mut fired_total = 0;
        for phase in [&feed.warmup, &measured] {
            let text = std::str::from_utf8(&phase.bytes).unwrap();
            fleet = taxilight_trace::record::Fleet::new();
            for line in text.lines() {
                let r = taxilight_serve::ingest::decode_record_json(line, &mut fleet).unwrap();
                let before = engine.round_report().rounds;
                engine.push(&r);
                let fired = engine.round_report().rounds - before;
                assert_eq!(clock.observe(r.time.0), fired, "at {}", r.time.0);
                fired_total += fired;
            }
        }
        assert!(!fleet.is_empty());
        assert!(fired_total >= 4, "only {fired_total} rounds fired");
    }

    #[test]
    fn oracle_matches_a_daemon_over_real_sockets() {
        use std::io::{Read, Write};
        let net = NetKind::PaperCity.build();
        let shape = Shape { plates: 240, ..Workload::Live.shape() };
        let mut feed = Feed::new(&net, shape, 9);
        let measured = feed.measured(usize::MAX, 4_300);
        let mut oracle = Replay::new(&net);
        oracle.connection(&feed.warmup.bytes, shape.format);
        oracle.connection(&measured.bytes, shape.format);
        assert_eq!(oracle.clock_mismatch, None);

        let daemon = taxilight_serve::Daemon::bind(taxilight_serve::DaemonConfig {
            format: shape.format,
            interval_s: INTERVAL_S,
            reorder_grace_s: GRACE_S,
            ..Default::default()
        })
        .unwrap();
        let handle = daemon.handle();
        std::thread::scope(|s| {
            let runner = s.spawn(|| daemon.run(&net));
            for phase in [&feed.warmup, &measured] {
                let mut conn = std::net::TcpStream::connect(handle.feed_addr()).unwrap();
                conn.write_all(&phase.bytes).unwrap();
            }
            let total = (feed.warmup.len() + measured.len()) as u64;
            let expected = (total, oracle.view().version());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
            let seen = loop {
                let mut http = std::net::TcpStream::connect(handle.http_addr()).unwrap();
                http.write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
                let mut body = String::new();
                http.read_to_string(&mut body).unwrap();
                let field = |k: &str| crate::client::json_u64(&body, k).unwrap();
                let seen = (field("records_processed"), field("version"));
                if seen == expected || std::time::Instant::now() > deadline {
                    break seen;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            };
            assert_eq!(seen, expected);
            handle.shutdown();
            runner.join().unwrap().unwrap();
        });
    }
}
