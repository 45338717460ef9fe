//! The two workloads and their seeded feeds.
//!
//! Every record is a pure function of `(seed, taxi, second)`, so a seed
//! fixes the whole feed byte for byte. Taxi `i` uploads every
//! [`PERIOD_S`] seconds, at the seconds `t ≡ i (mod PERIOD_S)`. A share
//! of the fleet drives one road segment each; the rest reports from well
//! outside the network, as most of a city-wide feed does relative to the
//! monitored approaches. On a signalised approach a taxi moves only
//! during its light's green, so the speed signal is periodic at the
//! light's cycle; a share of lights switches programme during the feed.
//!
//! Records are delivered in feed-clock order. On `live`, a small share is
//! delayed (within the reorder grace) or delivered twice; a delayed copy
//! arrives after the on-time records of its delivery second.

use std::collections::BTreeMap;

use taxilight_core::IdentifyConfig;
use taxilight_roadnet::generators::{grid_city, GridConfig};
use taxilight_roadnet::graph::RoadNetwork;
use taxilight_serve::ingest::encode_record_json;
use taxilight_serve::FeedFormat;
use taxilight_trace::csv::encode_record;
use taxilight_trace::record::{Fleet, GpsCondition, PassengerState, TaxiId, TaxiRecord};
use taxilight_trace::time::Timestamp;
use taxilight_trace::GeoPoint;

/// Upload period of every plate, seconds (the paper's ~30 s).
pub const PERIOD_S: u32 = 30;
/// Re-identification cadence, feed seconds (the paper's 5 minutes).
pub const INTERVAL_S: u32 = 300;
/// Reorder grace the daemon runs with, feed seconds.
pub const GRACE_S: u32 = 60;
/// Largest delivery delay of a late record; inside [`GRACE_S`].
const MAX_DELAY_S: u32 = 45;
/// Length of the approach zone a taxi shuttles through before the stop
/// line, metres: most of its fixes fall inside the identifier's 150 m
/// influence radius, as queued taxis' do.
const ZONE_M: f64 = 250.0;

/// Feed-clock origin of every workload.
pub fn feed_start() -> Timestamp {
    Timestamp::civil(2014, 12, 5, 6, 0, 0)
}

/// The analysis window the daemon's default configuration uses.
pub fn window_s() -> u32 {
    IdentifyConfig::default().window_s
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop CSV intake on the paper city: decode and match bound.
    Backfill,
    /// Paced ND-JSON feed plus navigation queries on a 256-light grid:
    /// round, publish and read bound.
    Live,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "backfill" => Some(Workload::Backfill),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Live => "live",
        }
    }

    /// The workload's fixed shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Backfill => Shape {
                net: NetKind::PaperCity,
                plates: 4_000,
                on_net_share: 0.125,
                format: FeedFormat::Csv,
                compression: None,
                late_share: 0.0,
                dup_share: 0.0,
                switch_share: 0.25,
                query_hz: 100.0,
                setups: 3,
            },
            Workload::Live => Shape {
                net: NetKind::Grid10,
                plates: 1_000,
                on_net_share: 0.75,
                format: FeedFormat::NdJson,
                compression: Some(120.0),
                late_share: 0.02,
                dup_share: 0.01,
                switch_share: 0.25,
                query_hz: 500.0,
                setups: 5,
            },
        }
    }
}

/// The road network a workload runs on; the daemon host builds the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// `taxilight_sim::paper_city(1, _)`: 6×6 grid, 64 lights — the
    /// network the stock `taxilightd` serves.
    PaperCity,
    /// 10×10 grid at 600 m: 64 signalised crossings, 256 lights.
    Grid10,
}

impl NetKind {
    /// Parses a `--net` value.
    pub fn parse(s: &str) -> Option<NetKind> {
        match s {
            "paper" => Some(NetKind::PaperCity),
            "grid10" => Some(NetKind::Grid10),
            _ => None,
        }
    }

    /// The `--net` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            NetKind::PaperCity => "paper",
            NetKind::Grid10 => "grid10",
        }
    }

    /// Builds the network.
    pub fn build(self) -> RoadNetwork {
        match self {
            NetKind::PaperCity => taxilight_sim::paper_city(1, 1).net,
            NetKind::Grid10 => {
                grid_city(&GridConfig {
                    rows: 10,
                    cols: 10,
                    spacing_m: 600.0,
                    ..GridConfig::default()
                })
                .net
            }
        }
    }
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Road network.
    pub net: NetKind,
    /// Distinct plates in the feed.
    pub plates: u32,
    /// Share of plates that drive a road segment.
    pub on_net_share: f64,
    /// Wire format of the feed connections.
    pub format: FeedFormat,
    /// Feed seconds per wall second of the paced phase; `None` writes the
    /// feed as fast as backpressure allows.
    pub compression: Option<f64>,
    /// Share of records delivered late, within the reorder grace.
    pub late_share: f64,
    /// Share of records delivered a second time.
    pub dup_share: f64,
    /// Share of lights that switch timing programme during the feed.
    pub switch_share: f64,
    /// Queries per second: navigation queries on `live`, `/stats` probes on
    /// `backfill`.
    pub query_hz: f64,
    /// Daemon starts per run; `setup_s` is their median.
    pub setups: usize,
}

/// splitmix64: every draw is a stateless hash, so records do not depend
/// on generation order.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug, Clone, Copy)]
struct Seg {
    from: GeoPoint,
    heading_deg: f64,
    length_m: f64,
    light: Option<u32>,
}

/// One light's timing programme: red during `[offset, offset + red)` of
/// every cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Programme {
    cycle_s: f64,
    red_s: f64,
    offset_s: f64,
}

impl Programme {
    fn draw(h: u64) -> Programme {
        let cycle_s = 70.0 + (h % 81) as f64;
        let red_s = (cycle_s * (0.35 + 0.25 * unit(h.rotate_left(21)))).round();
        let offset_s = (h.rotate_left(42) % cycle_s as u64) as f64;
        Programme { cycle_s, red_s, offset_s }
    }
}

/// The seeded record generator, one delivery second at a time.
pub struct FeedGen {
    seed: u64,
    shape: Shape,
    segs: Vec<Seg>,
    /// Per light: the programme before and after its switch second.
    programmes: Vec<(Programme, Option<(u32, Programme)>)>,
    far: GeoPoint,
    start: Timestamp,
    next_s: u32,
    /// Late and duplicate copies by delivery second: `(emit second, taxi)`.
    pending: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl FeedGen {
    /// A generator over `net` for `shape`, seeded by `seed`.
    pub fn new(net: &RoadNetwork, shape: Shape, seed: u64) -> FeedGen {
        let segs = net
            .segments()
            .iter()
            .map(|s| Seg {
                from: net.node(s.from).position,
                heading_deg: s.heading_deg,
                length_m: s.length_m,
                light: net.light_of_segment(s.id).map(|l| l.0),
            })
            .collect();
        let programmes = (0..net.light_count() as u64)
            .map(|l| {
                let h = mix(seed ^ 0x5EC0_17D5 ^ l.wrapping_mul(0xA24B_AED4_963E_E407));
                let before = Programme::draw(h);
                let switch = (unit(h.rotate_left(7)) < shape.switch_share).then(|| {
                    let at = 2_400 + (h.rotate_left(13) % 2_400) as u32;
                    let delta = if before.cycle_s < 110.0 { 30.0 } else { -30.0 };
                    let cycle_s = before.cycle_s + delta;
                    let red_s = (cycle_s * before.red_s / before.cycle_s).round();
                    (at, Programme { cycle_s, red_s, offset_s: before.offset_s })
                });
                (before, switch)
            })
            .collect();
        let (_, ne) = net.bounding_box().expect("workload networks are non-empty");
        FeedGen {
            seed,
            shape,
            segs,
            programmes,
            far: ne.destination(45.0, 10_000.0),
            start: feed_start(),
            next_s: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Appends every record delivered in the next feed second to `out`, in
    /// delivery order, and returns that second.
    pub fn next_second(&mut self, out: &mut Vec<TaxiRecord>) -> u32 {
        let t = self.next_s;
        self.next_s += 1;
        let mut i = t % PERIOD_S;
        while i < self.shape.plates {
            let h = mix(self.seed ^ 0x1A7E ^ (i as u64) << 32 ^ t as u64);
            if unit(h) < self.shape.late_share {
                let delay = 1 + (h >> 33) as u32 % MAX_DELAY_S;
                self.pending.entry(t + delay).or_default().push((t, i));
            } else {
                out.push(self.record(i, t));
                if unit(h.rotate_left(29)) < self.shape.dup_share {
                    let delay = 1 + (h >> 40) as u32 % (MAX_DELAY_S - 15);
                    self.pending.entry(t + delay).or_default().push((t, i));
                }
            }
            i += PERIOD_S;
        }
        if let Some(mut late) = self.pending.remove(&t) {
            late.sort_unstable();
            out.extend(late.into_iter().map(|(emit, i)| self.record(i, emit)));
        }
        t
    }

    fn programme(&self, light: u32, t: u32) -> Programme {
        match self.programmes[light as usize] {
            (_, Some((at, after))) if t >= at => after,
            (before, _) => before,
        }
    }

    /// The record taxi `i` uploads at feed second `t`.
    fn record(&self, i: u32, t: u32) -> TaxiRecord {
        let stat = mix(self.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let dynamic = mix(stat ^ (t as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let seg = self.segs[(stat >> 8) as usize % self.segs.len()];
        let speed_mps = 6.0 + 8.0 * unit(stat.rotate_left(17));
        let phase_m = unit(stat.rotate_left(34)) * ZONE_M;
        let tt = t as f64;
        // Motion is closed-form: green seconds elapsed × cruise speed,
        // wrapped through the approach zone, so the fix is a pure
        // function of (seed, taxi, second).
        let (in_red, moving_s) = match seg.light {
            Some(light) => {
                let p = self.programme(light, t);
                let x = tt + p.offset_s;
                let green_s = p.cycle_s - p.red_s;
                let in_cycle = x % p.cycle_s;
                (
                    in_cycle < p.red_s,
                    (x / p.cycle_s).floor() * green_s + (in_cycle - p.red_s).max(0.0),
                )
            }
            None => (false, tt),
        };
        let zone = seg.length_m.min(ZONE_M);
        let along = seg.length_m - zone + (moving_s * speed_mps + phase_m).rem_euclid(zone);
        let position = if unit(stat) < self.shape.on_net_share {
            seg.from
                .destination(seg.heading_deg, along)
                .destination(seg.heading_deg + 90.0, 12.0 * (unit(dynamic) - 0.5))
        } else {
            self.far.destination(360.0 * unit(dynamic.rotate_left(7)), 3_000.0 * unit(dynamic))
        };
        let speed_kmh = if in_red {
            0.0
        } else {
            speed_mps * 3.6 * (0.9 + 0.2 * unit(dynamic.rotate_left(53)))
        };
        TaxiRecord {
            taxi: TaxiId(i),
            position,
            time: self.start.offset(t as i64),
            speed_kmh,
            heading_deg: (seg.heading_deg + 16.0 * (unit(dynamic.rotate_left(23)) - 0.5))
                .rem_euclid(360.0),
            gps: if dynamic.is_multiple_of(101) {
                GpsCondition::Unavailable
            } else {
                GpsCondition::Available
            },
            overspeed: false,
            passenger: if stat.rotate_left(41).is_multiple_of(2) {
                PassengerState::Occupied
            } else {
                PassengerState::Vacant
            },
        }
    }
}

/// Mirror of the round schedule `RealtimeIdentifier` keeps: the first
/// round is due one window after the earliest record, later rounds every
/// interval, and a due round fires on the first record whose timestamp
/// reaches `due + grace`.
#[derive(Debug, Clone)]
pub struct RoundClock {
    window_s: i64,
    interval_s: i64,
    grace_s: i64,
    earliest: Option<i64>,
    now: Option<i64>,
    next: Option<i64>,
    started: bool,
    rounds: u64,
}

impl RoundClock {
    /// The clock of a daemon with the default window, [`INTERVAL_S`] and
    /// [`GRACE_S`].
    pub fn daemon() -> RoundClock {
        RoundClock::new(window_s(), INTERVAL_S, GRACE_S)
    }

    /// A clock with explicit parameters.
    pub fn new(window_s: u32, interval_s: u32, grace_s: u32) -> RoundClock {
        RoundClock {
            window_s: window_s as i64,
            interval_s: interval_s as i64,
            grace_s: grace_s as i64,
            earliest: None,
            now: None,
            next: None,
            started: false,
            rounds: 0,
        }
    }

    /// Feeds one record timestamp; returns how many rounds it fires.
    pub fn observe(&mut self, t: i64) -> u64 {
        let now = self.now.map_or(t, |n| n.max(t));
        self.now = Some(now);
        let earliest = self.earliest.map_or(t, |e| e.min(t));
        self.earliest = Some(earliest);
        if !self.started {
            self.next = Some(earliest + self.window_s);
        }
        let before = self.rounds;
        while let Some(due) = self.next {
            if now - due < self.grace_s {
                break;
            }
            self.started = true;
            self.rounds += 1;
            self.next = Some(due + self.interval_s);
        }
        self.rounds - before
    }

    /// Rounds fired so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// One connection's worth of encoded feed.
#[derive(Debug, Default)]
pub struct Phase {
    /// The wire bytes, one line per record.
    pub bytes: Vec<u8>,
    /// Byte offset just past each record's line.
    pub ends: Vec<usize>,
    /// Each record's timestamp, epoch seconds.
    pub times: Vec<i64>,
    /// Each record's delivery second, relative to [`feed_start`].
    pub seconds: Vec<u32>,
}

impl Phase {
    fn push(&mut self, r: &TaxiRecord, second: u32, fleet: &Fleet, format: FeedFormat) {
        let line = match format {
            FeedFormat::Csv => encode_record(r, fleet),
            FeedFormat::NdJson => encode_record_json(r, fleet),
        }
        .expect("generated taxis are in the fleet");
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
        self.times.push(r.time.0);
        self.seconds.push(second);
    }

    /// Records in the phase.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the phase holds no record.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Byte length of the first `n` records.
    pub fn prefix_len(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.ends[n - 1]
        }
    }
}

/// A workload's feed: the warm-up connection, then measured-phase
/// connections drawn from the same generator.
pub struct Feed {
    /// The generator, positioned after the last second drawn.
    gen: FeedGen,
    fleet: Fleet,
    format: FeedFormat,
    /// Records drawn past the end of the warm-up, with their second.
    carry: Vec<(TaxiRecord, u32)>,
    /// The warm-up connection: every record up to and including the one
    /// that fires the first round.
    pub warmup: Phase,
}

impl Feed {
    /// Draws the warm-up: the first analysis window plus the grace.
    pub fn new(net: &RoadNetwork, shape: Shape, seed: u64) -> Feed {
        let mut gen = FeedGen::new(net, shape, seed);
        let mut fleet = Fleet::new();
        fleet.register_many(shape.plates as usize);
        let mut warmup = Phase::default();
        let mut clock = RoundClock::daemon();
        let mut carry = Vec::new();
        let mut buf = Vec::new();
        while carry.is_empty() {
            buf.clear();
            let s = gen.next_second(&mut buf);
            for r in &buf {
                if clock.rounds() == 0 {
                    warmup.push(r, s, &fleet, shape.format);
                    clock.observe(r.time.0);
                } else {
                    carry.push((*r, s));
                }
            }
        }
        Feed { gen, fleet, format: shape.format, carry, warmup }
    }

    /// The next measured-phase connection: whole delivery seconds until it
    /// holds at least `min_records` records or its last second is
    /// `until_s` or later.
    pub fn measured(&mut self, min_records: usize, until_s: u32) -> Phase {
        let mut phase = Phase::default();
        for (r, s) in std::mem::take(&mut self.carry) {
            phase.push(&r, s, &self.fleet, self.format);
        }
        let mut buf = Vec::new();
        while phase.len() < min_records && phase.seconds.last().is_none_or(|&s| s < until_s) {
            buf.clear();
            let s = self.gen.next_second(&mut buf);
            for r in &buf {
                phase.push(r, s, &self.fleet, self.format);
            }
        }
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_feed(seed: u64) -> (Phase, Phase) {
        let shape = Shape { plates: 300, ..Workload::Live.shape() };
        let net = NetKind::PaperCity.build();
        let mut feed = Feed::new(&net, shape, seed);
        let measured = feed.measured(usize::MAX, 4_000);
        (feed.warmup, measured)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (wa, ma) = small_feed(7);
        let (wb, mb) = small_feed(7);
        let (wc, mc) = small_feed(8);
        assert_eq!(wa.bytes, wb.bytes);
        assert_eq!(ma.bytes, mb.bytes);
        assert_eq!((wa.times.clone(), ma.seconds.clone()), (wb.times, mb.seconds));
        assert_ne!(wa.bytes, wc.bytes);
        assert_ne!(ma.bytes, mc.bytes);
    }

    #[test]
    fn warmup_ends_on_the_first_trigger() {
        let (warm, measured) = small_feed(3);
        let mut clock = RoundClock::daemon();
        let fired: Vec<u64> = warm.times.iter().map(|&t| clock.observe(t)).collect();
        assert_eq!(fired.last(), Some(&1));
        assert!(fired[..fired.len() - 1].iter().all(|&f| f == 0));
        let t0 = feed_start().0;
        assert!(warm.times.last().unwrap() - t0 >= (window_s() + GRACE_S) as i64);
        assert!(!measured.is_empty());
    }

    #[test]
    fn late_records_stay_inside_the_grace() {
        let (warm, measured) = small_feed(11);
        let t0 = feed_start().0;
        let mut late = 0;
        for phase in [&warm, &measured] {
            for (&t, &s) in phase.times.iter().zip(&phase.seconds) {
                let delay = t0 + s as i64 - t;
                assert!((0..GRACE_S as i64).contains(&delay), "delay {delay}");
                late += (delay > 0) as usize;
            }
        }
        assert!(late > 0, "the live shape delivers some records late");
    }
}
