//! The 12-field taxi record of the paper's Table I.
//!
//! Per-record dynamic fields live in [`TaxiRecord`]; per-taxi static fields
//! (plate, SIM card, body colour) are deduplicated into a [`Fleet`] registry
//! keyed by [`TaxiId`] — at 80 M records/day carrying the plate string in
//! every record would be pure waste, and the identification pipeline only
//! ever uses it to distinguish taxis.

use crate::geo::GeoPoint;
use crate::time::Timestamp;
use std::collections::HashMap;

/// Compact identifier for one taxi (index into the [`Fleet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaxiId(pub u32);

/// Table I field 11: passenger condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PassengerState {
    /// `0`: no passenger on board.
    #[default]
    Vacant,
    /// `1`: passenger on board.
    Occupied,
}

impl PassengerState {
    /// Wire encoding (Table I).
    pub fn to_wire(self) -> u8 {
        match self {
            PassengerState::Vacant => 0,
            PassengerState::Occupied => 1,
        }
    }

    /// Decodes the wire value.
    pub fn from_wire(v: u8) -> Option<Self> {
        match v {
            0 => Some(PassengerState::Vacant),
            1 => Some(PassengerState::Occupied),
            _ => None,
        }
    }
}

/// Table I field 8: GPS condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GpsCondition {
    /// `0`: fix unavailable — the position is stale or garbage.
    Unavailable,
    /// `1`: fix available.
    #[default]
    Available,
}

impl GpsCondition {
    /// Wire encoding (Table I).
    pub fn to_wire(self) -> u8 {
        match self {
            GpsCondition::Unavailable => 0,
            GpsCondition::Available => 1,
        }
    }

    /// Decodes the wire value.
    pub fn from_wire(v: u8) -> Option<Self> {
        match v {
            0 => Some(GpsCondition::Unavailable),
            1 => Some(GpsCondition::Available),
            _ => None,
        }
    }
}

/// Table I field 12: taxi body colour ("yellow, blue, etc").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BodyColor {
    /// Yellow cab.
    #[default]
    Yellow,
    /// Blue cab.
    Blue,
    /// Green cab.
    Green,
    /// Red cab.
    Red,
    /// Silver cab.
    Silver,
}

impl BodyColor {
    /// Wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            BodyColor::Yellow => "yellow",
            BodyColor::Blue => "blue",
            BodyColor::Green => "green",
            BodyColor::Red => "red",
            BodyColor::Silver => "silver",
        }
    }

    /// Parses the wire string (case-insensitive).
    pub fn from_str_loose(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "yellow" => Some(BodyColor::Yellow),
            "blue" => Some(BodyColor::Blue),
            "green" => Some(BodyColor::Green),
            "red" => Some(BodyColor::Red),
            "silver" => Some(BodyColor::Silver),
            _ => None,
        }
    }

    /// All variants, for fleet generation.
    pub const ALL: [BodyColor; 5] =
        [BodyColor::Yellow, BodyColor::Blue, BodyColor::Green, BodyColor::Red, BodyColor::Silver];
}

/// One taxi location upload — the dynamic fields of Table I.
///
/// The five fields the paper's pipeline primarily consumes are `taxi`,
/// `time`, `position` and `speed_kmh`; `gps`, `passenger` and `heading_deg`
/// are used for outlier filtering and map matching, exactly as in Sec. II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiRecord {
    /// Which taxi reported (Table I fields 1/5/10 resolve via [`Fleet`]).
    pub taxi: TaxiId,
    /// Fields 2–3: reported position.
    pub position: GeoPoint,
    /// Field 4: report time.
    pub time: Timestamp,
    /// Field 6: driving speed in km/h.
    pub speed_kmh: f64,
    /// Field 7: heading, degrees clockwise from north in `[0, 360)`.
    pub heading_deg: f64,
    /// Field 8: GPS condition.
    pub gps: GpsCondition,
    /// Field 9: overspeed warning flag.
    pub overspeed: bool,
    /// Field 11: passenger condition.
    pub passenger: PassengerState,
}

impl TaxiRecord {
    /// Speed converted to m/s.
    pub fn speed_ms(&self) -> f64 {
        self.speed_kmh / 3.6
    }

    /// A record passes the paper's basic sanity filters: GPS available,
    /// position valid, speed non-negative and physically plausible.
    pub fn is_plausible(&self) -> bool {
        self.gps == GpsCondition::Available
            && self.position.is_valid()
            && self.speed_kmh.is_finite()
            && (0.0..=200.0).contains(&self.speed_kmh)
            && self.heading_deg.is_finite()
    }
}

/// Per-taxi static identity: Table I fields 1 (plate), 5 (device), 10 (SIM)
/// and 12 (colour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxiInfo {
    /// Compact id used in [`TaxiRecord`].
    pub id: TaxiId,
    /// Field 1: car plate number (Shenzhen plates are `粤B·XXXXX`; we use an
    /// ASCII transliteration `YB-XXXXX`).
    pub plate: String,
    /// Field 5: onboard device id.
    pub device_id: u32,
    /// Field 10: SIM card number.
    pub sim: String,
    /// Field 12: body colour.
    pub color: BodyColor,
}

/// The fleet registry mapping [`TaxiId`] to static taxi identity.
///
/// Ids are dense and assigned in first-seen order. A plate index makes
/// [`Fleet::find_by_plate`] — run once per decoded record — O(1). The
/// index is only ever probed, never iterated, so its hash order reaches
/// no output; it keeps std's SipHash because plates arrive off the
/// network and must not be able to force collisions.
#[derive(Clone, Default)]
pub struct Fleet {
    infos: Vec<TaxiInfo>,
    by_plate: HashMap<String, TaxiId>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The index mirrors `infos`; printing it would expose hash order.
        f.debug_struct("Fleet").field("infos", &self.infos).finish_non_exhaustive()
    }
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Fleet::default()
    }

    /// Registers a taxi with generated plate/SIM/device fields and returns
    /// its id. Plates count up deterministically (`YB-00001`, …) like a
    /// real licensing sequence.
    ///
    /// Registration does not check for duplicates: if the generated plate
    /// is already present, [`Fleet::find_by_plate`] keeps answering the
    /// lowest id.
    pub fn register(&mut self) -> TaxiId {
        let n = self.infos.len() as u32;
        let id = TaxiId(n);
        let plate = format!("YB-{:05}", n + 1);
        self.by_plate.entry(plate.clone()).or_insert(id);
        self.infos.push(TaxiInfo {
            id,
            plate,
            device_id: 100_000 + n,
            sim: format!("1380000{:05}", n + 1),
            color: BodyColor::ALL[(n as usize) % BodyColor::ALL.len()],
        });
        id
    }

    /// Registers `count` taxis, returning the ids.
    pub fn register_many(&mut self, count: usize) -> Vec<TaxiId> {
        (0..count).map(|_| self.register()).collect()
    }

    /// Adds a fully specified taxi (e.g. parsed from CSV). Returns its id
    /// or `None`, leaving the fleet unchanged, if a taxi with the same
    /// plate already exists.
    pub fn insert(
        &mut self,
        plate: &str,
        device_id: u32,
        sim: &str,
        color: BodyColor,
    ) -> Option<TaxiId> {
        if self.find_by_plate(plate).is_some() {
            return None;
        }
        Some(self.intern(plate, device_id, sim, color))
    }

    /// The id of `plate`, learning it as a new taxi on first sight — the
    /// data centre's rule for a live feed. A known plate returns its id
    /// and ignores `device_id`, `sim` and `color`: the first sighting
    /// wins. Allocates only for a new plate.
    pub fn intern(&mut self, plate: &str, device_id: u32, sim: &str, color: BodyColor) -> TaxiId {
        if let Some(id) = self.find_by_plate(plate) {
            return id;
        }
        let id = TaxiId(self.infos.len() as u32);
        self.by_plate.insert(plate.to_string(), id);
        self.infos.push(TaxiInfo {
            id,
            plate: plate.to_string(),
            device_id,
            sim: sim.to_string(),
            color,
        });
        id
    }

    /// Looks up static info for a taxi.
    pub fn info(&self, id: TaxiId) -> Option<&TaxiInfo> {
        self.infos.get(id.0 as usize)
    }

    /// Finds a taxi by exact plate.
    pub fn find_by_plate(&self, plate: &str) -> Option<TaxiId> {
        self.by_plate.get(plate).copied()
    }

    /// Number of registered taxis.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no taxis are registered.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over all taxis in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TaxiInfo> {
        self.infos.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TaxiRecord {
        TaxiRecord {
            taxi: TaxiId(7),
            position: GeoPoint::new(22.547, 114.125),
            time: Timestamp::civil(2014, 12, 5, 15, 22, 0),
            speed_kmh: 36.0,
            heading_deg: 90.0,
            gps: GpsCondition::Available,
            overspeed: false,
            passenger: PassengerState::Occupied,
        }
    }

    #[test]
    fn wire_encodings_round_trip() {
        for p in [PassengerState::Vacant, PassengerState::Occupied] {
            assert_eq!(PassengerState::from_wire(p.to_wire()), Some(p));
        }
        for g in [GpsCondition::Unavailable, GpsCondition::Available] {
            assert_eq!(GpsCondition::from_wire(g.to_wire()), Some(g));
        }
        assert_eq!(PassengerState::from_wire(9), None);
        assert_eq!(GpsCondition::from_wire(2), None);
        for c in BodyColor::ALL {
            assert_eq!(BodyColor::from_str_loose(c.as_str()), Some(c));
        }
        assert_eq!(BodyColor::from_str_loose("YELLOW"), Some(BodyColor::Yellow));
        assert_eq!(BodyColor::from_str_loose("purple"), None);
    }

    #[test]
    fn speed_conversion() {
        let r = sample_record();
        assert!((r.speed_ms() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn plausibility_filters() {
        let ok = sample_record();
        assert!(ok.is_plausible());
        let mut bad_gps = ok;
        bad_gps.gps = GpsCondition::Unavailable;
        assert!(!bad_gps.is_plausible());
        let mut bad_speed = ok;
        bad_speed.speed_kmh = -5.0;
        assert!(!bad_speed.is_plausible());
        bad_speed.speed_kmh = 500.0;
        assert!(!bad_speed.is_plausible());
        bad_speed.speed_kmh = f64::NAN;
        assert!(!bad_speed.is_plausible());
        let mut bad_pos = ok;
        bad_pos.position = GeoPoint::new(95.0, 114.0);
        assert!(!bad_pos.is_plausible());
        let mut bad_heading = ok;
        bad_heading.heading_deg = f64::INFINITY;
        assert!(!bad_heading.is_plausible());
    }

    #[test]
    fn fleet_registration_is_sequential_and_unique() {
        let mut fleet = Fleet::new();
        assert!(fleet.is_empty());
        let ids = fleet.register_many(100);
        assert_eq!(fleet.len(), 100);
        assert!(!fleet.is_empty());
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, k);
        }
        // Plates unique.
        let mut plates: Vec<&str> = fleet.iter().map(|i| i.plate.as_str()).collect();
        plates.sort_unstable();
        plates.dedup();
        assert_eq!(plates.len(), 100);
        // Lookup round trip.
        let info = fleet.info(TaxiId(41)).unwrap();
        assert_eq!(fleet.find_by_plate(&info.plate), Some(TaxiId(41)));
        assert_eq!(fleet.info(TaxiId(100)), None);
        assert_eq!(fleet.find_by_plate("nope"), None);
    }

    #[test]
    fn fleet_insert_rejects_duplicate_plate() {
        let mut fleet = Fleet::new();
        let id = fleet.insert("YB-90001", 1, "13800009000", BodyColor::Red).unwrap();
        assert_eq!(fleet.info(id).unwrap().color, BodyColor::Red);
        assert_eq!(fleet.insert("YB-90001", 2, "x", BodyColor::Blue), None);
        assert_eq!(fleet.len(), 1);
    }

    /// Every id the fleet holds, by plate, checked against a linear scan
    /// of the id-ordered entries (the lookup the index replaced).
    fn assert_index_matches_scan(fleet: &Fleet) {
        for info in fleet.iter() {
            let first = fleet.iter().find(|i| i.plate == info.plate).map(|i| i.id);
            assert_eq!(fleet.find_by_plate(&info.plate), first, "plate {}", info.plate);
        }
    }

    #[test]
    fn fleet_insert_of_a_registered_plate_changes_nothing() {
        let mut fleet = Fleet::new();
        fleet.register_many(3);
        let before: Vec<TaxiInfo> = fleet.iter().cloned().collect();
        assert_eq!(fleet.insert("YB-00002", 9, "sim", BodyColor::Silver), None);
        assert_eq!(fleet.iter().cloned().collect::<Vec<_>>(), before);
        assert_eq!(fleet.find_by_plate("YB-00002"), Some(TaxiId(1)));
        // A new plate after registered ones takes the next dense id.
        assert_eq!(fleet.insert("ZZ-1", 9, "sim", BodyColor::Silver), Some(TaxiId(3)));
        assert_index_matches_scan(&fleet);
    }

    #[test]
    fn fleet_register_over_an_inserted_plate_keeps_the_lowest_id() {
        let mut fleet = Fleet::new();
        // Id 0 takes the plate that registration will generate for id 1.
        assert_eq!(fleet.insert("YB-00002", 7, "sim", BodyColor::Red), Some(TaxiId(0)));
        assert_eq!(fleet.register(), TaxiId(1));
        assert_eq!(fleet.info(TaxiId(1)).unwrap().plate, "YB-00002");
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.find_by_plate("YB-00002"), Some(TaxiId(0)));
        assert_eq!(fleet.insert("YB-00002", 8, "sim", BodyColor::Blue), None);
        assert_index_matches_scan(&fleet);
    }

    #[test]
    fn fleet_intern_learns_once_and_first_sighting_wins() {
        let mut fleet = Fleet::new();
        let a = fleet.intern("YB-7", 11, "sim-a", BodyColor::Green);
        let b = fleet.intern("YB-8", 12, "sim-b", BodyColor::Blue);
        assert_eq!((a, b), (TaxiId(0), TaxiId(1)));
        // A later sighting with different static fields maps to the same
        // taxi and leaves the learned identity alone.
        assert_eq!(fleet.intern("YB-7", 99, "sim-z", BodyColor::Red), a);
        assert_eq!(fleet.len(), 2);
        let info = fleet.info(a).unwrap();
        assert_eq!(
            (info.device_id, info.sim.as_str(), info.color),
            (11, "sim-a", BodyColor::Green)
        );
        // `intern` and `insert` share one registry.
        assert_eq!(fleet.insert("YB-8", 0, "", BodyColor::Yellow), None);
        assert_eq!(fleet.intern("YB-9", 13, "sim-c", BodyColor::Red), TaxiId(2));
        assert_index_matches_scan(&fleet);
    }

    #[test]
    fn fleet_clone_carries_its_own_consistent_index() {
        let mut original = Fleet::new();
        original.register_many(4);
        let mut copy = original.clone();
        assert_index_matches_scan(&copy);
        // The two diverge independently: each index sees only its own
        // additions.
        assert_eq!(copy.intern("ONLY-COPY", 1, "s", BodyColor::Red), TaxiId(4));
        assert_eq!(original.intern("ONLY-ORIGINAL", 2, "s", BodyColor::Blue), TaxiId(4));
        assert_eq!(copy.find_by_plate("ONLY-ORIGINAL"), None);
        assert_eq!(original.find_by_plate("ONLY-COPY"), None);
        assert_eq!(copy.find_by_plate("YB-00003"), Some(TaxiId(2)));
        assert_index_matches_scan(&copy);
        assert_index_matches_scan(&original);
    }

    #[test]
    fn fleet_colors_cycle_through_all() {
        let mut fleet = Fleet::new();
        fleet.register_many(BodyColor::ALL.len() * 2);
        let colors: Vec<BodyColor> = fleet.iter().map(|i| i.color).collect();
        for (k, c) in colors.iter().enumerate() {
            assert_eq!(*c, BodyColor::ALL[k % BodyColor::ALL.len()]);
        }
    }
}
