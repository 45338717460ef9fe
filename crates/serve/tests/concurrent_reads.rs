//! Torn-snapshot proof for the serving store: a [`ScheduleView`] read
//! mid-round is always *exactly* one of the atomically-published states
//! — never a mix of old and new schedules.
//!
//! Method: an offline replay of a seeded city feed first enumerates
//! every state the live run can legally publish, as a map from store
//! version (the identifier's round counter) to the view's FNV digest.
//! Then the same feed is replayed live under `std::thread::scope`: a
//! writer thread runs identification rounds and publishes snapshots
//! while reader threads hammer [`StoreReader::current`]. Every observed
//! `(version, digest)` pair must be in the offline map — a torn read
//! (half-swapped schedule vector, partially-written floats) would hash
//! to a digest no legal state has.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use taxilight_core::realtime::RealtimeIdentifier;
use taxilight_core::{LightSchedule, ScheduleView};
use taxilight_roadnet::graph::LightId;
use taxilight_serve::ScheduleStore;
use taxilight_sim::small_city;
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::time::Timestamp;

/// Records per engine batch in both replays. Deliberately odd so batch
/// boundaries never line up with round boundaries.
const BATCH: usize = 197;

fn feed() -> &'static (Vec<TaxiRecord>, taxilight_roadnet::graph::RoadNetwork) {
    static FEED: OnceLock<(Vec<TaxiRecord>, taxilight_roadnet::graph::RoadNetwork)> =
        OnceLock::new();
    FEED.get_or_init(|| {
        let mut city = small_city(4242, 60);
        city.sim_config.hourly_activity = [1.0; 24];
        let start = Timestamp::civil(2014, 12, 5, 9, 0, 0);
        // The first identification round needs a full window (3600 s) of
        // data plus the reorder grace; 1500 s more yields several rounds.
        let (log, _) = city.run_from(start, 3600 + 1500);
        let mut records = log.into_records();
        records.sort_by_key(|r| r.time);
        (records, city.net)
    })
}

/// Replays the feed offline and returns every publishable state:
/// `version → digest`, including the initial empty view.
fn legal_states(
    records: &[TaxiRecord],
    net: &taxilight_roadnet::graph::RoadNetwork,
) -> HashMap<u64, u64> {
    let mut engine = RealtimeIdentifier::builder(net).reorder_grace_s(60).build().unwrap();
    let mut states = HashMap::new();
    states.insert(0, ScheduleView::empty().digest());
    let mut published = 0u64;
    for batch in records.chunks(BATCH) {
        engine.extend(batch.iter());
        let rounds = engine.round_report().rounds;
        if rounds > published {
            published = rounds;
            let view = engine.view();
            states.insert(view.version(), view.digest());
        }
    }
    states
}

#[test]
fn a_snapshot_read_mid_round_is_never_torn() {
    let (records, net) = feed();
    let states = legal_states(records, net);
    assert!(states.len() > 3, "feed produced too few rounds to exercise publishing");

    let (store, reader) = ScheduleStore::new();
    let done = AtomicBool::new(false);
    let observed = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reader.clone();
                let done = &done;
                let states = &states;
                scope.spawn(move || {
                    let mut last_seq = 0u64;
                    let mut last_version = 0u64;
                    let mut distinct = std::collections::HashSet::new();
                    loop {
                        let snap = r.current();
                        let (version, digest) = (snap.view.version(), snap.view.digest());
                        // The heart of the proof: this exact state was
                        // enumerated offline, or the read was torn.
                        assert_eq!(
                            states.get(&version),
                            Some(&digest),
                            "torn or unknown snapshot at version {version}"
                        );
                        assert!(snap.seq >= last_seq, "seq went backwards");
                        assert!(version >= last_version, "version went backwards");
                        // Change history must arrive in its documented
                        // (timestamp, light) page order, atomically.
                        assert!(
                            snap.changes
                                .windows(2)
                                .all(|w| (w[0].1.at, w[0].0 .0) <= (w[1].1.at, w[1].0 .0)),
                            "change history out of order"
                        );
                        last_seq = snap.seq;
                        last_version = version;
                        distinct.insert(version);
                        if done.load(Ordering::Acquire) {
                            return distinct.len();
                        }
                    }
                })
            })
            .collect();

        // Writer: the live replay, publishing exactly like the daemon's
        // identification loop does.
        let mut engine = RealtimeIdentifier::builder(net).reorder_grace_s(60).build().unwrap();
        let mut changes = Vec::new();
        let mut published = 0u64;
        for batch in records.chunks(BATCH) {
            engine.extend(batch.iter());
            let rounds = engine.round_report().rounds;
            if rounds > published {
                published = rounds;
                changes.extend(engine.take_changes());
                store.publish(engine.view(), changes.clone());
            }
        }
        done.store(true, Ordering::Release);
        readers.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
    });

    // Readers actually raced the writer across states (not one stale
    // read repeated): together they saw more than the initial view.
    assert!(observed >= 2, "readers observed only {observed} distinct version(s)");
    let final_snap = reader.current();
    assert_eq!(final_snap.view.digest(), states[&final_snap.view.version()]);
    assert!(!final_snap.view.is_empty(), "live replay identified nothing");
}

#[test]
fn a_reader_holding_a_snapshot_does_not_block_a_publish() {
    let (store, reader) = ScheduleStore::new();
    let schedule = LightSchedule {
        light: LightId(3),
        cycle_s: 90.0,
        red_s: 40.0,
        green_s: 50.0,
        red_start_s: 10.0,
        snr: 4.0,
        samples: 25,
    };
    // Held across the publish on the same thread: if `current()` kept the
    // read lock for the life of the snapshot, the publish's write lock
    // would deadlock here.
    let held = reader.current();
    let seq = store.publish(
        ScheduleView::new(1, Some(Timestamp(1000)), vec![(LightId(3), schedule)]),
        Vec::new(),
    );
    assert_eq!(seq, 1);
    assert_eq!(held.seq, 0);
    assert!(held.view.is_empty());
    let snap = reader.current();
    assert_eq!(snap.seq, 1);
    assert_eq!(
        snap.view.wait_for_green(LightId(3), Timestamp(1005)),
        Some(schedule.wait_for_green(Timestamp(1005)))
    );
}
