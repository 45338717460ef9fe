//! The versioned schedule store.
//!
//! The daemon's single writer publishes immutable [`Snapshot`]s — a
//! [`ScheduleView`] plus the cumulative change history — and every HTTP
//! connection reads the current one. The store holds exactly one
//! snapshot, an `Arc<Snapshot>` behind a [`RwLock`]: a read takes the
//! read lock just long enough to clone that `Arc` (one reference-count
//! increment, no allocation), and a publish swaps in the new snapshot
//! under the write lock. A reader therefore sees either the old or the
//! new snapshot in its entirety, never a torn schedule, and keeps it for
//! as long as it holds the `Arc`: publishes never wait on a held
//! snapshot, and a replaced snapshot is freed when its last reader drops
//! it. Memory is the current snapshot plus whatever readers still hold,
//! however long the daemon runs.

use std::sync::{Arc, RwLock};

use taxilight_core::monitor::ChangeEvent;
use taxilight_core::{LightHealth, ScheduleView};
use taxilight_roadnet::graph::LightId;

/// One published, immutable store entry.
#[derive(Debug)]
pub struct Snapshot {
    /// Store publish sequence number, 0 for the initial empty snapshot,
    /// strictly increasing from there.
    pub seq: u64,
    /// The schedule view (version = the identifier's round counter).
    pub view: ScheduleView,
    /// Every scheduling change detected since the daemon started,
    /// sorted by `(timestamp, light)` — the deterministic page order
    /// [`RealtimeIdentifier::take_changes`] guarantees.
    ///
    /// [`RealtimeIdentifier::take_changes`]:
    ///     taxilight_core::realtime::RealtimeIdentifier::take_changes
    pub changes: Vec<(LightId, ChangeEvent)>,
    /// Per-light health records as of this publish, light-id ascending —
    /// the [`HealthRegistry`] snapshot behind `/lights`. Empty for the
    /// initial snapshot and for publishers that carry no health.
    ///
    /// [`HealthRegistry`]: taxilight_core::HealthRegistry
    pub health: Vec<LightHealth>,
}

/// The single-writer handle: publishes snapshots.
pub struct ScheduleStore {
    current: Arc<RwLock<Arc<Snapshot>>>,
}

/// A cloneable read handle; every HTTP connection owns one.
#[derive(Clone)]
pub struct StoreReader {
    current: Arc<RwLock<Arc<Snapshot>>>,
}

impl ScheduleStore {
    /// Creates a store holding an initial empty snapshot (seq 0) and
    /// returns the writer plus one reader handle.
    pub fn new() -> (ScheduleStore, StoreReader) {
        let initial = Arc::new(Snapshot {
            seq: 0,
            view: ScheduleView::empty(),
            changes: Vec::new(),
            health: Vec::new(),
        });
        let current = Arc::new(RwLock::new(initial));
        (ScheduleStore { current: Arc::clone(&current) }, StoreReader { current })
    }

    /// Publishes a new snapshot: it becomes the current answer for every
    /// subsequent read, atomically. Returns the assigned sequence number.
    pub fn publish(&self, view: ScheduleView, changes: Vec<(LightId, ChangeEvent)>) -> u64 {
        self.publish_with_health(view, changes, Vec::new())
    }

    /// [`ScheduleStore::publish`], carrying per-light health records
    /// alongside the view (what the daemon publishes every round).
    pub fn publish_with_health(
        &self,
        view: ScheduleView,
        changes: Vec<(LightId, ChangeEvent)>,
        health: Vec<LightHealth>,
    ) -> u64 {
        let mut current = self.current.write().expect("store lock poisoned");
        let seq = current.seq + 1;
        let replaced =
            std::mem::replace(&mut *current, Arc::new(Snapshot { seq, view, changes, health }));
        drop(current);
        // Freeing the old snapshot (when no reader holds it) happens
        // outside the lock, so readers never wait on it.
        drop(replaced);
        seq
    }

    /// A new reader handle.
    pub fn reader(&self) -> StoreReader {
        StoreReader { current: Arc::clone(&self.current) }
    }
}

impl StoreReader {
    /// The current snapshot: one read lock held for one reference-count
    /// increment, no allocation. The snapshot stays valid for as long as
    /// the caller holds it, across any number of later publishes.
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("store lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxilight_core::LightSchedule;
    use taxilight_trace::time::Timestamp;

    fn view(version: u64, lights: &[u32]) -> ScheduleView {
        ScheduleView::new(
            version,
            Some(Timestamp(1000 + version as i64)),
            lights
                .iter()
                .map(|&l| {
                    (
                        LightId(l),
                        LightSchedule {
                            light: LightId(l),
                            cycle_s: 90.0 + version as f64,
                            red_s: 40.0,
                            green_s: 50.0 + version as f64,
                            red_start_s: 0.0,
                            snr: 3.0,
                            samples: 10,
                        },
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn publish_with_health_carries_records() {
        use taxilight_core::{FailureCounts, LightHealth, QualityGrade};
        let (store, reader) = ScheduleStore::new();
        assert!(reader.current().health.is_empty());
        let h = LightHealth {
            light: LightId(4),
            grade: QualityGrade::Rich,
            observations: 10,
            records_per_hour: 700.0,
            attempts: 2,
            successes: 2,
            consecutive_failures: 0,
            failures: FailureCounts::default(),
            changes: 0,
            snr: 5.0,
            cycle_s: 90.0,
            last_version: 1,
            last_at: Some(Timestamp(1001)),
        };
        store.publish_with_health(view(1, &[4]), Vec::new(), vec![h]);
        let snap = reader.current();
        assert_eq!(snap.health.len(), 1);
        assert_eq!(snap.health[0].light, LightId(4));
        assert!(snap.health[0].identified());
        // Plain publish carries no health.
        store.publish(view(2, &[4]), Vec::new());
        assert!(reader.current().health.is_empty());
    }

    #[test]
    fn initial_snapshot_is_empty_and_readable() {
        let (_store, reader) = ScheduleStore::new();
        let snap = reader.current();
        assert_eq!(snap.seq, 0);
        assert!(snap.view.is_empty());
        assert!(snap.changes.is_empty());
    }

    #[test]
    fn publish_swings_current() {
        let (store, reader) = ScheduleStore::new();
        assert_eq!(store.publish(view(1, &[4]), Vec::new()), 1);
        assert_eq!(store.publish(view(2, &[4, 9]), Vec::new()), 2);
        let snap = reader.current();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.view.version(), 2);
        assert_eq!(snap.view.len(), 2);
    }

    #[test]
    fn a_held_snapshot_survives_later_publishes() {
        let (store, reader) = ScheduleStore::new();
        store.publish(view(1, &[2]), Vec::new());
        let old = reader.current();
        let old_digest = old.view.digest();
        for v in 2..50 {
            store.publish(view(v, &[2, 3]), Vec::new());
        }
        // The snapshot taken before the publishes still reads version 1.
        assert_eq!(old.view.version(), 1);
        assert_eq!(old.view.digest(), old_digest);
        assert_eq!(reader.current().view.version(), 49);
    }

    #[test]
    fn a_replaced_snapshot_is_freed_once_no_reader_holds_it() {
        let (store, reader) = ScheduleStore::new();
        store.publish(view(1, &[2]), Vec::new());
        let held = reader.current();
        let first = Arc::downgrade(&held);
        let second_reader = store.reader();
        let also_held = second_reader.current();
        store.publish(view(2, &[2]), Vec::new());
        store.publish(view(3, &[2]), Vec::new());
        // Readers still holding it keep it alive...
        assert_eq!(first.upgrade().map(|s| s.seq), Some(1));
        drop(held);
        drop(also_held);
        // ...and the store itself keeps only the current snapshot.
        assert!(first.upgrade().is_none(), "the store retained a replaced snapshot");
        assert_eq!(reader.current().seq, 3);
    }

    #[test]
    fn readers_across_threads_see_monotone_sequences() {
        let (store, reader) = ScheduleStore::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let r = reader.clone();
                    s.spawn(move || {
                        let mut last = 0;
                        for _ in 0..2000 {
                            let seq = r.current().seq;
                            assert!(seq >= last, "store went backwards: {seq} < {last}");
                            last = seq;
                        }
                        last
                    })
                })
                .collect();
            for v in 1..200 {
                store.publish(view(v, &[1]), Vec::new());
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }
}
