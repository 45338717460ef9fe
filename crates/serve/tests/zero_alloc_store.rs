//! Counting-allocator proof that the serving query read path is
//! allocation-free: one current-snapshot read (a read lock and an `Arc`
//! reference-count increment) plus a schedule lookup, a green-wait
//! computation and a digest never touch the heap.
//!
//! Gated behind the test-only `alloc-counter` feature so the global
//! allocator swap never leaks into ordinary test runs:
//!
//! ```text
//! cargo test -p taxilight-serve --features alloc-counter --test zero_alloc_store
//! ```

#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use taxilight_core::{LightSchedule, ScheduleView};
use taxilight_roadnet::graph::LightId;
use taxilight_serve::ScheduleStore;
use taxilight_trace::time::Timestamp;

/// Wraps the system allocator and counts every allocation-producing
/// call. Deallocations are not counted: the invariant under test is "no
/// new heap traffic", and `dealloc` cannot create any.
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// The counter is process-wide and the harness runs tests on parallel
/// threads, so each test holds this lock for its whole run: a sibling
/// test's publishes never land in another's measurement window.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A populated view: enough lights that a torn or accidentally-cloning
/// implementation would show up loudly in the counter.
fn populated_view(lights: u32) -> ScheduleView {
    ScheduleView::new(
        7,
        Some(Timestamp(100_000)),
        (0..lights)
            .map(|l| {
                (
                    LightId(l),
                    LightSchedule {
                        light: LightId(l),
                        cycle_s: 60.0 + l as f64,
                        red_s: 25.0,
                        green_s: 35.0 + l as f64,
                        red_start_s: (l % 50) as f64,
                        snr: 3.5,
                        samples: 40,
                    },
                )
            })
            .collect(),
    )
}

#[test]
fn store_query_read_path_is_allocation_free() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (store, reader) = ScheduleStore::new();
    store.publish(populated_view(500), Vec::new());

    // Warmup: fault in lazy statics, caches, anything one-time.
    let warm = reader.current();
    let warm_digest = warm.view.digest();
    assert_eq!(warm.view.len(), 500);

    let before = alloc_calls();
    let mut acc = 0u64;
    for k in 0..1000u32 {
        let snap = reader.current();
        let light = LightId(k % 500);
        let t = Timestamp(100_000 + k as i64);
        let s = snap.view.schedule(light).expect("every light is present");
        acc ^= s.cycle_s.to_bits();
        acc ^= snap.view.wait_for_green(light, t).expect("schedule known").to_bits();
        acc ^= u64::from(snap.view.is_red_at(light, t).expect("schedule known"));
        acc ^= snap.view.digest();
    }
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "query read path allocated {} time(s) across 1000 reads",
        after - before
    );
    // The accumulator keeps the loop un-optimizable.
    std::hint::black_box(acc);
    assert_eq!(reader.current().view.digest(), warm_digest);
}

#[test]
fn publishes_do_not_disturb_a_running_reader_loop() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Reads stay allocation-free even while the writer publishes: a read
    // only bumps the current snapshot's reference count.
    let (store, reader) = ScheduleStore::new();
    store.publish(populated_view(100), Vec::new());
    let _ = reader.current().view.digest(); // warm

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let before = alloc_calls();
            let mut acc = 0u64;
            for k in 0..5000u32 {
                let snap = reader.current();
                acc ^= snap.seq;
                if let Some(s) = snap.view.schedule(LightId(k % 100)) {
                    acc ^= s.green_s.to_bits();
                }
            }
            (before, alloc_calls(), acc)
        });
        for _ in 0..50 {
            store.publish(populated_view(100), Vec::new());
        }
        let (before, after, _acc) = handle.join().unwrap();
        // The writer allocates (each new snapshot) — but those
        // allocations happen on the *writer* thread. The reader's own
        // path must stay clean; the counter is global, so tolerate the
        // concurrent writer by bounding, not equating: the reader does
        // 5000 full reads, the writer at most 50 publishes of a 100-light
        // view (a few allocations each). A reader that allocated even
        // once per read would blow far past this.
        assert!(
            after - before < 2000,
            "reader loop overlapped {} allocations — reads are allocating",
            after - before
        );
    });
}
