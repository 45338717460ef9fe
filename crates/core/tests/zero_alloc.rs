//! Counting-allocator proof that the steady-state cycle/DFT path is
//! allocation-free.
//!
//! Gated behind the test-only `alloc-counter` feature so the global allocator
//! swap never leaks into ordinary test runs:
//!
//! ```text
//! cargo test -p taxilight-core --features alloc-counter --test zero_alloc
//! ```
//!
//! The test warms an [`IdentifyWorkspace`] once per signal shape (growing
//! scratch buffers and populating the FFT plan cache), then asserts that a
//! second identically-shaped call performs **zero** heap allocations. Covered
//! shapes: the paper's 3600 s window on the exact-length path (Bluestein,
//! m = 8192), a power-of-two 2048 s window (radix-2), and the 3600 s window on
//! the [`SpectrumPath::PaddedPow2`] fast path.
//!
//! It also pins the Sec.-VII change monitor: once built, 30 days of 5-minute
//! pushes that confirm no change allocate nothing.

#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use taxilight_core::monitor::ScheduleMonitor;
use taxilight_core::{IdentifyConfig, IdentifyWorkspace, SpectrumPath};
use taxilight_trace::time::Timestamp;

/// Wraps the system allocator and counts every allocation-producing call.
/// Deallocations are not counted: the invariant under test is "no new heap
/// traffic", and `dealloc` cannot create any.
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
/// test's warm-up allocations never land in another's measurement window.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Deterministic sparse speed trace with a planted red/green square wave.
///
/// Mimics what [`crate::cycle::speed_samples`] produces for a light with a
/// `cycle_s` cycle and `red_s` red phase: slow readings during red, fast ones
/// during green, with LCG jitter on both the sample clock and the speeds so
/// the periodogram sees a realistic (non-degenerate) signal.
fn planted_speed_trace(window_s: usize, cycle_s: f64, red_s: f64, seed: u64) -> Vec<(f64, f64)> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let mut out = Vec::new();
    let mut t = 0.0f64;
    while t < window_s as f64 {
        let phase = t % cycle_s;
        let speed = if phase < red_s { 2.0 + 3.0 * next() } else { 28.0 + 8.0 * next() };
        out.push((t, speed));
        t += 4.0 + 5.0 * next();
    }
    out
}

#[test]
fn steady_state_cycle_path_is_allocation_free() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let exact = IdentifyConfig::default();
    let padded = IdentifyConfig { spectrum: SpectrumPath::PaddedPow2, ..IdentifyConfig::default() };

    // (label, window length, config): Bluestein exact-length, radix-2
    // power-of-two, and the padded-pow2 fast path.
    let shapes: [(&str, usize, &IdentifyConfig); 3] =
        [("exact-3600", 3600, &exact), ("pow2-2048", 2048, &exact), ("padded-3600", 3600, &padded)];

    let mut ws = IdentifyWorkspace::new();
    for (label, window, cfg) in shapes {
        let samples = planted_speed_trace(window, 98.0, 39.0, 0xA11C);

        // Warmup: grows every scratch buffer and caches the FFT plans for
        // this shape. Allocations here are expected and uncounted.
        let warm = ws
            .cycle_from_samples(&samples, window, cfg)
            .unwrap_or_else(|e| panic!("{label}: warmup identification failed: {e}"));

        let before = alloc_calls();
        let est = ws
            .cycle_from_samples(&samples, window, cfg)
            .unwrap_or_else(|e| panic!("{label}: steady-state identification failed: {e}"));
        let after = alloc_calls();

        assert_eq!(est.cycle_s.to_bits(), warm.cycle_s.to_bits(), "{label}: reuse changed result");
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state cycle/DFT path allocated {} time(s)",
            after - before
        );
    }
}

#[test]
fn steady_state_holds_across_alternating_shapes() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Alternating between two shapes must also stay allocation-free once both
    // are warm: buffers only ever grow, and the plan cache keys on length.
    let cfg = IdentifyConfig::default();
    let small = planted_speed_trace(1200, 76.0, 25.0, 7);
    let large = planted_speed_trace(3600, 112.0, 48.0, 11);

    let mut ws = IdentifyWorkspace::new();
    ws.cycle_from_samples(&small, 1200, &cfg).unwrap();
    ws.cycle_from_samples(&large, 3600, &cfg).unwrap();

    let before = alloc_calls();
    for _ in 0..4 {
        ws.cycle_from_samples(&small, 1200, &cfg).unwrap();
        ws.cycle_from_samples(&large, 3600, &cfg).unwrap();
    }
    let after = alloc_calls();
    assert_eq!(after - before, 0, "alternating warm shapes allocated {} time(s)", after - before);
}

#[test]
fn thirty_days_of_monitor_pushes_allocate_nothing() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // A stable 106 s light with estimation jitter, isolated outliers and
    // failed slots: the median filter absorbs them, so no change confirms.
    let sample = |k: i64| match k {
        k if k % 53 == 11 => None,
        k if k % 31 == 3 => Some(230.0),
        k => Some(106.0 + ((k * 7) % 5) as f64 - 2.0),
    };
    let mut monitor = ScheduleMonitor::new(20.0, 2);
    for k in 0..5 {
        monitor.push(Timestamp(k * 300), sample(k));
    }

    let before = alloc_calls();
    for k in 5..5 + 30 * 288 {
        monitor.push(Timestamp(k * 300), sample(k));
    }
    let after = alloc_calls();

    assert_eq!(after - before, 0, "8 640 monitor pushes allocated {} time(s)", after - before);
    assert!(monitor.changes().is_empty(), "the stable series confirmed a change");
}
