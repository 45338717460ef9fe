//! Counting-allocator proof that `span!`/`event!` (and
//! `SpanGuard::end_with`) with **no subscriber installed** perform zero
//! heap allocations — the obs half of the workspace-wide zero-alloc
//! contract (the core half lives in `crates/core/tests/zero_alloc.rs`).
//!
//! Gated behind the test-only `alloc-counter` feature so the global
//! allocator swap never leaks into ordinary test runs:
//!
//! ```text
//! cargo test -p taxilight-obs --features alloc-counter --test zero_alloc_obs
//! ```
//!
//! Unlike the core gate (one process-wide counter), this binary counts
//! allocations **per thread**: the proptest harness may run cases while
//! other test threads allocate, and a thread-local counter keeps their
//! traffic out of the measurement window.

#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use taxilight_obs::{event, span, Field, FieldValue};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator and counts allocation-producing calls on
/// the calling thread only. `try_with` guards against TLS teardown;
/// `Cell` is `const`-initialized so the counter itself never allocates.
struct ThreadCountingAllocator;

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for ThreadCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCountingAllocator = ThreadCountingAllocator;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

// NOTE: no test in this binary installs a subscriber, so the macros must
// take the `None` fast path throughout.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn uninstrumented_span_and_event_allocate_nothing(
        light in 0u64..10_000,
        estimate in 1.0f64..240.0,
        hit in prop::bool::ANY,
        laps in 1usize..8,
    ) {
        let before = thread_allocs();
        for _ in 0..laps {
            let _outer = span!("engine.light", light = light);
            {
                let _inner = span!("stage.cycle", estimate = estimate);
                event!("plan", light = light, hit = hit);
                let counted = span!("cycle.fold", light = light);
                counted.end_with(&[Field { key: "folds", value: FieldValue::U64(light) }]);
            }
            event!("light.done", light = light, estimate = estimate, hit = hit);
        }
        let after = thread_allocs();
        prop_assert_eq!(
            after - before,
            0,
            "no-subscriber span!/event! allocated {} time(s) over {} lap(s)",
            after - before,
            laps
        );
    }
}

#[test]
fn field_free_macros_allocate_nothing() {
    let before = thread_allocs();
    for _ in 0..1_000 {
        let _span = span!("bare");
        event!("tick");
    }
    let after = thread_allocs();
    assert_eq!(after - before, 0, "bare span!/event! allocated {} time(s)", after - before);
}
