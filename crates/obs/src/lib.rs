//! # taxilight-obs
//!
//! Zero-cost observability for the taxilight pipeline: structured spans
//! and events with a pluggable [`Subscriber`], a process-wide
//! [metrics registry](metrics) (counters, gauges, fixed-bucket
//! histograms) with deterministic JSON snapshots and Prometheus text
//! exposition, and a [`ChromeTraceWriter`](chrome::ChromeTraceWriter)
//! subscriber emitting Chrome trace-event JSON that loads directly in
//! Perfetto.
//!
//! ## The zero-cost contract
//!
//! With no subscriber installed, [`span!`] and [`event!`] cost exactly
//! one relaxed atomic load each (the [`std::sync::OnceLock`] state
//! check) and perform **zero heap allocations** — field expressions are
//! not even evaluated. This is pinned by the counting-allocator proptest
//! behind the `alloc-counter` feature, the same gate that protects the
//! per-light identification hot path in `taxilight-core`. The `off`
//! cargo feature goes further and constant-folds the subscriber lookup
//! to `None`, letting the compiler delete every instrumentation site.
//!
//! Metrics are independent of the subscriber: handles are atomics that
//! are always live, so counting a plan-cache hit is one
//! `fetch_add(1, Relaxed)` whether or not anything is tracing.
//!
//! ## Subscriber model
//!
//! A subscriber is installed process-wide, **once**, with
//! [`set_subscriber`] (the `log`-crate model — installation is for the
//! life of the process; keep an `Arc` clone to flush or serialize at
//! exit). Spans are strictly nested per thread: [`span!`] returns a
//! [`SpanGuard`] whose `Drop` emits the matching end, so begin/end pairs
//! are LIFO by construction — the property the Chrome trace validator
//! asserts per track.
//!
//! ```
//! use taxilight_obs::{event, span};
//! fn identify_one(light: u32) {
//!     let _span = span!("light", light = light);
//!     // ... work ...
//!     event!("light.done", light = light, ok = true);
//! }
//! identify_one(7); // no subscriber installed: both macros are free
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod tee;

use std::sync::{Arc, OnceLock};

/// One structured value attached to a span or event.
///
/// Deliberately `Copy` and allocation-free: strings must be `'static`
/// (field keys and categorical values are compile-time constants on the
/// hot path; anything dynamic belongs in a metric, not a span field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Signed integer (deltas, timestamps).
    I64(i64),
    /// Float (estimates, seconds).
    F64(f64),
    /// Static string (labels, outcomes).
    Str(&'static str),
    /// Boolean (verdicts, toggles).
    Bool(bool),
}

macro_rules! impl_from_fieldvalue {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

impl_from_fieldvalue!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// A `key = value` pair attached to a span or event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    /// Field name (compile-time constant at every call site).
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

/// Receives spans and events. Implementations must be cheap enough to
/// call from the per-light hot path *when installed*; when nothing is
/// installed the macros never reach a subscriber at all.
///
/// Thread identity is the subscriber's concern (the Chrome writer keys
/// its tracks on a per-thread id); begin/end pairs arrive strictly
/// nested per calling thread because [`SpanGuard`] is scope-bound.
pub trait Subscriber: Send + Sync {
    /// A span opened on the calling thread.
    fn span_begin(&self, name: &'static str, cat: &'static str, fields: &[Field]);
    /// The matching close of the most recent unclosed `span_begin` on
    /// the calling thread.
    fn span_end(&self, name: &'static str, cat: &'static str, fields: &[Field]);
    /// An instantaneous event on the calling thread.
    fn event(&self, name: &'static str, cat: &'static str, fields: &[Field]);
    /// Names the calling thread's track in trace output (e.g.
    /// `shard-worker-3`). Optional; defaults to a no-op.
    fn track_name(&self, _name: &str) {}
    /// Flushes buffered output, if any. Optional.
    fn flush(&self) {}
}

static SUBSCRIBER: OnceLock<Arc<dyn Subscriber>> = OnceLock::new();

/// The installed subscriber, or `None`. This is the macro fast path: one
/// relaxed/acquire atomic load when nothing is installed. With the `off`
/// feature the function is a constant `None` and call sites fold away.
#[inline(always)]
pub fn subscriber() -> Option<&'static dyn Subscriber> {
    #[cfg(feature = "off")]
    {
        None
    }
    #[cfg(not(feature = "off"))]
    {
        SUBSCRIBER.get().map(|a| a.as_ref())
    }
}

/// Error returned by [`set_subscriber`] when one is already installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberInstalledError;

impl std::fmt::Display for SubscriberInstalledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a subscriber is already installed for this process")
    }
}

impl std::error::Error for SubscriberInstalledError {}

/// Installs the process-wide subscriber. Succeeds at most once per
/// process (keep an `Arc` clone to flush/serialize at exit). With the
/// `off` feature the subscriber is accepted but never called.
pub fn set_subscriber(s: Arc<dyn Subscriber>) -> Result<(), SubscriberInstalledError> {
    SUBSCRIBER.set(s).map_err(|_| SubscriberInstalledError)
}

/// Runs `f` against the installed subscriber, if any. Use for
/// instrumentation whose argument is costly to build (the closure runs
/// only when something is listening):
///
/// ```
/// # let w = 3;
/// taxilight_obs::with_subscriber(|s| s.track_name(&format!("shard-worker-{w}")));
/// ```
#[inline]
pub fn with_subscriber(f: impl FnOnce(&dyn Subscriber)) {
    if let Some(s) = subscriber() {
        f(s);
    }
}

/// Names the calling thread's track in trace output. The closure builds
/// the name only when a subscriber is installed, so disabled builds pay
/// one atomic load and allocate nothing.
#[inline]
pub fn set_track_name(name: impl FnOnce() -> String) {
    if let Some(s) = subscriber() {
        s.track_name(&name());
    }
}

/// Scope guard emitting the span end on drop. Construct via [`span!`];
/// bind it (`let _span = span!(..)`) so the span covers the scope.
#[must_use = "bind the guard (`let _span = span!(..)`) or the span closes immediately"]
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    active: bool,
}

impl SpanGuard {
    /// Used by [`span!`]; not intended for direct calls.
    #[doc(hidden)]
    #[inline]
    pub fn new(name: &'static str, cat: &'static str, active: bool) -> Self {
        SpanGuard { name, cat, active }
    }

    /// Whether a subscriber observed this span's begin.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Closes the span now with `fields` on its end, for values known
    /// only once the covered work is done (a loop's iteration count).
    /// Chrome-trace viewers merge end arguments into the span's own.
    /// Without a subscriber this is a branch on a bool.
    #[inline]
    pub fn end_with(mut self, fields: &[Field]) {
        if self.active {
            if let Some(s) = subscriber() {
                s.span_end(self.name, self.cat, fields);
            }
            self.active = false;
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            if let Some(s) = subscriber() {
                s.span_end(self.name, self.cat, &[]);
            }
        }
    }
}

/// Opens a structured span covering the enclosing scope.
///
/// `span!("name")` or `span!("name", key = value, ...)`. Returns a
/// [`SpanGuard`]; bind it to a variable (`let _span = span!(..)`). The
/// category is the call site's `module_path!()`. Field expressions are
/// evaluated **only when a subscriber is installed** — with none, the
/// whole macro is one atomic load and zero allocations.
#[macro_export]
macro_rules! span {
    ($name:expr) => { $crate::span!($name,) };
    ($name:expr, $($k:ident = $v:expr),* $(,)?) => {{
        let __obs_active = match $crate::subscriber() {
            Some(s) => {
                s.span_begin(
                    $name,
                    module_path!(),
                    &[$($crate::Field {
                        key: stringify!($k),
                        value: $crate::FieldValue::from($v),
                    }),*],
                );
                true
            }
            None => false,
        };
        $crate::SpanGuard::new($name, module_path!(), __obs_active)
    }};
}

/// Emits a structured instantaneous event.
///
/// `event!("name")` or `event!("name", key = value, ...)`. Field
/// expressions are evaluated **only when a subscriber is installed**.
#[macro_export]
macro_rules! event {
    ($name:expr) => { $crate::event!($name,) };
    ($name:expr, $($k:ident = $v:expr),* $(,)?) => {{
        if let Some(s) = $crate::subscriber() {
            s.event(
                $name,
                module_path!(),
                &[$($crate::Field {
                    key: stringify!($k),
                    value: $crate::FieldValue::from($v),
                }),*],
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(7usize), FieldValue::U64(7));
        assert_eq!(FieldValue::from(-2i64), FieldValue::I64(-2));
        assert_eq!(FieldValue::from(1.5f64), FieldValue::F64(1.5));
        assert_eq!(FieldValue::from("hit"), FieldValue::Str("hit"));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
    }

    #[test]
    fn macros_are_inert_without_subscriber() {
        // No subscriber is installed in this test binary: the guard must
        // report inactive and the field expressions must not run.
        let mut evaluated = false;
        {
            let _span = span!(
                "test.span",
                flag = {
                    evaluated = true;
                    1u32
                }
            );
            assert!(!_span.is_active());
            event!(
                "test.event",
                flag = {
                    evaluated = true;
                    2u32
                }
            );
        }
        assert!(!evaluated, "field expressions ran without a subscriber");
        assert!(subscriber().is_none());
    }

    #[test]
    fn with_subscriber_skips_closure_when_uninstalled() {
        let mut ran = false;
        with_subscriber(|_| ran = true);
        set_track_name(|| panic!("track-name closure must not run without a subscriber"));
        assert!(!ran);
    }
}
