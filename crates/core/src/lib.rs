//! # taxilight-core
//!
//! Real-time traffic-light scheduling identification from low-frequency
//! taxi GPS traces — the primary contribution of He et al., *Exploiting
//! Real-Time Traffic Light Scheduling with Taxi Traces* (ICPP 2016),
//! implemented end to end:
//!
//! 1. [`preprocess`] — map matching (nearest heading-compatible segment,
//!    Fig. 5) and partitioning of records to their nearest approach light.
//! 2. [`cycle`] — cycle-length identification: spline-resample the sparse
//!    speed signal to 1 Hz, DFT, strongest in-band bin (Eqs. 1–2).
//! 3. [`enhance`] — intersection-based enhancement: mirror the
//!    perpendicular approach's speed about the intersection mean (Eq. 3)
//!    to densify sparse inputs.
//! 4. [`red`] — red-light duration from longest-stop statistics with the
//!    paper's two error filters and the border-interval classifier
//!    (Fig. 9).
//! 5. [`superpose`] — fold multiple cycles into one (Fig. 10).
//! 6. [`change_point`] — sliding-window moving-average minimum over the
//!    superposed cycle locates the red onset (Fig. 11).
//! 7. [`pipeline`] — the full per-light identifier; [`engine`] — the
//!    unified [`Identifier`] facade with deterministic sharded parallel
//!    execution (the paper notes per-light analysis "can be easily
//!    paralleled" after partitioning).
//! 8. [`monitor`] — scheduling-change identification by continuous 5-minute
//!    cycle re-estimation with outlier rejection and day-over-day
//!    correction (Fig. 12).
//! 9. [`evaluate`] — the error metrics of Figs. 13–14.
//! 10. [`view`] — [`ScheduleView`], the immutable versioned snapshot every
//!     schedule consumer (serving daemon, navsim, eval) queries instead of
//!     borrowing the mutable [`realtime::RealtimeIdentifier`].

#![warn(missing_docs)]

pub mod change_point;
pub mod config;
pub mod cycle;
pub mod engine;
pub mod enhance;
pub mod evaluate;
pub mod health;
pub mod monitor;
pub mod pipeline;
pub mod preprocess;
pub mod quality;
pub mod realtime;
pub mod red;
pub mod superpose;
pub mod view;
pub mod workspace;

#[cfg(test)]
mod golden_stages;

pub use config::{ConfigError, CycleMethod, IdentifyConfig, IdentifyConfigBuilder};
pub use engine::{
    EngineStats, ExecMode, Identifier, IdentifyOutcome, IdentifyRequest, LightSelection,
};
pub use evaluate::{
    circular_error_s, compare, red_bin_error, ErrorSummary, ScheduleErrors, ScheduleTruth,
};
pub use health::{FailureCounts, HealthRegistry, LightHealth};
pub use pipeline::{IdentifyError, LightSchedule};
pub use preprocess::{LightObs, PartitionedTraces, Preprocessor};
pub use quality::{assess_all, grade_counts, LightQuality, QualityGrade};
pub use realtime::{RealtimeBuilder, RealtimeIdentifier};
pub use taxilight_signal::periodogram::SpectrumPath;
pub use view::ScheduleView;
pub use workspace::{IdentifyWorkspace, StageTimings};
