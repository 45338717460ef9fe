//! # taxilight-trace
//!
//! The taxi-trace data model for the `taxilight` workspace: the exact
//! 12-field record format of the paper's Table I, calendar timestamps, geo
//! primitives (haversine distances, bearings, a local tangent-plane
//! projection), a CSV codec for the upload format, per-taxi trace streams,
//! and the fleet-level statistics of the paper's Fig. 2.
//!
//! Layering: this crate depends only on [`taxilight_signal`] (for summary
//! statistics/histograms) and is depended on by the road network, the
//! simulator and the identification pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod csv;
pub mod geo;
pub mod io;
pub mod record;
pub mod source;
pub mod stats;
pub mod stream;
pub mod time;

pub use geo::GeoPoint;
pub use record::{BodyColor, Fleet, GpsCondition, PassengerState, TaxiId, TaxiInfo, TaxiRecord};
pub use source::{BadLine, CsvChunkReader, MemorySource, RecordBatch, RecordSource};
pub use stream::TraceLog;
pub use time::Timestamp;
