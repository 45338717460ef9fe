//! # taxilight-serve
//!
//! `taxilightd`: the always-on serving daemon closing the paper's §VII
//! loop — continuous re-identification from a live taxi-record feed,
//! published as immutable versioned snapshots and queried over HTTP
//! ("when does light X turn green?") by navigation clients.
//!
//! * [`store`] — the versioned schedule store: single writer, readers
//!   that share the one current snapshot, no retained history.
//! * [`ingest`] — feed wire formats (Table-I CSV and ND-JSON) behind
//!   the bounded-memory [`RecordSource`] contract.
//! * [`http`] — dependency-free HTTP/1.1 request/response plumbing.
//! * [`daemon`] — the pipeline: feed socket → bounded channel →
//!   [`RealtimeIdentifier`] rounds → store → query endpoints.
//!
//! See `docs/serving.md` for the wire protocol, snapshot semantics and
//! the backpressure model.
//!
//! [`RecordSource`]: taxilight_trace::source::RecordSource
//! [`RealtimeIdentifier`]: taxilight_core::realtime::RealtimeIdentifier

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod http;
pub mod ingest;
pub mod store;

pub use daemon::{Daemon, DaemonConfig, DaemonHandle, DaemonStats};
pub use ingest::{FeedFormat, FeedSource, NdJsonReader};
pub use store::{ScheduleStore, Snapshot, StoreReader};
