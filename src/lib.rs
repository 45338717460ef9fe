//! # taxilight
//!
//! Umbrella crate for the `taxilight` workspace — a from-scratch Rust
//! reproduction of **He, Zhang, Cao, Liu, Fan, Xu: "Exploiting Real-Time
//! Traffic Light Scheduling with Taxi Traces" (ICPP 2016)**.
//!
//! The system infers traffic-light schedules (cycle length, red duration,
//! signal change time, scheduling changes) purely from low-frequency taxi
//! GPS traces. This crate re-exports the workspace layers:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`trace`]  | `taxilight-trace`   | Table-I records, timestamps, geodesy, CSV, Fig. 2 statistics |
//! | [`signal`] | `taxilight-signal`  | FFT/DFT, splines, convolution, histograms |
//! | [`roadnet`]| `taxilight-roadnet` | road graph, map-matching index, city generators |
//! | [`sim`]    | `taxilight-sim`     | the Shenzhen-fleet stand-in: microscopic traffic + GPS channel |
//! | [`core`]   | `taxilight-core`    | the paper's identification pipeline |
//! | [`navsim`] | `taxilight-navsim`  | the Fig. 15/16 schedule-aware navigation demo |
//!
//! ## Quickstart
//!
//! ```
//! use taxilight::core::{Identifier, IdentifyConfig, IdentifyRequest, Preprocessor};
//! use taxilight::sim::small_city;
//!
//! // Simulate a small signalized city for 90 minutes…
//! let scenario = small_city(7, 60);
//! let (mut log, _fleet) = scenario.run(90 * 60);
//!
//! // …and identify every light's schedule from the taxi traces alone.
//! let pre = Preprocessor::new(&scenario.net, IdentifyConfig::default());
//! let (parts, _stats) = pre.preprocess(&mut log);
//! let at = scenario.sim_config.start.offset(90 * 60);
//! let engine = Identifier::with_defaults(&scenario.net);
//! let outcome = engine.run(&parts, &IdentifyRequest::all(at));
//! assert!(!outcome.results.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use taxilight_core as core;
pub use taxilight_navsim as navsim;
pub use taxilight_roadnet as roadnet;
pub use taxilight_signal as signal;
pub use taxilight_sim as sim;
pub use taxilight_trace as trace;
