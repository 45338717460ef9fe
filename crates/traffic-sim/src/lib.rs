//! # taxilight-sim
//!
//! A microscopic city traffic simulator producing Table-I taxi traces with
//! exact ground-truth traffic-light schedules. This crate is the
//! workspace's substitute for the paper's proprietary billion-record
//! Shenzhen feed and for its on-site ground-truth observation campaign —
//! see DESIGN.md §2 for the substitution argument.
//!
//! * [`lights`] — phase plans, the three controller categories of the
//!   paper's Sec. III, intersection coordination, and the [`SignalMap`]
//!   ground-truth registry.
//! * [`schedule_gen`] — seeded city-wide schedule generation with the
//!   paper's category mix.
//! * [`sim`] — the 1 Hz car-following/queueing fleet simulator with the
//!   noisy, lossy GPS reporting channel.
//! * [`city`] — ready-made evaluation scenarios ([`city::paper_city`]).
//!
//! [`SignalMap`]: lights::SignalMap

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod lights;
pub mod schedule_gen;
pub mod sim;

pub use city::{custom_city, paper_city, small_city, CityScenario, CityTopology, ScenarioSpec};
pub use lights::{LightState, PhasePlan, Schedule, SignalMap};
pub use schedule_gen::{generate_signal_map, Category, ScheduleGenConfig};
pub use sim::{SimConfig, Simulator};
