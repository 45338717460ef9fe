//! # taxilight-navsim
//!
//! The navigation demo of the paper's Sec. VIII-B (Figs. 15–16), built as
//! a purpose-made substitute for SUMO: a grid world with runtime-queryable
//! traffic lights, deterministic single-vehicle travel simulation, and
//! three navigation strategies —
//!
//! * **free-flow** (the conventional shortest-time baseline that considers
//!   only traffic speed),
//! * the paper's **exhaustive trajectory enumeration** with re-planning at
//!   every intersection (explicitly non-polynomial; hop-bounded here), and
//! * an **exact time-dependent Dijkstra** extension that computes the true
//!   optimum in polynomial time — used both as an upper bound on
//!   achievable savings and as a correctness oracle for the enumeration.
//!
//! The headline experiment ([`experiment`]) reproduces Fig. 16: savings
//! from schedule-aware routing grow with trip distance toward ~15 %.
//! [`advisory`] adds the paper's other motivating application: a
//! green-catching speed advisory for a single approach.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisory;
pub mod experiment;
pub mod routing;
pub mod travel;
pub mod world;

pub use advisory::{green_window_advice, plan_corridor, CorridorPlan, GreenAdvice};
pub use experiment::{run_fig16, Fig16Config, Fig16Row};
pub use routing::{navigate, NavOutcome, Strategy};
pub use world::NavWorld;
