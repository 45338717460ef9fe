//! # taxilight-roadnet
//!
//! The road-network substrate standing in for the paper's OpenStreetMap
//! layer: a directed road graph with per-segment geometry
//! ([`graph`]), signalized intersections whose approach lights are the
//! partitioning targets of the identification pipeline, a uniform-grid
//! spatial index for the nearest-segment queries map matching needs
//! ([`spatial`]), synthetic city generators ([`generators`]), and free-flow
//! Dijkstra routing used by the taxi simulator ([`routing`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod io;
pub mod routing;
pub mod spatial;

pub use graph::{
    ApproachLight, Intersection, IntersectionId, LightId, Node, NodeId, RoadNetwork, Segment,
    SegmentId,
};
pub use spatial::SegmentIndex;
