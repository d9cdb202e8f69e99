//! # kollaps-topology
//!
//! Topology description and analysis for the Kollaps reproduction.
//!
//! An experiment is described (paper §3, Listings 1 and 2) as a set of
//! **services** (containers), **bridges** (switches/routers) and **links**
//! with latency, jitter, bandwidth and loss, plus a schedule of **dynamic
//! events** that change the topology while the experiment runs.
//!
//! * [`model`] — services, bridges, links and the [`model::Topology`]
//!   container with a builder-style API.
//! * [`dsl`] — parser for the YAML-like experiment description language of
//!   Listing 1/2, including bandwidth unit parsing (`10Mbps`, `1Gbps`, …).
//! * [`xml`] — parser for the ModelNet-like XML syntax the paper also
//!   accepts, to ease porting of existing topology files.
//! * [`events`] — the dynamic event schedule (link property changes, link
//!   and node joins/leaves).
//! * [`graph`] — adjacency structure, Dijkstra shortest paths and all-pairs
//!   path computation between services, the input of Kollaps' topology
//!   collapsing.
//! * [`generators`] — canonical topologies used in the evaluation:
//!   point-to-point, dumbbell, the Figure 8 parking-lot, Barabási–Albert
//!   scale-free graphs and the AWS geo-distributed matrices.
//! * [`geo`] — inter-region latency/jitter data embedded from the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod events;
pub mod generators;
pub mod geo;
pub mod graph;
pub mod model;
pub mod xml;

pub use events::{DynamicAction, DynamicEvent, EventSchedule};
pub use graph::TopologyGraph;
pub use model::{LinkId, LinkProperties, LinkSpec, NodeId, NodeKind, Topology};
