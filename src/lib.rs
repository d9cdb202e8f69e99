//! Umbrella crate re-exporting the full Kollaps reproduction API.
//!
//! See the individual crates for details; `kollaps::prelude` pulls in the
//! most common types for writing experiments.

pub use kollaps_baselines as baselines;
pub use kollaps_core as core;
pub use kollaps_dynamics as dynamics;
pub use kollaps_metadata as metadata;
pub use kollaps_netmodel as netmodel;
pub use kollaps_runtime as runtime;
pub use kollaps_scenario as scenario;
pub use kollaps_sim as sim;
pub use kollaps_topology as topology;
pub use kollaps_trace as trace;
pub use kollaps_transport as transport;
pub use kollaps_workloads as workloads;

/// The most common types for writing experiments: the simulation substrate
/// (time, units, RNG, stats), the scenario builder with its packet-level
/// [`Workload`](kollaps_scenario::Workload)s, and the entry points of the
/// emulation stack for code that needs to drive a dataplane by hand
/// through [`Runtime`](kollaps_core::runtime::Runtime).
pub mod prelude {
    pub use kollaps_sim::prelude::*;

    pub use kollaps_scenario::{
        Aggregator, Backend, Campaign, CampaignReport, FlowClassReport, PercentileStats, Report,
        Scenario, ScenarioError, Session, SessionError, Workload,
    };

    pub use kollaps_baselines::GroundTruthDataplane;
    pub use kollaps_core::collapse::Addressable;
    pub use kollaps_core::emulation::{EmulationConfig, KollapsDataplane};
    pub use kollaps_core::runtime::Runtime;
    pub use kollaps_core::CollapsedTopology;
    pub use kollaps_dynamics::{Churn, SnapshotTimeline};
    pub use kollaps_topology::dsl::parse_experiment;
    pub use kollaps_topology::model::Topology;
    pub use kollaps_transport::tcp::{CongestionAlgorithm, TcpSenderConfig, TransferSize};
}
