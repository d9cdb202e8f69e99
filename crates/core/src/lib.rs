//! # kollaps-core
//!
//! The heart of the Kollaps reproduction: topology collapsing, the
//! RTT-aware Min-Max bandwidth sharing model, the per-host Emulation
//! Manager loop, and the experiment runtime that drives transport endpoints
//! against a dataplane.
//!
//! * [`collapse`] — from the target topology to end-to-end virtual links
//!   (latency, jitter, loss, maximum bandwidth, traversed links).
//! * [`sharing`] — the RTT-aware Min-Max share with the work-conserving
//!   maximization step; the analytic values of the paper's Figure 8 are unit
//!   tests of this module.
//! * [`emulation`] — [`emulation::KollapsDataplane`], the collapsed
//!   dataplane: per-container egress qdisc trees (the TCAL state), placement
//!   over physical hosts, metadata dissemination and the five-step emulation
//!   loop including congestion loss injection and dynamic topology events.
//! * [`runtime`] — the [`runtime::Dataplane`] trait and the experiment
//!   [`runtime::Runtime`] that moves packets between TCP/UDP/ICMP endpoints
//!   and the network under test; the full-state baselines implement the same
//!   trait, so every workload runs unmodified on either.
//! * [`timeline`] — the offline dynamics engine: the whole sequence of
//!   collapsed snapshots of a dynamic experiment precomputed up front,
//!   delta-encoded with structural sharing, so runtime event application
//!   never recomputes paths (re-exported as the public face of
//!   `kollaps_dynamics`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom backstop for the hot paths: kollaps-analyze's
// `hot-path-panic` rule is the enforced gate; clippy flags what the
// heuristic scanner structurally cannot see (unwraps behind macros etc.).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod collapse;
pub mod emulation;
pub mod manager;
pub mod runtime;
pub mod sharing;
pub mod timeline;

pub use collapse::{Addressable, CollapsedPath, CollapsedTopology, FlowPath, LinkTable};
pub use emulation::{
    ConvergenceStats, DynamicsStats, EmulationConfig, KollapsDataplane, PacketPathStats,
};
pub use manager::EmulationManager;
pub use runtime::{Dataplane, EventLoopStats, Runtime, RuntimeEvent, SendOutcome};
pub use sharing::{
    allocate, oversubscription, Allocation, Allocator, AllocatorStats, FlowDemand, FlowRef,
};
pub use timeline::{SnapshotDelta, SnapshotTimeline, TimelineStats};
