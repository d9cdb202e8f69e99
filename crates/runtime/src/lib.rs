//! # kollaps-runtime
//!
//! The distributed runtime: Emulation Managers as real processes over real
//! sockets (paper §4.2). Where the rest of the reproduction runs every
//! manager inside one address space on the in-process
//! [`DisseminationBus`](kollaps_metadata::bus::DisseminationBus), this
//! crate hosts one manager per `kollaps-agent` process and moves the
//! metadata over loopback UDP datagrams, coordinated by a
//! `kollaps-coordinator` that walks every agent through the bootstrap
//! handshake and checks each agent's Emulation Cores against the
//! scenario's container placement.
//!
//! * [`wire`] — length-prefixed JSON control frames over TCP.
//! * [`socket_bus`] — the [`Bus`](kollaps_metadata::bus::Bus)
//!   implementation that carries metadata over a real UDP socket while
//!   keeping every agent's session replica deterministic.
//! * [`agent`] — the per-host agent process body.
//! * [`coordinator`] — agent lifecycle, bootstrap, start barrier, report
//!   collection and merging.
//!
//! The design keeps the emulation *deterministic* even though the
//! transport is real: every agent runs the full session replica in
//! per-tick lockstep (a UDP barrier per emulation-loop iteration), so at
//! zero injected loss the merged distributed report matches the in-process
//! run bit-for-bit on every deterministic metric, while the metadata
//! accounting switches to real socket byte counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod coordinator;
pub mod socket_bus;
pub mod wire;

pub use agent::AgentError;
pub use coordinator::{
    staggered_join_scenario, AgentStats, CoordinatorError, DistributedOutcome, Launch, RunOptions,
};
pub use socket_bus::{SocketBus, SocketBusStats};
