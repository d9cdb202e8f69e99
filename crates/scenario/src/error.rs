//! Typed errors of the scenario layer.
//!
//! Every way a scenario can be invalid is a dedicated variant, so callers
//! (and tests) can match on the exact failure instead of parsing a panic
//! message or unwrapping an anonymous `Option`.

use std::fmt;

use kollaps_topology::dsl::ParseError;
use kollaps_topology::xml::XmlError;

/// Everything that can go wrong between `Scenario::from_*` and the final
/// [`crate::Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The experiment-DSL text did not parse.
    Parse(ParseError),
    /// The ModelNet XML text did not parse.
    Xml(XmlError),
    /// A single referenced node name does not exist in the topology
    /// (placement pins, injected dynamic events).
    UnknownNode {
        /// The unknown name.
        name: String,
    },
    /// Workload endpoints reference node names the topology does not
    /// declare — **all** of them, collected across every workload of the
    /// scenario in one pass, so a misspelled scenario is fixed once, not
    /// one `run()` per typo.
    UnknownNodes {
        /// Every unknown name, deduplicated, in first-reference order.
        names: Vec<String>,
    },
    /// A workload endpoint names a bridge; traffic can only originate at or
    /// target service (container) nodes.
    NotAService {
        /// The bridge name.
        name: String,
    },
    /// The topology declares a link that can never carry traffic.
    ZeroBandwidthLink {
        /// Display name of the link's origin node.
        orig: String,
        /// Display name of the link's destination node.
        dest: String,
    },
    /// The topology declares more services than the 10.1.0.0/16 container
    /// network has addresses; every backend numbers its services there.
    TooManyServices {
        /// Services the topology declares.
        services: usize,
        /// Container addresses in the /16.
        limit: usize,
    },
    /// The scenario deploys onto more physical hosts than the container
    /// network has addresses, so some host could never hold a container.
    TooManyHosts {
        /// Hosts the scenario deploys onto.
        hosts: usize,
        /// Container addresses in the /16.
        limit: usize,
    },
    /// The selected backend cannot emulate this scenario (e.g. Mininet's
    /// 1 Gb/s shaping ceiling, or dynamic events on a baseline that has no
    /// emulation manager to apply them).
    UnsupportedBackend {
        /// The backend's name.
        backend: String,
        /// Human-readable reason.
        reason: String,
    },
    /// An explicit container placement is inconsistent: the pinned host
    /// index does not exist, or the same service is pinned to two different
    /// hosts.
    InvalidPlacement {
        /// The service being placed.
        name: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A churn spec is invalid for this topology (unknown node, no link to
    /// flap, out-of-range parameter, malformed trace).
    InvalidChurn {
        /// Human-readable reason (the churn generator's typed error,
        /// rendered).
        reason: String,
    },
    /// The scenario has no workloads; running it would measure nothing.
    EmptyWorkload,
    /// A pacing interval is zero: the session's
    /// [`crate::Scenario::step_interval`], or the Kollaps backend's
    /// emulation `loop_interval`.
    InvalidStepInterval {
        /// The knob's name (`step_interval` or `loop_interval`).
        knob: &'static str,
    },
    /// A workload is self-contradictory (same endpoints, zero rate, zero
    /// probe count, no clients, ...).
    InvalidWorkload {
        /// Human-readable reason.
        reason: String,
    },
    /// A serialized scenario spec (the wire form the distributed runtime
    /// ships to its agents) is malformed or has an unsupported version.
    Spec {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "experiment description: {e}"),
            ScenarioError::Xml(e) => write!(f, "ModelNet XML: {e}"),
            ScenarioError::UnknownNode { name } => {
                write!(f, "scenario references unknown node `{name}`")
            }
            ScenarioError::UnknownNodes { names } => {
                write!(f, "workloads reference unknown nodes: ")?;
                for (i, name) in names.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{name}`")?;
                }
                Ok(())
            }
            ScenarioError::NotAService { name } => {
                write!(f, "workload endpoint `{name}` is a bridge, not a service")
            }
            ScenarioError::ZeroBandwidthLink { orig, dest } => {
                write!(f, "link {orig} -> {dest} has zero bandwidth")
            }
            ScenarioError::TooManyServices { services, limit } => write!(
                f,
                "the topology declares {services} services; the 10.1.0.0/16 container \
                 network addresses at most {limit}"
            ),
            ScenarioError::TooManyHosts { hosts, limit } => write!(
                f,
                "the scenario deploys onto {hosts} hosts; the 10.1.0.0/16 container \
                 network addresses at most {limit} containers"
            ),
            ScenarioError::UnsupportedBackend { backend, reason } => {
                write!(f, "backend `{backend}` cannot run this scenario: {reason}")
            }
            ScenarioError::InvalidPlacement { name, reason } => {
                write!(f, "invalid placement of `{name}`: {reason}")
            }
            ScenarioError::InvalidChurn { reason } => {
                write!(f, "invalid churn: {reason}")
            }
            ScenarioError::EmptyWorkload => {
                write!(f, "scenario declares no workloads")
            }
            ScenarioError::InvalidStepInterval { knob } => {
                write!(f, "session {knob} must be positive")
            }
            ScenarioError::InvalidWorkload { reason } => {
                write!(f, "invalid workload: {reason}")
            }
            ScenarioError::Spec { reason } => {
                write!(f, "invalid scenario spec: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<XmlError> for ScenarioError {
    fn from(e: XmlError) -> Self {
        ScenarioError::Xml(e)
    }
}

impl From<serde_json::FieldError> for ScenarioError {
    fn from(e: serde_json::FieldError) -> Self {
        ScenarioError::Spec {
            reason: e.to_string(),
        }
    }
}

impl From<kollaps_dynamics::ChurnError> for ScenarioError {
    fn from(e: kollaps_dynamics::ChurnError) -> Self {
        ScenarioError::InvalidChurn {
            reason: e.to_string(),
        }
    }
}
