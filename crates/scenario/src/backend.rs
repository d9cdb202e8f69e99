//! The unified backend selection: one construction-and-addressing
//! abstraction over the Kollaps collapsed emulation and every full-state
//! baseline.
//!
//! A [`Backend`] value captures the *choice* of network under test, and
//! the crate-private `AnyDataplane` lets the scenario session drive
//! whichever one was chosen through the common [`Dataplane`] +
//! [`Addressable`] traits. Kollaps-only state is read through
//! `AnyDataplane::kollaps`, never projected here.

use kollaps_baselines::maxinet::MaxinetConfig;
use kollaps_baselines::mininet::MininetConfig;
use kollaps_baselines::{
    GroundTruthDataplane, MaxinetDataplane, MininetDataplane, TrickleConfig, TrickleDataplane,
};
use kollaps_core::collapse::{Addressable, CollapsedTopology};
use kollaps_core::emulation::{EmulationConfig, KollapsDataplane};
use kollaps_core::runtime::{Dataplane, SendOutcome};
use kollaps_core::timeline::SnapshotTimeline;
use kollaps_netmodel::packet::{Addr, Packet};
use kollaps_sim::prelude::*;
use kollaps_topology::events::{DynamicAction, EventSchedule};
use kollaps_topology::model::Topology;

use crate::error::ScenarioError;

/// Link ids the Kollaps metadata wire format can name (`u16`).
const WIRE_LINK_IDS: u64 = 1 << 16;

/// Which network-under-test a scenario runs against.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The Kollaps collapsed emulation (paper §3-4).
    Kollaps {
        /// Number of physical hosts containers are spread over.
        hosts: usize,
        /// Emulation tuning knobs.
        config: EmulationConfig,
    },
    /// Hop-by-hop simulation of the target topology ("bare metal").
    GroundTruth,
    /// Mininet-like single-host full-state emulator.
    Mininet(MininetConfig),
    /// Maxinet-like distributed emulator with an external controller.
    Maxinet(MaxinetConfig),
    /// Trickle-like userspace bandwidth shaper.
    Trickle(TrickleConfig),
}

impl Backend {
    /// The Kollaps emulation on a single physical host with the default
    /// configuration.
    pub fn kollaps() -> Self {
        Backend::kollaps_on(1)
    }

    /// The Kollaps emulation over `hosts` physical hosts.
    pub fn kollaps_on(hosts: usize) -> Self {
        Backend::Kollaps {
            hosts,
            config: EmulationConfig::default(),
        }
    }

    /// The Kollaps emulation with explicit tuning.
    pub fn kollaps_with(hosts: usize, config: EmulationConfig) -> Self {
        Backend::Kollaps { hosts, config }
    }

    /// The hop-by-hop ground-truth simulation.
    pub fn ground_truth() -> Self {
        Backend::GroundTruth
    }

    /// The Mininet model with default parameters.
    pub fn mininet() -> Self {
        Backend::Mininet(MininetConfig::default())
    }

    /// The Maxinet model with default parameters.
    pub fn maxinet() -> Self {
        Backend::Maxinet(MaxinetConfig::default())
    }

    /// The Maxinet model with explicit parameters.
    pub fn maxinet_with(config: MaxinetConfig) -> Self {
        Backend::Maxinet(config)
    }

    /// The Trickle model shaping to `config.target`.
    pub fn trickle(config: TrickleConfig) -> Self {
        Backend::Trickle(config)
    }

    /// Stable name used in reports and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Kollaps { .. } => "kollaps",
            Backend::GroundTruth => "ground-truth",
            Backend::Mininet(_) => "mininet",
            Backend::Maxinet(_) => "maxinet",
            Backend::Trickle(_) => "trickle",
        }
    }

    /// Number of physical hosts this backend models.
    pub fn hosts(&self) -> usize {
        match self {
            Backend::Kollaps { hosts, .. } => (*hosts).max(1),
            _ => 1,
        }
    }

    /// Checks that this backend can emulate `topology` with `schedule`.
    pub(crate) fn validate(
        &self,
        topology: &Topology,
        schedule: &EventSchedule,
    ) -> Result<(), ScenarioError> {
        if !matches!(self, Backend::Kollaps { .. }) && !schedule.is_empty() {
            return Err(ScenarioError::UnsupportedBackend {
                backend: self.name().to_string(),
                reason: "dynamic topology events require the Kollaps emulation manager".to_string(),
            });
        }
        if matches!(self, Backend::Kollaps { .. }) {
            // Emulation Managers advertise paths as 16-bit link ids on the
            // metadata wire; every `LinkJoin` allocates two fresh ids.
            let joins = schedule
                .events()
                .iter()
                .filter(|event| matches!(event.action, DynamicAction::LinkJoin { .. }))
                .count() as u64;
            let declared = topology.links().iter().map(|l| u64::from(l.id.0) + 1).max();
            let link_ids = declared.unwrap_or(0) + 2 * joins;
            if link_ids > WIRE_LINK_IDS {
                return Err(ScenarioError::UnsupportedBackend {
                    backend: self.name().to_string(),
                    reason: format!(
                        "the scenario uses {link_ids} link ids; the metadata wire's 16-bit \
                         link ids name at most {WIRE_LINK_IDS}"
                    ),
                });
            }
        }
        if let Backend::Mininet(config) = self {
            if let Some(link) = config.unshapeable_link(topology) {
                return Err(ScenarioError::UnsupportedBackend {
                    backend: self.name().to_string(),
                    reason: format!(
                        "link rate {} exceeds the {} shaping ceiling",
                        link.properties.bandwidth, config.max_shaped_bandwidth
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds the dataplane. `validate` must have passed. `placement` pins
    /// services to host indices (Kollaps only; the other backends model a
    /// single host). A `prepared` snapshot timeline — precomputed from the
    /// *same* topology and schedule, typically by a [`crate::Campaign`]
    /// sharing one precompute across variants — is cloned instead of
    /// re-deriving everything; the clone shares all snapshot and path data
    /// structurally behind `Arc`s.
    pub(crate) fn build(
        &self,
        topology: Topology,
        schedule: EventSchedule,
        placement: &std::collections::HashMap<kollaps_topology::model::NodeId, u32>,
        prepared: Option<&SnapshotTimeline>,
    ) -> AnyDataplane {
        match self {
            Backend::Kollaps { hosts, config } => {
                let timeline = match prepared {
                    Some(timeline) => timeline.clone(),
                    None => SnapshotTimeline::precompute(&topology, &schedule),
                };
                AnyDataplane::Kollaps(Box::new(KollapsDataplane::with_prepared(
                    timeline,
                    (*hosts).max(1),
                    placement,
                    *config,
                )))
            }
            Backend::GroundTruth => {
                AnyDataplane::GroundTruth(Box::new(GroundTruthDataplane::new(&topology)))
            }
            Backend::Mininet(config) => {
                AnyDataplane::Mininet(Box::new(MininetDataplane::with_config(&topology, *config)))
            }
            Backend::Maxinet(config) => {
                AnyDataplane::Maxinet(Box::new(MaxinetDataplane::with_config(&topology, *config)))
            }
            Backend::Trickle(config) => {
                AnyDataplane::Trickle(Box::new(TrickleDataplane::new(&topology, *config)))
            }
        }
    }
}

/// Runtime-dispatched dataplane: whichever backend the scenario selected,
/// driven through the shared [`Dataplane`] and [`Addressable`] traits.
pub(crate) enum AnyDataplane {
    /// The Kollaps collapsed emulation.
    Kollaps(Box<KollapsDataplane>),
    /// The hop-by-hop ground truth.
    GroundTruth(Box<GroundTruthDataplane>),
    /// The Mininet model.
    Mininet(Box<MininetDataplane>),
    /// The Maxinet model.
    Maxinet(Box<MaxinetDataplane>),
    /// The Trickle model.
    Trickle(Box<TrickleDataplane>),
}

macro_rules! dispatch {
    ($self:expr, $dp:ident => $body:expr) => {
        match $self {
            AnyDataplane::Kollaps($dp) => $body,
            AnyDataplane::GroundTruth($dp) => $body,
            AnyDataplane::Mininet($dp) => $body,
            AnyDataplane::Maxinet($dp) => $body,
            AnyDataplane::Trickle($dp) => $body,
        }
    };
}

impl AnyDataplane {
    /// The Kollaps dataplane, when that is the selected backend.
    pub(crate) fn kollaps(&self) -> Option<&KollapsDataplane> {
        match self {
            AnyDataplane::Kollaps(dp) => Some(dp),
            _ => None,
        }
    }

    /// Mutable access to the Kollaps dataplane, for steering.
    pub(crate) fn kollaps_mut(&mut self) -> Option<&mut KollapsDataplane> {
        match self {
            AnyDataplane::Kollaps(dp) => Some(dp),
            _ => None,
        }
    }
}

impl Addressable for AnyDataplane {
    fn collapsed(&self) -> &CollapsedTopology {
        dispatch!(self, dp => dp.collapsed())
    }
}

impl Dataplane for AnyDataplane {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        dispatch!(self, dp => dp.send(now, packet))
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        dispatch!(self, dp => dp.next_wakeup(now))
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        dispatch!(self, dp => dp.deliver(now))
    }

    fn has_room(&self, src: Addr, dst: Addr) -> bool {
        dispatch!(self, dp => dp.has_room(src, dst))
    }

    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        dispatch!(self, dp => dp.tick(now))
    }
}
