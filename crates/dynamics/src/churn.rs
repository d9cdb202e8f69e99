//! Churn scenario generators: typed, validated sources of dynamic-event
//! schedules.
//!
//! Each generator is a small declarative spec that, applied to a concrete
//! [`Topology`], expands into an [`EventSchedule`] — the same schedule type
//! hand-written dynamics use, so generated churn flows through the exact
//! pipeline the paper describes (offline snapshot precompute, delta swaps
//! at runtime). Generation is deterministic from the explicit seed.
//!
//! A "node leave" here detaches every link of the node and a "node join"
//! re-attaches them with their original properties: at the topology level
//! that is exactly what a container crash/restart looks like (the paper's
//! service joins are an orchestrator concern — the address and the node
//! survive, its connectivity does not).

use kollaps_sim::rng::SimRng;
use kollaps_sim::time::SimDuration;
use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule, LinkChange};
use kollaps_topology::model::{NodeId, Topology};

use crate::trace;

/// Everything that can be wrong with a churn spec, detected before any
/// event is generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// The spec references a node name the topology does not declare.
    UnknownNode {
        /// The unknown name.
        name: String,
    },
    /// The spec references a link (node pair) with no links between them.
    NoLinkBetween {
        /// Origin node name.
        orig: String,
        /// Destination node name.
        dest: String,
    },
    /// A parameter is out of range (zero horizon, empty node list, ...).
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// A trace failed to parse.
    Trace(trace::TraceError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::UnknownNode { name } => {
                write!(f, "churn references unknown node `{name}`")
            }
            ChurnError::NoLinkBetween { orig, dest } => {
                write!(f, "no link between `{orig}` and `{dest}` to churn")
            }
            ChurnError::InvalidSpec { reason } => write!(f, "invalid churn spec: {reason}"),
            ChurnError::Trace(e) => write!(f, "churn trace: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<trace::TraceError> for ChurnError {
    fn from(e: trace::TraceError) -> Self {
        ChurnError::Trace(e)
    }
}

#[derive(Debug, Clone)]
enum ChurnKind {
    PoissonFlaps {
        links: Vec<(String, String)>,
        mean_up: SimDuration,
        mean_down: SimDuration,
    },
    StaggeredNodes {
        nodes: Vec<String>,
        stagger: SimDuration,
        downtime: SimDuration,
        rounds: usize,
    },
    Partition {
        left: Vec<String>,
        right: Vec<String>,
        heal_after: Option<SimDuration>,
    },
    BandwidthRamp {
        orig: String,
        dest: String,
        to_fraction: f64,
        duration: SimDuration,
        steps: usize,
    },
    Trace {
        json: String,
    },
}

/// A declarative churn spec: what to shake, how hard, and from when.
///
/// Build one with a constructor ([`Churn::poisson_flaps`],
/// [`Churn::staggered_nodes`], [`Churn::partition`],
/// [`Churn::bandwidth_ramp`], [`Churn::trace`]), tune it with the setters,
/// then either pass it to `Scenario::churn(..)` or expand it yourself with
/// [`Churn::generate`].
#[derive(Debug, Clone)]
pub struct Churn {
    kind: ChurnKind,
    start: SimDuration,
    horizon: SimDuration,
    seed: u64,
    /// The first rate factor [`Churn::scale_rate`] refused; [`Churn::generate`]
    /// reports it.
    invalid_rate: Option<f64>,
}

impl Churn {
    fn new(kind: ChurnKind) -> Self {
        Churn {
            kind,
            start: SimDuration::ZERO,
            horizon: SimDuration::from_secs(60),
            seed: 1,
            invalid_rate: None,
        }
    }

    /// Poisson link flapping: each named link alternates between up and
    /// down, with exponentially distributed uptimes and downtimes (defaults:
    /// 5 s up, 500 ms down). Links are named by their endpoint node names;
    /// a downed link is removed entirely and restored with its original
    /// properties.
    pub fn poisson_flaps(links: &[(&str, &str)]) -> Self {
        Churn::new(ChurnKind::PoissonFlaps {
            links: links
                .iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            mean_up: SimDuration::from_secs(5),
            mean_down: SimDuration::from_millis(500),
        })
    }

    /// Staggered node churn: node `i` of `nodes` detaches (all its links
    /// leave) at `start + i·stagger` and re-attaches `downtime` later with
    /// the original link properties. With [`Churn::rounds`] > 1 the whole
    /// wave repeats. Defaults: 1 s stagger, 2 s downtime, one round.
    pub fn staggered_nodes(nodes: &[&str]) -> Self {
        Churn::new(ChurnKind::StaggeredNodes {
            nodes: nodes.iter().map(|&n| n.to_string()).collect(),
            stagger: SimDuration::from_secs(1),
            downtime: SimDuration::from_secs(2),
            rounds: 1,
        })
    }

    /// Network partition: every link crossing between the `left` and
    /// `right` node sets leaves at [`Churn::start`], and — unless the
    /// partition is permanent — heals (links rejoin with original
    /// properties) after [`Churn::heal_after`].
    pub fn partition(left: &[&str], right: &[&str]) -> Self {
        Churn::new(ChurnKind::Partition {
            left: left.iter().map(|&n| n.to_string()).collect(),
            right: right.iter().map(|&n| n.to_string()).collect(),
            heal_after: Some(SimDuration::from_secs(5)),
        })
    }

    /// Bandwidth-degradation ramp: the link(s) between `orig` and `dest`
    /// scale linearly from full capacity down to `to_fraction` of it over
    /// [`Churn::ramp_duration`], in [`Churn::steps`] equal steps starting
    /// at [`Churn::start`].
    pub fn bandwidth_ramp(orig: &str, dest: &str, to_fraction: f64) -> Self {
        Churn::new(ChurnKind::BandwidthRamp {
            orig: orig.to_string(),
            dest: dest.to_string(),
            to_fraction,
            duration: SimDuration::from_secs(10),
            steps: 10,
        })
    }

    /// Replay of a recorded trace in the JSON format documented in
    /// [`crate::trace`]. The trace may list records in any order; the
    /// schedule is normalized on construction.
    pub fn trace(json: &str) -> Self {
        Churn::new(ChurnKind::Trace {
            json: json.to_string(),
        })
    }

    /// When the churn begins (default: experiment start).
    pub fn start(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }

    /// How long the churn keeps going, for the open-ended generators
    /// (Poisson flaps). Default 60 s.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Seed of the generator's private RNG (flap timings). Default 1.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mean exponential uptime between flaps (Poisson flaps only).
    pub fn mean_uptime(mut self, mean: SimDuration) -> Self {
        if let ChurnKind::PoissonFlaps { mean_up, .. } = &mut self.kind {
            *mean_up = mean;
        }
        self
    }

    /// Mean exponential downtime per flap (Poisson flaps only).
    pub fn mean_downtime(mut self, mean: SimDuration) -> Self {
        if let ChurnKind::PoissonFlaps { mean_down, .. } = &mut self.kind {
            *mean_down = mean;
        }
        self
    }

    /// Delay between consecutive node departures (staggered churn only).
    pub fn stagger(mut self, delay: SimDuration) -> Self {
        if let ChurnKind::StaggeredNodes { stagger, .. } = &mut self.kind {
            *stagger = delay;
        }
        self
    }

    /// How long each churned node stays detached (staggered churn only).
    pub fn downtime(mut self, time: SimDuration) -> Self {
        if let ChurnKind::StaggeredNodes { downtime, .. } = &mut self.kind {
            *downtime = time;
        }
        self
    }

    /// Number of leave/rejoin waves (staggered churn only).
    pub fn rounds(mut self, n: usize) -> Self {
        if let ChurnKind::StaggeredNodes { rounds, .. } = &mut self.kind {
            *rounds = n;
        }
        self
    }

    /// Time until the partition heals; `None` keeps it forever (partition
    /// only).
    pub fn heal_after(mut self, after: Option<SimDuration>) -> Self {
        if let ChurnKind::Partition { heal_after, .. } = &mut self.kind {
            *heal_after = after;
        }
        self
    }

    /// Total ramp time (bandwidth ramp only).
    pub fn ramp_duration(mut self, duration: SimDuration) -> Self {
        if let ChurnKind::BandwidthRamp { duration: d, .. } = &mut self.kind {
            *d = duration;
        }
        self
    }

    /// Number of discrete ramp steps (bandwidth ramp only).
    pub fn steps(mut self, n: usize) -> Self {
        if let ChurnKind::BandwidthRamp { steps, .. } = &mut self.kind {
            *steps = n;
        }
        self
    }

    /// Scales the churn **rate** by `factor`: every temporal spacing of the
    /// spec (flap mean up/downtimes, node stagger and downtime, partition
    /// heal delay, ramp duration) is divided by it, so `factor = 2.0` makes
    /// the same churn happen twice as fast within the same horizon. Trace
    /// replays are untouched (their timestamps are data, not a knob). This
    /// is the `Campaign::vary_churn_rate` axis.
    ///
    /// A `factor` that is not a positive finite number scales nothing:
    /// the spec remembers it and [`Churn::generate`] rejects it with
    /// [`ChurnError::InvalidSpec`].
    pub fn scale_rate(mut self, factor: f64) -> Self {
        if !(factor.is_finite() && factor > 0.0) {
            self.invalid_rate = self.invalid_rate.or(Some(factor));
            return self;
        }
        let scale = |d: SimDuration| d.mul_f64(1.0 / factor);
        match &mut self.kind {
            ChurnKind::PoissonFlaps {
                mean_up, mean_down, ..
            } => {
                *mean_up = scale(*mean_up);
                *mean_down = scale(*mean_down);
            }
            ChurnKind::StaggeredNodes {
                stagger, downtime, ..
            } => {
                *stagger = scale(*stagger);
                *downtime = scale(*downtime);
            }
            ChurnKind::Partition { heal_after, .. } => {
                *heal_after = heal_after.map(scale);
            }
            ChurnKind::BandwidthRamp { duration, .. } => {
                *duration = scale(*duration);
            }
            ChurnKind::Trace { .. } => {}
        }
        self
    }

    /// Validates the spec against `topology` and expands it into a sorted
    /// [`EventSchedule`].
    pub fn generate(&self, topology: &Topology) -> Result<EventSchedule, ChurnError> {
        if let Some(factor) = self.invalid_rate {
            return Err(invalid(&format!(
                "churn rate factor must be a positive finite number, got {factor}"
            )));
        }
        let mut events: Vec<DynamicEvent> = Vec::new();
        match &self.kind {
            ChurnKind::PoissonFlaps {
                links,
                mean_up,
                mean_down,
            } => {
                if links.is_empty() {
                    return Err(invalid("poisson flaps need at least one link"));
                }
                if mean_up.is_zero() || mean_down.is_zero() {
                    return Err(invalid("flap mean uptime/downtime must be positive"));
                }
                if self.horizon.is_zero() {
                    return Err(invalid("flap horizon must be positive"));
                }
                for (i, (orig, dest)) in links.iter().enumerate() {
                    let restore = restore_change(topology, orig, dest)?;
                    let mut rng = SimRng::new(self.seed).derive(i as u64);
                    let end = self.start + self.horizon;
                    let mut t = self.start;
                    loop {
                        t += SimDuration::from_secs_f64(
                            rng.exponential(1.0 / mean_up.as_secs_f64()),
                        );
                        if t >= end {
                            break;
                        }
                        events.push(DynamicEvent {
                            at: t,
                            action: DynamicAction::LinkLeave {
                                orig: orig.clone(),
                                dest: dest.clone(),
                            },
                        });
                        let down = SimDuration::from_secs_f64(
                            rng.exponential(1.0 / mean_down.as_secs_f64()),
                        );
                        // A flap that would outlive the horizon heals at the
                        // horizon: churn never leaves the topology degraded
                        // past its own window.
                        t = (t + down).min(end);
                        events.push(DynamicEvent {
                            at: t,
                            action: DynamicAction::LinkJoin {
                                orig: orig.clone(),
                                dest: dest.clone(),
                                change: restore,
                            },
                        });
                    }
                }
            }
            ChurnKind::StaggeredNodes {
                nodes,
                stagger,
                downtime,
                rounds,
            } => {
                if nodes.is_empty() {
                    return Err(invalid("staggered churn needs at least one node"));
                }
                if *rounds == 0 {
                    return Err(invalid("staggered churn needs at least one round"));
                }
                if downtime.is_zero() {
                    return Err(invalid("staggered churn downtime must be positive"));
                }
                let attachments: Vec<(String, Vec<(String, LinkChange)>)> = nodes
                    .iter()
                    .map(|name| {
                        let peers = node_attachments(topology, name)?;
                        Ok((name.clone(), peers))
                    })
                    .collect::<Result<_, ChurnError>>()?;
                let wave = *stagger * nodes.len() as u64 + *downtime;
                for round in 0..*rounds {
                    let round_start = self.start + wave * round as u64;
                    for (i, (name, peers)) in attachments.iter().enumerate() {
                        let leave = round_start + *stagger * i as u64;
                        let rejoin = leave + *downtime;
                        for (peer, restore) in peers {
                            events.push(DynamicEvent {
                                at: leave,
                                action: DynamicAction::LinkLeave {
                                    orig: name.clone(),
                                    dest: peer.clone(),
                                },
                            });
                            events.push(DynamicEvent {
                                at: rejoin,
                                action: DynamicAction::LinkJoin {
                                    orig: name.clone(),
                                    dest: peer.clone(),
                                    change: *restore,
                                },
                            });
                        }
                    }
                }
            }
            ChurnKind::Partition {
                left,
                right,
                heal_after,
            } => {
                if left.is_empty() || right.is_empty() {
                    return Err(invalid("both partition sides need at least one node"));
                }
                let left_ids = resolve_all(topology, left)?;
                let right_ids = resolve_all(topology, right)?;
                if let Some(shared) = left.iter().find(|n| right.contains(n)) {
                    return Err(invalid(&format!("`{shared}` is on both partition sides")));
                }
                // Links are stored unidirectionally; normalize each crossing
                // to (left node, right node) — `LinkLeave` removes both
                // directions at once.
                let mut crossing: Vec<(String, String)> = Vec::new();
                for link in topology.links() {
                    let pair = if left_ids.contains(&link.from) && right_ids.contains(&link.to) {
                        Some((link.from, link.to))
                    } else if right_ids.contains(&link.from) && left_ids.contains(&link.to) {
                        Some((link.to, link.from))
                    } else {
                        None
                    };
                    if let Some((l, r)) = pair {
                        let entry = (node_name(topology, l), node_name(topology, r));
                        if !crossing.contains(&entry) {
                            crossing.push(entry);
                        }
                    }
                }
                if crossing.is_empty() {
                    return Err(invalid("no links cross the requested partition"));
                }
                for (orig, dest) in &crossing {
                    let restore = restore_change(topology, orig, dest)?;
                    events.push(DynamicEvent {
                        at: self.start,
                        action: DynamicAction::LinkLeave {
                            orig: orig.clone(),
                            dest: dest.clone(),
                        },
                    });
                    if let Some(heal) = heal_after {
                        events.push(DynamicEvent {
                            at: self.start + *heal,
                            action: DynamicAction::LinkJoin {
                                orig: orig.clone(),
                                dest: dest.clone(),
                                change: restore,
                            },
                        });
                    }
                }
            }
            ChurnKind::BandwidthRamp {
                orig,
                dest,
                to_fraction,
                duration,
                steps,
            } => {
                if !(*to_fraction > 0.0 && *to_fraction <= 1.0) {
                    return Err(invalid("ramp target fraction must be in (0, 1]"));
                }
                if *steps == 0 {
                    return Err(invalid("ramp needs at least one step"));
                }
                if duration.is_zero() {
                    return Err(invalid("ramp duration must be positive"));
                }
                let base = restore_change(topology, orig, dest)?;
                let (Some(up0), Some(down0)) = (base.up, base.down) else {
                    return Err(ChurnError::NoLinkBetween {
                        orig: orig.clone(),
                        dest: dest.clone(),
                    });
                };
                for k in 1..=*steps {
                    let progress = k as f64 / *steps as f64;
                    let fraction = 1.0 + (to_fraction - 1.0) * progress;
                    events.push(DynamicEvent {
                        at: self.start
                            + SimDuration::from_secs_f64(duration.as_secs_f64() * progress),
                        action: DynamicAction::SetLinkProperties {
                            orig: orig.clone(),
                            dest: dest.clone(),
                            change: LinkChange {
                                up: Some(up0.mul_f64(fraction)),
                                down: Some(down0.mul_f64(fraction)),
                                ..LinkChange::default()
                            },
                        },
                    });
                }
            }
            ChurnKind::Trace { json } => {
                let schedule = trace::parse_trace(json)?;
                // Traces address nodes by name; validate them against the
                // topology so a typo fails loudly instead of becoming the
                // silent no-op `apply_action` turns unknown names into.
                for event in schedule.events() {
                    for name in action_names(&event.action) {
                        if topology.node_by_name(name).is_none() {
                            return Err(ChurnError::UnknownNode {
                                name: name.to_string(),
                            });
                        }
                    }
                }
                return Ok(schedule);
            }
        }
        Ok(EventSchedule::from_events(events))
    }
}

fn invalid(reason: &str) -> ChurnError {
    ChurnError::InvalidSpec {
        reason: reason.to_string(),
    }
}

fn resolve(topology: &Topology, name: &str) -> Result<NodeId, ChurnError> {
    topology
        .node_by_name(name)
        .ok_or_else(|| ChurnError::UnknownNode {
            name: name.to_string(),
        })
}

fn resolve_all(topology: &Topology, names: &[String]) -> Result<Vec<NodeId>, ChurnError> {
    names.iter().map(|n| resolve(topology, n)).collect()
}

fn node_name(topology: &Topology, id: NodeId) -> String {
    topology
        .node(id)
        .map(|n| n.kind.display_name())
        .unwrap_or_else(|| format!("#{id}"))
}

/// The [`LinkChange`] that restores the link(s) between `orig` and `dest`
/// to their current properties: forward bandwidth as `up`, reverse as
/// `down`, latency/jitter/loss from the forward direction.
fn restore_change(topology: &Topology, orig: &str, dest: &str) -> Result<LinkChange, ChurnError> {
    let a = resolve(topology, orig)?;
    let b = resolve(topology, dest)?;
    let forward = topology
        .links()
        .iter()
        .find(|l| l.from == a && l.to == b)
        .map(|l| l.properties);
    let backward = topology
        .links()
        .iter()
        .find(|l| l.from == b && l.to == a)
        .map(|l| l.properties);
    let reference = forward
        .or(backward)
        .ok_or_else(|| ChurnError::NoLinkBetween {
            orig: orig.to_string(),
            dest: dest.to_string(),
        })?;
    Ok(LinkChange {
        latency: Some(reference.latency),
        jitter: Some(reference.jitter),
        up: Some(forward.unwrap_or(reference).bandwidth),
        down: Some(backward.unwrap_or(reference).bandwidth),
        loss: Some(reference.loss),
    })
}

/// Every peer `name` is attached to, with the restore change per peer.
fn node_attachments(
    topology: &Topology,
    name: &str,
) -> Result<Vec<(String, LinkChange)>, ChurnError> {
    let id = resolve(topology, name)?;
    let mut peers: Vec<NodeId> = Vec::new();
    for link in topology.links() {
        let peer = if link.from == id {
            link.to
        } else if link.to == id {
            link.from
        } else {
            continue;
        };
        if !peers.contains(&peer) {
            peers.push(peer);
        }
    }
    if peers.is_empty() {
        return Err(invalid(&format!("node `{name}` has no links to churn")));
    }
    peers
        .into_iter()
        .map(|peer| {
            let peer_name = node_name(topology, peer);
            let restore = restore_change(topology, name, &peer_name)?;
            Ok((peer_name, restore))
        })
        .collect()
}

fn action_names(action: &DynamicAction) -> Vec<&str> {
    match action {
        DynamicAction::SetLinkProperties { orig, dest, .. }
        | DynamicAction::LinkJoin { orig, dest, .. }
        | DynamicAction::LinkLeave { orig, dest } => vec![orig, dest],
        DynamicAction::NodeLeave { name } | DynamicAction::NodeJoin { name } => vec![name],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::units::Bandwidth;
    use kollaps_topology::generators;

    fn dumbbell() -> Topology {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        topo
    }

    #[test]
    fn poisson_flaps_alternate_leave_and_join() {
        let topo = dumbbell();
        let schedule = Churn::poisson_flaps(&[("client-0", "bridge-left")])
            .mean_uptime(SimDuration::from_secs(1))
            .mean_downtime(SimDuration::from_millis(200))
            .horizon(SimDuration::from_secs(30))
            .seed(3)
            .generate(&topo)
            .expect("valid spec");
        assert!(schedule.len() >= 4, "got {} events", schedule.len());
        assert_eq!(schedule.len() % 2, 0, "leave/join events come in pairs");
        let mut expect_leave = true;
        for event in schedule.events() {
            match (&event.action, expect_leave) {
                (DynamicAction::LinkLeave { .. }, true) => expect_leave = false,
                (DynamicAction::LinkJoin { change, .. }, false) => {
                    assert_eq!(change.up, Some(Bandwidth::from_mbps(100)));
                    assert_eq!(change.latency, Some(SimDuration::from_millis(1)));
                    expect_leave = true;
                }
                other => panic!("unexpected event order: {other:?}"),
            }
            assert!(event.at <= SimDuration::from_secs(30));
        }
        // Determinism: the same seed generates the same schedule.
        let again = Churn::poisson_flaps(&[("client-0", "bridge-left")])
            .mean_uptime(SimDuration::from_secs(1))
            .mean_downtime(SimDuration::from_millis(200))
            .horizon(SimDuration::from_secs(30))
            .seed(3)
            .generate(&topo)
            .unwrap();
        assert_eq!(schedule, again);
    }

    #[test]
    fn staggered_nodes_detach_and_reattach_in_waves() {
        let topo = dumbbell();
        let schedule = Churn::staggered_nodes(&["client-0", "client-1"])
            .stagger(SimDuration::from_secs(1))
            .downtime(SimDuration::from_secs(2))
            .rounds(2)
            .start(SimDuration::from_secs(10))
            .generate(&topo)
            .expect("valid spec");
        // Per round: 2 nodes × (1 leave + 1 join) = 4 events; 2 rounds.
        assert_eq!(schedule.len(), 8);
        assert_eq!(schedule.events()[0].at, SimDuration::from_secs(10));
        assert!(matches!(
            &schedule.events()[0].action,
            DynamicAction::LinkLeave { orig, .. } if orig == "client-0"
        ));
        // client-1 leaves one stagger later, client-0 rejoins after 2 s.
        assert_eq!(schedule.events()[1].at, SimDuration::from_secs(11));
        let rejoin = schedule
            .events()
            .iter()
            .find(
                |e| matches!(&e.action, DynamicAction::LinkJoin { orig, .. } if orig == "client-0"),
            )
            .unwrap();
        assert_eq!(rejoin.at, SimDuration::from_secs(12));
    }

    #[test]
    fn partition_cuts_and_heals_crossing_links() {
        let topo = dumbbell();
        let schedule = Churn::partition(&["bridge-left"], &["bridge-right"])
            .start(SimDuration::from_secs(5))
            .heal_after(Some(SimDuration::from_secs(3)))
            .generate(&topo)
            .expect("valid spec");
        assert_eq!(schedule.len(), 2);
        assert!(matches!(
            &schedule.events()[0].action,
            DynamicAction::LinkLeave { .. }
        ));
        assert_eq!(schedule.events()[1].at, SimDuration::from_secs(8));
        let permanent = Churn::partition(&["bridge-left"], &["bridge-right"])
            .heal_after(None)
            .generate(&topo)
            .unwrap();
        assert_eq!(permanent.len(), 1);
    }

    #[test]
    fn bandwidth_ramp_scales_down_linearly() {
        let topo = dumbbell();
        let schedule = Churn::bandwidth_ramp("bridge-left", "bridge-right", 0.2)
            .ramp_duration(SimDuration::from_secs(10))
            .steps(5)
            .generate(&topo)
            .expect("valid spec");
        assert_eq!(schedule.len(), 5);
        let first = &schedule.events()[0];
        let last = &schedule.events()[4];
        assert_eq!(first.at, SimDuration::from_secs(2));
        assert_eq!(last.at, SimDuration::from_secs(10));
        let up_of = |e: &DynamicEvent| -> Bandwidth {
            let DynamicAction::SetLinkProperties { change, .. } = &e.action else {
                panic!("ramp must set properties")
            };
            change.up.unwrap()
        };
        // 50 Mb/s bottleneck: first step 84 %, last step 20 %.
        assert!((up_of(first).as_mbps() - 42.0).abs() < 0.5);
        assert!((up_of(last).as_mbps() - 10.0).abs() < 0.5);
    }

    #[test]
    fn specs_are_validated() {
        let topo = dumbbell();
        let err = Churn::poisson_flaps(&[("ghost", "bridge-left")])
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::UnknownNode { name } if name == "ghost"));
        let err = Churn::poisson_flaps(&[("client-0", "client-1")])
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::NoLinkBetween { .. }));
        let err = Churn::poisson_flaps(&[]).generate(&topo).unwrap_err();
        assert!(matches!(err, ChurnError::InvalidSpec { .. }));
        let err = Churn::staggered_nodes(&["client-0"])
            .downtime(SimDuration::ZERO)
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::InvalidSpec { .. }));
        let err = Churn::partition(&["bridge-left"], &["bridge-left"])
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::InvalidSpec { .. }));
        let err = Churn::partition(&["client-0"], &["server-0"])
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::InvalidSpec { .. }), "{err}");
        let err = Churn::bandwidth_ramp("bridge-left", "bridge-right", 0.0)
            .generate(&topo)
            .unwrap_err();
        assert!(matches!(err, ChurnError::InvalidSpec { .. }));
    }

    #[test]
    fn generated_schedules_precompute_into_timelines() {
        use crate::SnapshotTimeline;
        let topo = dumbbell();
        let schedule = Churn::poisson_flaps(&[("client-0", "bridge-left")])
            .mean_uptime(SimDuration::from_secs(2))
            .mean_downtime(SimDuration::from_millis(300))
            .horizon(SimDuration::from_secs(20))
            .seed(11)
            .generate(&topo)
            .unwrap();
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        assert_eq!(timeline.len(), schedule.change_times().len());
        // Flapping one access link must never force all-pairs work: every
        // delta touches only pairs involving client-0 (6 of 12).
        for delta in timeline.deltas() {
            assert!(delta.swap_cost() <= 6, "delta {:?}", delta.swap_cost());
        }
    }
}
