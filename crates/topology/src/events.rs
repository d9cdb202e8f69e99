//! Dynamic topology events.
//!
//! Kollaps supports modifying any link property, and adding or removing
//! links, bridges and services while the experiment runs (paper §3,
//! Listing 2). Events are applied to the topology graph; the emulation core
//! pre-computes the resulting sequence of collapsed snapshots offline so
//! that sub-second dynamics can be enforced accurately at runtime.

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use crate::model::{LinkProperties, NodeId, NodeKind, Topology};

/// Optional property overrides carried by a link-related event.
///
/// Absent fields keep their previous value (for property changes) or take
/// defaults (for link joins).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkChange {
    /// New one-way latency.
    pub latency: Option<SimDuration>,
    /// New jitter.
    pub jitter: Option<SimDuration>,
    /// New upload (orig → dest) bandwidth.
    pub up: Option<Bandwidth>,
    /// New download (dest → orig) bandwidth.
    pub down: Option<Bandwidth>,
    /// New loss probability.
    pub loss: Option<f64>,
}

/// What a dynamic event does to the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DynamicAction {
    /// Changes properties of the existing link(s) between two nodes.
    SetLinkProperties {
        /// Source node name.
        orig: String,
        /// Destination node name.
        dest: String,
        /// The property overrides.
        change: LinkChange,
    },
    /// Adds a (bidirectional) link between two existing nodes.
    LinkJoin {
        /// Source node name.
        orig: String,
        /// Destination node name.
        dest: String,
        /// Properties of the new link.
        change: LinkChange,
    },
    /// Removes every link between two nodes.
    LinkLeave {
        /// Source node name.
        orig: String,
        /// Destination node name.
        dest: String,
    },
    /// Removes a named node (service or bridge) and all its links.
    NodeLeave {
        /// Node name.
        name: String,
    },
    /// Re-adds a previously known bridge by name.
    ///
    /// Service joins are handled by the orchestrator (new containers); at
    /// the topology level a join only needs the node to exist again so that
    /// subsequent `LinkJoin` events can attach to it.
    NodeJoin {
        /// Node name.
        name: String,
    },
}

/// A scheduled change to the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicEvent {
    /// When the change takes effect, relative to experiment start.
    pub at: SimDuration,
    /// The change itself.
    pub action: DynamicAction,
}

/// An ordered schedule of dynamic events.
///
/// The schedule is **always sorted** by [`DynamicEvent::at`] (stable for
/// equal timestamps): [`EventSchedule::push`] inserts in order and every
/// bulk constructor ([`EventSchedule::from_events`], which external
/// deserializers such as the `kollaps_dynamics` trace parser go through)
/// normalizes on construction. Consumers — the emulation loop's due-event
/// scan and the `dedup` in [`EventSchedule::change_times`] — rely on this
/// invariant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventSchedule {
    events: Vec<DynamicEvent>,
}

impl EventSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        EventSchedule::default()
    }

    /// Builds a schedule from events in **any** order, normalizing to
    /// chronological order (stable: events with equal timestamps keep their
    /// relative order). Every path that materializes a schedule from
    /// external data (JSON traces, generated event lists) must come through
    /// here so the sortedness invariant holds from construction on.
    pub fn from_events(mut events: Vec<DynamicEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        EventSchedule { events }
    }

    /// Adds an event, keeping the schedule sorted by time. The insertion
    /// point is found by binary search (stable for equal timestamps: the
    /// new event goes after existing ones with the same time), so building
    /// a schedule of `n` events costs `O(n log n)` comparisons plus the
    /// element moves — not the full re-sort per insert it used to be.
    pub fn push(&mut self, event: DynamicEvent) {
        let at = event.at;
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, event);
    }

    /// Merges every event of `other` into this schedule, preserving order.
    pub fn merge(&mut self, other: &EventSchedule) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.events.len() + other.events.len());
        let mut ours = std::mem::take(&mut self.events).into_iter().peekable();
        let mut theirs = other.events.iter().cloned().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (Some(a), Some(b)) => {
                    // `<=` keeps the merge stable: our events win ties.
                    if a.at <= b.at {
                        merged.push(ours.next().expect("peeked"));
                    } else {
                        merged.push(theirs.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(ours.next().expect("peeked")),
                (None, Some(_)) => merged.push(theirs.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.events = merged;
    }

    /// The events in chronological order.
    pub fn events(&self) -> &[DynamicEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct timestamps at which the topology changes, in order
    /// (well-defined because the schedule is sorted by construction).
    pub fn change_times(&self) -> Vec<SimDuration> {
        let mut times: Vec<SimDuration> = self.events.iter().map(|e| e.at).collect();
        times.dedup();
        times
    }

    /// Events taking effect exactly at `at`.
    pub fn events_at(&self, at: SimDuration) -> impl Iterator<Item = &DynamicEvent> {
        self.events.iter().filter(move |e| e.at == at)
    }
}

/// Applies a dynamic action to a topology in place.
///
/// Unknown node names are ignored (a warning-free no-op): the paper's
/// deployment generator validates names up front, and at runtime a stale
/// event must never crash the emulation.
pub fn apply_action(topology: &mut Topology, action: &DynamicAction) {
    match action {
        DynamicAction::SetLinkProperties { orig, dest, change } => {
            let (Some(a), Some(b)) = (topology.node_by_name(orig), topology.node_by_name(dest))
            else {
                return;
            };
            let updates: Vec<_> = topology
                .links()
                .iter()
                .filter(|l| (l.from == a && l.to == b) || (l.from == b && l.to == a))
                .map(|l| (l.id, l.from == a, l.properties))
                .collect();
            for (id, is_forward, old) in updates {
                let mut props = old;
                if let Some(lat) = change.latency {
                    props.latency = lat;
                }
                if let Some(j) = change.jitter {
                    props.jitter = j;
                }
                if let Some(loss) = change.loss {
                    props.loss = loss;
                }
                if is_forward {
                    if let Some(up) = change.up {
                        props.bandwidth = up;
                    }
                } else if let Some(down) = change.down {
                    props.bandwidth = down;
                }
                topology.set_link_properties(id, props);
            }
        }
        DynamicAction::LinkJoin { orig, dest, change } => {
            let (Some(a), Some(b)) = (topology.node_by_name(orig), topology.node_by_name(dest))
            else {
                return;
            };
            let base = LinkProperties {
                latency: change.latency.unwrap_or(SimDuration::ZERO),
                jitter: change.jitter.unwrap_or(SimDuration::ZERO),
                bandwidth: Bandwidth::MAX,
                loss: change.loss.unwrap_or(0.0),
            };
            let up = change.up.unwrap_or(Bandwidth::MAX);
            let down = change.down.unwrap_or(up);
            topology.add_asymmetric_link(a, b, base, up, down, "default");
        }
        DynamicAction::LinkLeave { orig, dest } => {
            let (Some(a), Some(b)) = (topology.node_by_name(orig), topology.node_by_name(dest))
            else {
                return;
            };
            topology.remove_links_between(a, b);
        }
        DynamicAction::NodeLeave { name } => {
            let ids: Vec<_> = nodes_named(topology, name).collect();
            for id in ids {
                topology.remove_node(id);
            }
        }
        DynamicAction::NodeJoin { name } => {
            if topology.node_by_name(name).is_none() {
                topology.add_bridge(name);
            }
        }
    }
}

/// The nodes a [`DynamicAction::NodeLeave`] of `name` removes: the node
/// whose display name or bridge name it is, or every replica of the
/// service of that name.
pub fn nodes_named<'a>(topology: &'a Topology, name: &'a str) -> impl Iterator<Item = NodeId> + 'a {
    topology
        .nodes()
        .iter()
        .filter(move |n| {
            n.kind.display_name() == name
                || matches!(&n.kind, NodeKind::Service { service, .. } if service == name)
                || matches!(&n.kind, NodeKind::Bridge { name: b } if b == name)
        })
        .map(|n| n.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::units::Bandwidth;

    fn base_topology() -> Topology {
        let mut t = Topology::new();
        let c1 = t.add_service("c1", 0, "iperf");
        let s1 = t.add_bridge("s1");
        let s2 = t.add_bridge("s2");
        let sv = t.add_service("sv", 0, "nginx");
        t.add_bidirectional_link(
            c1,
            s1,
            LinkProperties::new(SimDuration::from_millis(10), Bandwidth::from_mbps(10)),
            "net",
        );
        t.add_bidirectional_link(
            s1,
            s2,
            LinkProperties::new(SimDuration::from_millis(20), Bandwidth::from_mbps(100)),
            "net",
        );
        t.add_bidirectional_link(
            s2,
            sv,
            LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(50)),
            "net",
        );
        t
    }

    #[test]
    fn schedule_stays_sorted() {
        let mut s = EventSchedule::new();
        s.push(DynamicEvent {
            at: SimDuration::from_secs(200),
            action: DynamicAction::NodeLeave { name: "s1".into() },
        });
        s.push(DynamicEvent {
            at: SimDuration::from_secs(120),
            action: DynamicAction::SetLinkProperties {
                orig: "c1".into(),
                dest: "s1".into(),
                change: LinkChange {
                    jitter: Some(SimDuration::from_millis_f64(0.5)),
                    ..LinkChange::default()
                },
            },
        });
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].at, SimDuration::from_secs(120));
        assert_eq!(s.change_times().len(), 2);
        assert_eq!(s.events_at(SimDuration::from_secs(200)).count(), 1);
    }

    #[test]
    fn from_events_normalizes_arbitrary_order() {
        let leave = |secs: u64, name: &str| DynamicEvent {
            at: SimDuration::from_secs(secs),
            action: DynamicAction::NodeLeave { name: name.into() },
        };
        // Out of order, with a duplicate timestamp to check stability.
        let schedule = EventSchedule::from_events(vec![
            leave(30, "c"),
            leave(10, "a"),
            leave(30, "d"),
            leave(20, "b"),
        ]);
        let times: Vec<u64> = schedule
            .events()
            .iter()
            .map(|e| e.at.as_secs_f64() as u64)
            .collect();
        assert_eq!(times, [10, 20, 30, 30]);
        // Stable: "c" was listed before "d" at t=30 and stays first.
        assert!(
            matches!(&schedule.events()[2].action, DynamicAction::NodeLeave { name } if name == "c")
        );
        assert_eq!(schedule.change_times().len(), 3);
    }

    #[test]
    fn push_inserts_in_order_and_is_stable_for_equal_times() {
        let mut s = EventSchedule::new();
        for (secs, name) in [(5u64, "x"), (1, "a"), (5, "y"), (3, "m"), (5, "z")] {
            s.push(DynamicEvent {
                at: SimDuration::from_secs(secs),
                action: DynamicAction::NodeLeave { name: name.into() },
            });
        }
        let order: Vec<(u64, String)> = s
            .events()
            .iter()
            .map(|e| {
                let DynamicAction::NodeLeave { name } = &e.action else {
                    unreachable!()
                };
                (e.at.as_secs_f64() as u64, name.clone())
            })
            .collect();
        assert_eq!(
            order,
            [
                (1, "a".to_string()),
                (3, "m".to_string()),
                (5, "x".to_string()),
                (5, "y".to_string()),
                (5, "z".to_string()),
            ]
        );
    }

    #[test]
    fn merge_interleaves_two_sorted_schedules() {
        let ev = |secs: u64, name: &str| DynamicEvent {
            at: SimDuration::from_secs(secs),
            action: DynamicAction::NodeLeave { name: name.into() },
        };
        let mut a = EventSchedule::from_events(vec![ev(1, "a1"), ev(4, "a4")]);
        let b = EventSchedule::from_events(vec![ev(2, "b2"), ev(4, "b4"), ev(6, "b6")]);
        a.merge(&b);
        let times: Vec<u64> = a
            .events()
            .iter()
            .map(|e| e.at.as_secs_f64() as u64)
            .collect();
        assert_eq!(times, [1, 2, 4, 4, 6]);
        // Ties go to the receiving schedule's events.
        assert!(matches!(&a.events()[2].action, DynamicAction::NodeLeave { name } if name == "a4"));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn set_properties_updates_both_directions() {
        let mut t = base_topology();
        apply_action(
            &mut t,
            &DynamicAction::SetLinkProperties {
                orig: "c1".into(),
                dest: "s1".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(99)),
                    up: Some(Bandwidth::from_mbps(1)),
                    down: Some(Bandwidth::from_mbps(2)),
                    ..LinkChange::default()
                },
            },
        );
        let c1 = t.node_by_name("c1").unwrap();
        let s1 = t.node_by_name("s1").unwrap();
        let fwd = t
            .links()
            .iter()
            .find(|l| l.from == c1 && l.to == s1)
            .unwrap();
        let back = t
            .links()
            .iter()
            .find(|l| l.from == s1 && l.to == c1)
            .unwrap();
        assert_eq!(fwd.properties.latency, SimDuration::from_millis(99));
        assert_eq!(back.properties.latency, SimDuration::from_millis(99));
        assert_eq!(fwd.properties.bandwidth, Bandwidth::from_mbps(1));
        assert_eq!(back.properties.bandwidth, Bandwidth::from_mbps(2));
    }

    #[test]
    fn link_join_and_leave() {
        let mut t = base_topology();
        let before = t.link_count();
        apply_action(
            &mut t,
            &DynamicAction::LinkJoin {
                orig: "c1".into(),
                dest: "s2".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(10)),
                    up: Some(Bandwidth::from_mbps(100)),
                    down: Some(Bandwidth::from_mbps(100)),
                    ..LinkChange::default()
                },
            },
        );
        assert_eq!(t.link_count(), before + 2);
        apply_action(
            &mut t,
            &DynamicAction::LinkLeave {
                orig: "c1".into(),
                dest: "s2".into(),
            },
        );
        assert_eq!(t.link_count(), before);
    }

    #[test]
    fn node_leave_removes_links_and_join_restores_bridge() {
        let mut t = base_topology();
        apply_action(&mut t, &DynamicAction::NodeLeave { name: "s1".into() });
        assert!(t.node_by_name("s1").is_none());
        // Links c1<->s1 and s1<->s2 are gone (4 of the original 6).
        assert_eq!(t.link_count(), 2);
        apply_action(&mut t, &DynamicAction::NodeJoin { name: "s1".into() });
        assert!(t.node_by_name("s1").is_some());
    }

    #[test]
    fn service_leave_by_service_name_removes_all_replicas() {
        let mut t = Topology::new();
        t.add_service("sv", 0, "img");
        t.add_service("sv", 1, "img");
        t.add_service("other", 0, "img");
        apply_action(&mut t, &DynamicAction::NodeLeave { name: "sv".into() });
        assert_eq!(t.service_ids().len(), 1);
        assert!(t.node_by_name("other").is_some());
    }

    #[test]
    fn unknown_names_are_ignored() {
        let mut t = base_topology();
        let links = t.link_count();
        apply_action(
            &mut t,
            &DynamicAction::LinkLeave {
                orig: "ghost".into(),
                dest: "s1".into(),
            },
        );
        apply_action(
            &mut t,
            &DynamicAction::NodeLeave {
                name: "ghost".into(),
            },
        );
        assert_eq!(t.link_count(), links);
    }
}
