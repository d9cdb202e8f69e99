//! Services, bridges, links and the topology container.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

/// Identifier of a node (service instance or bridge) inside a topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

/// Identifier of a (unidirectional) link inside a topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What kind of element a node is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An application container. Services are the endpoints of collapsed
    /// paths; Kollaps emulates the network *between* services.
    Service {
        /// Service name from the experiment description.
        service: String,
        /// Replica index within the service (0-based).
        replica: u32,
        /// Container image named in the experiment description.
        image: String,
    },
    /// A switch or router. Bridges only exist in the *target* topology;
    /// the collapsed emulation never materializes them.
    Bridge {
        /// Bridge name from the experiment description.
        name: String,
    },
}

impl NodeKind {
    /// `true` if this node is a service (container).
    pub fn is_service(&self) -> bool {
        matches!(self, NodeKind::Service { .. })
    }

    /// `true` if this node is a bridge.
    pub fn is_bridge(&self) -> bool {
        matches!(self, NodeKind::Bridge { .. })
    }

    /// Human-readable name: `service.replica` for services, the bridge name
    /// otherwise.
    pub fn display_name(&self) -> String {
        match self {
            NodeKind::Service {
                service, replica, ..
            } => format!("{service}.{replica}"),
            NodeKind::Bridge { name } => name.clone(),
        }
    }
}

/// A node in the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier, stable within one topology. Ids are assigned
    /// monotonically and never reused, even after a node is removed.
    pub id: NodeId,
    /// Service or bridge.
    pub kind: NodeKind,
}

/// Emulated properties of one (unidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProperties {
    /// One-way latency.
    pub latency: SimDuration,
    /// Jitter (standard deviation of the latency distribution).
    pub jitter: SimDuration,
    /// Capacity in the link's direction.
    pub bandwidth: Bandwidth,
    /// Packet loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkProperties {
    /// A lossless link with the given latency and bandwidth and no jitter.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        LinkProperties {
            latency,
            jitter: SimDuration::ZERO,
            bandwidth,
            loss: 0.0,
        }
    }

    /// Sets the jitter, returning the modified properties.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss probability, returning the modified properties.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }
}

impl Default for LinkProperties {
    fn default() -> Self {
        LinkProperties::new(SimDuration::ZERO, Bandwidth::MAX)
    }
}

/// A unidirectional link between two nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Identifier, stable within one topology. Ids are assigned
    /// monotonically and never reused, even after a link is removed.
    pub id: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Emulated properties in the `from → to` direction.
    pub properties: LinkProperties,
    /// Name of the container network this link is attached to.
    pub network: String,
}

/// A complete (static) topology: the input of the Kollaps collapsing step.
///
/// All links are stored unidirectionally; the builder method
/// [`Topology::add_bidirectional_link`] creates the two opposite links with
/// identical properties, as the experiment description language does.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Sorted by id, like `links`: ids come from the monotonic `next_node`
    /// and `remove_node` keeps order. The id → index lookup is a binary
    /// search over that.
    nodes: Vec<Node>,
    /// Sorted by id: ids are handed out monotonically by
    /// [`Topology::add_link`], and every removal (`retain`, `Vec::remove`)
    /// keeps order. The id → index lookup is a binary search over that.
    links: Vec<LinkSpec>,
    names: HashMap<String, NodeId>,
    /// Next link id. Monotonic: ids of removed links are never reused, so a
    /// link added by a dynamic event is distinguishable from every link
    /// that ever existed (the snapshot timeline's delta detection and the
    /// metadata codec's link ids both rely on that).
    next_link: u32,
    /// Next node id, monotonic like `next_link`: a node added after a
    /// removal never takes a departed node's id, so the snapshot timeline
    /// appends it to its graph behind every node it already indexes.
    next_node: u32,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a service node with the given name, replica index and image.
    ///
    /// The node is registered under the name `"{service}.{replica}"` and —
    /// for replica 0 of single-replica services — also under the bare
    /// service name, matching how the experiment description refers to it.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same composed name already exists.
    pub fn add_service(&mut self, service: &str, replica: u32, image: &str) -> NodeId {
        let composed = format!("{service}.{replica}");
        assert!(
            !self.names.contains_key(&composed),
            "duplicate service replica {composed}"
        );
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(Node {
            id,
            kind: NodeKind::Service {
                service: service.to_string(),
                replica,
                image: image.to_string(),
            },
        });
        self.names.insert(composed, id);
        // The bare name resolves to the first replica, which is what the
        // description language means when it says `orig: c1`.
        self.names.entry(service.to_string()).or_insert(id);
        id
    }

    /// Adds a bridge node.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same name already exists.
    pub fn add_bridge(&mut self, name: &str) -> NodeId {
        assert!(
            !self.names.contains_key(name),
            "duplicate bridge name {name}"
        );
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(Node {
            id,
            kind: NodeKind::Bridge {
                name: name.to_string(),
            },
        });
        self.names.insert(name.to_string(), id);
        id
    }

    /// Adds a unidirectional link.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        properties: LinkProperties,
        network: &str,
    ) -> LinkId {
        let id = LinkId(self.next_link);
        self.next_link += 1;
        self.links.push(LinkSpec {
            id,
            from,
            to,
            properties,
            network: network.to_string(),
        });
        id
    }

    /// Adds a bidirectional link as two unidirectional links with identical
    /// properties, returning `(forward, backward)` ids.
    pub fn add_bidirectional_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        properties: LinkProperties,
        network: &str,
    ) -> (LinkId, LinkId) {
        let f = self.add_link(a, b, properties, network);
        let r = self.add_link(b, a, properties, network);
        (f, r)
    }

    /// Adds a bidirectional link with asymmetric up/down bandwidths (the
    /// `up:`/`down:` attributes of the description language).
    pub fn add_asymmetric_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        base: LinkProperties,
        up: Bandwidth,
        down: Bandwidth,
        network: &str,
    ) -> (LinkId, LinkId) {
        let mut fwd = base;
        fwd.bandwidth = up;
        let mut back = base;
        back.bandwidth = down;
        let f = self.add_link(a, b, fwd, network);
        let r = self.add_link(b, a, back, network);
        (f, r)
    }

    /// Removes the link with the given id. Link ids of other links are
    /// unaffected (the slot is tombstoned). Returns `true` if it existed.
    pub fn remove_link(&mut self, id: LinkId) -> bool {
        match self.link_index(id) {
            Some(index) => {
                self.links.remove(index);
                true
            }
            None => false,
        }
    }

    /// Removes every link between `a` and `b` in either direction, returning
    /// how many were removed.
    pub fn remove_links_between(&mut self, a: NodeId, b: NodeId) -> usize {
        let before = self.links.len();
        self.links
            .retain(|l| (l.from != a || l.to != b) && (l.from != b || l.to != a));
        before - self.links.len()
    }

    /// Removes a node and every link touching it. Returns `true` if the node
    /// existed. Node ids of other nodes are unaffected.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let Some(pos) = self.node_index(id) else {
            return false;
        };
        self.nodes.remove(pos);
        self.names.retain(|_, v| *v != id);
        self.links.retain(|l| l.from != id && l.to != id);
        true
    }

    /// Updates the properties of a link in place. Returns `true` on success.
    pub fn set_link_properties(&mut self, id: LinkId, properties: LinkProperties) -> bool {
        match self.link_index(id) {
            Some(index) => {
                self.links[index].properties = properties;
                true
            }
            None => false,
        }
    }

    /// Position of link `id` in `links` (which is sorted by id).
    fn link_index(&self, id: LinkId) -> Option<usize> {
        self.links.binary_search_by_key(&id, |l| l.id).ok()
    }

    /// Position of node `id` in `nodes` (which is sorted by id).
    fn node_index(&self, id: NodeId) -> Option<usize> {
        self.nodes.binary_search_by_key(&id, |n| n.id).ok()
    }

    /// Looks up a node id by name (service name, `service.replica`, or
    /// bridge name).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The node with the given id, if present.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.node_index(id).map(|index| &self.nodes[index])
    }

    /// The link with the given id, if present.
    pub fn link(&self, id: LinkId) -> Option<&LinkSpec> {
        self.link_index(id).map(|index| &self.links[index])
    }

    /// Ids of every service node, in id order.
    pub fn service_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_service())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of every bridge node, in id order.
    pub fn bridge_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_bridge())
            .map(|n| n.id)
            .collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (unidirectional) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All links leaving `from`.
    pub fn links_from(&self, from: NodeId) -> impl Iterator<Item = &LinkSpec> {
        self.links.iter().filter(move |l| l.from == from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(ms: u64, mbps: u64) -> LinkProperties {
        LinkProperties::new(SimDuration::from_millis(ms), Bandwidth::from_mbps(mbps))
    }

    #[test]
    fn build_figure1_topology() {
        // The paper's Figure 1: c1, sv1, sv2, two bridges s1, s2.
        let mut t = Topology::new();
        let c1 = t.add_service("c1", 0, "iperf");
        let sv1 = t.add_service("sv", 0, "nginx");
        let sv2 = t.add_service("sv", 1, "nginx");
        let s1 = t.add_bridge("s1");
        let s2 = t.add_bridge("s2");
        t.add_bidirectional_link(c1, s1, props(10, 10), "net");
        t.add_bidirectional_link(s1, s2, props(20, 100), "net");
        t.add_bidirectional_link(s2, sv1, props(5, 50), "net");
        t.add_bidirectional_link(s2, sv2, props(5, 50), "net");
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 8);
        assert_eq!(t.service_ids().len(), 3);
        assert_eq!(t.bridge_ids().len(), 2);
        assert_eq!(t.node_by_name("c1"), Some(c1));
        assert_eq!(t.node_by_name("sv"), Some(sv1));
        assert_eq!(t.node_by_name("sv.1"), Some(sv2));
        assert_eq!(t.node_by_name("s2"), Some(s2));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn asymmetric_links_have_different_bandwidths() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "img");
        let b = t.add_bridge("s");
        let (up, down) = t.add_asymmetric_link(
            a,
            b,
            props(10, 0),
            Bandwidth::from_mbps(10),
            Bandwidth::from_mbps(100),
            "net",
        );
        assert_eq!(t.link(up).unwrap().properties.bandwidth.as_mbps(), 10.0);
        assert_eq!(t.link(down).unwrap().properties.bandwidth.as_mbps(), 100.0);
    }

    #[test]
    fn remove_link_and_node() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "img");
        let b = t.add_bridge("s1");
        let c = t.add_bridge("s2");
        let (f, _r) = t.add_bidirectional_link(a, b, props(1, 1), "net");
        t.add_bidirectional_link(b, c, props(1, 1), "net");
        assert!(t.remove_link(f));
        assert!(!t.remove_link(f));
        assert_eq!(t.link_count(), 3);
        assert!(t.remove_node(b));
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.node_by_name("s1"), None);
        assert_eq!(t.node_count(), 2);
    }

    /// A node added after a removal takes a fresh id, not the id of the
    /// last live node, so the two names resolve to different nodes.
    #[test]
    fn a_node_added_after_a_removal_takes_a_fresh_id() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "img");
        let s1 = t.add_bridge("s1");
        let s2 = t.add_bridge("s2");
        assert!(t.remove_node(a));
        let s3 = t.add_bridge("s3");
        assert!(s3 > s2 && s3 != s1);
        assert_eq!(t.node_by_name("s3"), Some(s3));
        assert_eq!(t.node_by_name("s2"), Some(s2));
        assert_eq!(t.node(s3).map(|n| n.kind.display_name()), Some("s3".into()));
        let h = t.add_service("h", 0, "img");
        assert!(h > s3);
    }

    #[test]
    fn remove_links_between_pair() {
        let mut t = Topology::new();
        let a = t.add_bridge("a");
        let b = t.add_bridge("b");
        t.add_bidirectional_link(a, b, props(1, 1), "net");
        assert_eq!(t.remove_links_between(a, b), 2);
        assert_eq!(t.link_count(), 0);
    }

    /// `links` stays sorted by id through every removal, so the binary
    /// search behind `link` / `set_link_properties` / `remove_link` finds
    /// exactly the surviving ids.
    #[test]
    fn link_lookup_survives_every_kind_of_removal() {
        fn check(t: &Topology, gone: &[LinkId]) {
            assert!(t.links().windows(2).all(|w| w[0].id < w[1].id));
            for l in t.links() {
                assert_eq!(t.link(l.id).map(|found| found.id), Some(l.id));
            }
            for &id in gone {
                assert!(t.link(id).is_none(), "{id} should be gone");
            }
        }
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| t.add_bridge(&format!("s{i}"))).collect();
        let mut ids = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let (f, r) = t.add_bidirectional_link(a, b, props(1, 1), "net");
                ids.extend([f, r]);
            }
        }
        check(&t, &[]);
        let mut gone = vec![ids[7], ids[0], ids[29]];
        for &id in &gone {
            assert!(t.remove_link(id));
        }
        check(&t, &gone);
        assert_eq!(t.remove_links_between(nodes[2], nodes[4]), 2);
        assert!(t.remove_node(nodes[3]));
        gone = ids
            .iter()
            .copied()
            .filter(|&id| !t.links().iter().any(|l| l.id == id))
            .collect();
        assert!(gone.len() > 5);
        check(&t, &gone);
        // A link added after the removals gets a fresh id at the end, and
        // the lookups that mutate still hit the right slot.
        let late = t.add_link(nodes[0], nodes[5], props(2, 2), "net");
        let target = t.links()[t.link_count() / 2].id;
        assert!(t.set_link_properties(target, props(77, 7)));
        assert_eq!(
            t.link(target).unwrap().properties.latency,
            SimDuration::from_millis(77)
        );
        assert!(t.remove_link(late));
        gone.push(late);
        check(&t, &gone);
    }

    /// `nodes` stays sorted by id through seeded schedules of service and
    /// bridge additions and node removals, so the binary search behind
    /// `node` / `remove_node` agrees with a linear scan on every id ever
    /// handed out, and on one never handed out.
    #[test]
    fn node_lookup_agrees_with_a_linear_scan() {
        for seed in 0..40 {
            let mut rng = kollaps_sim::rng::SimRng::new(seed);
            let mut t = Topology::new();
            let mut ids: Vec<NodeId> = Vec::new();
            for step in 0..120 {
                match rng.gen_range(0, 5) {
                    0 => ids.push(t.add_service(&format!("svc{step}"), 0, "img")),
                    1 | 2 => ids.push(t.add_bridge(&format!("br{step}"))),
                    _ if !ids.is_empty() => {
                        let id = ids[rng.gen_index(ids.len())];
                        let linear = t.nodes().iter().any(|n| n.id == id);
                        assert_eq!(t.remove_node(id), linear, "seed {seed}: {id}");
                    }
                    _ => {}
                }
                assert!(t.nodes().windows(2).all(|w| w[0].id < w[1].id));
                let unseen = NodeId(t.next_node);
                for &id in ids.iter().chain([&unseen]) {
                    let linear = t.nodes().iter().find(|n| n.id == id);
                    assert_eq!(t.node(id), linear, "seed {seed}: {id}");
                }
            }
        }
    }

    #[test]
    fn set_link_properties_updates() {
        let mut t = Topology::new();
        let a = t.add_bridge("a");
        let b = t.add_bridge("b");
        let l = t.add_link(a, b, props(1, 1), "net");
        assert!(t.set_link_properties(l, props(99, 7)));
        assert_eq!(
            t.link(l).unwrap().properties.latency,
            SimDuration::from_millis(99)
        );
        assert!(!t.set_link_properties(LinkId(55), props(1, 1)));
    }

    #[test]
    #[should_panic]
    fn duplicate_bridge_name_panics() {
        let mut t = Topology::new();
        t.add_bridge("s1");
        t.add_bridge("s1");
    }

    #[test]
    fn link_properties_builders() {
        let p = LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(10))
            .with_jitter(SimDuration::from_millis(1))
            .with_loss(0.01);
        assert_eq!(p.jitter, SimDuration::from_millis(1));
        assert_eq!(p.loss, 0.01);
        let d = LinkProperties::default();
        assert_eq!(d.bandwidth, Bandwidth::MAX);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            NodeKind::Service {
                service: "web".into(),
                replica: 2,
                image: "nginx".into()
            }
            .display_name(),
            "web.2"
        );
        assert_eq!(NodeKind::Bridge { name: "s1".into() }.display_name(), "s1");
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", LinkId(4)), "l4");
    }
}
