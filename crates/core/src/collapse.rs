//! Topology collapsing: from the target topology to end-to-end virtual
//! links.
//!
//! Kollaps never materializes switches and routers. Instead, the Emulation
//! Manager computes the shortest path between every pair of services and
//! composes the per-link properties into end-to-end properties (paper §3 and
//! Figure 1): latencies add up, jitters compose as the root of the sum of
//! squares, losses compose multiplicatively and the available bandwidth is
//! the minimum along the path. The identity of the traversed links is kept
//! so that the runtime bandwidth-sharing model can detect flows competing
//! for the same physical link.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use kollaps_netmodel::packet::Addr;
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use kollaps_topology::graph::{PathProperties, ShortestPathTree, TopologyGraph};
use kollaps_topology::model::{LinkId, NodeId, Topology};

use crate::sharing::{FlowDemand, FlowRef};

/// One collapsed end-to-end path between two services.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapsedPath {
    /// Source service.
    pub src: NodeId,
    /// Destination service.
    pub dst: NodeId,
    /// Sum of link latencies.
    pub latency: SimDuration,
    /// Composed jitter.
    pub jitter: SimDuration,
    /// Composed loss probability.
    pub loss: f64,
    /// Minimum link bandwidth along the path.
    pub max_bandwidth: Bandwidth,
    /// The links traversed (in the original topology), used by the
    /// bandwidth-sharing model.
    pub links: Vec<LinkId>,
}

impl CollapsedPath {
    /// Round-trip time of this path combined with the reverse path latency;
    /// when the reverse path is unknown the forward latency is doubled.
    pub fn rtt(&self, reverse_latency: Option<SimDuration>) -> SimDuration {
        match reverse_latency {
            Some(rev) => self.latency + rev,
            None => self.latency * 2,
        }
    }
}

/// The collapsed view of a topology snapshot: every reachable ordered pair
/// of services mapped to its end-to-end virtual link, plus the addressing
/// information used by the dataplane.
///
/// Paths are held behind [`Arc`] so that successive snapshots of a dynamic
/// experiment (see `crate::timeline`) share the unchanged entries
/// structurally instead of cloning `O(services²)` paths per event.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CollapsedTopology {
    pub(crate) paths: HashMap<(NodeId, NodeId), Arc<CollapsedPath>>,
    pub(crate) addresses: HashMap<NodeId, Addr>,
    pub(crate) nodes_by_addr: HashMap<Addr, NodeId>,
    pub(crate) link_capacity: BTreeMap<LinkId, Bandwidth>,
    pub(crate) link_latency: BTreeMap<LinkId, SimDuration>,
}

/// Collapses one shortest path into its end-to-end `CollapsedPath`.
fn collapse_path(
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    path: kollaps_topology::graph::Path,
) -> Option<CollapsedPath> {
    let props = PathProperties::compose(topology, &path)?;
    Some(CollapsedPath {
        src,
        dst,
        latency: props.latency,
        jitter: props.jitter,
        loss: props.loss,
        max_bandwidth: props.max_bandwidth,
        links: path.links,
    })
}

/// One source's row of the all-pairs table.
pub(crate) struct SourceRow {
    /// Destinations the caller's `unchanged` test answered for: nothing was
    /// built for them.
    pub(crate) unchanged: usize,
    /// Every other destination service with its freshly collapsed path, or
    /// `None` when the source does not reach it; in service order.
    pub(crate) paths: Vec<(NodeId, Option<Arc<CollapsedPath>>)>,
}

/// Derives the row of `src`: one shortest-path tree, walked for the service
/// destinations only. `unchanged(dst, tree)` lets the caller claim a
/// destination whose path it already holds before anything is allocated;
/// the all-pairs collapse claims none, the snapshot timeline claims the
/// ones the previous snapshot still gets right.
pub(crate) fn source_row(
    topology: &Topology,
    graph: &TopologyGraph,
    services: &[NodeId],
    src: NodeId,
    unchanged: impl Fn(NodeId, &ShortestPathTree<'_>) -> bool,
) -> SourceRow {
    let tree = graph.shortest_path_tree(src);
    let mut row = SourceRow {
        unchanged: 0,
        paths: Vec::new(),
    };
    for &dst in services {
        if dst == src {
            continue;
        }
        if unchanged(dst, &tree) {
            row.unchanged += 1;
            continue;
        }
        let fresh = tree
            .path_to(dst)
            .and_then(|path| collapse_path(topology, src, dst, path))
            .map(Arc::new);
        row.paths.push((dst, fresh));
    }
    row
}

/// All-pairs collapse: one row per source service, merged in service order.
fn all_pairs(topology: &Topology) -> HashMap<(NodeId, NodeId), Arc<CollapsedPath>> {
    let graph = TopologyGraph::new(topology);
    let services = topology.service_ids();
    let mut paths = HashMap::new();
    for &src in &services {
        let row = source_row(topology, &graph, &services, src, |_, _| false);
        for (dst, path) in row.paths {
            if let Some(path) = path {
                paths.insert((src, dst), path);
            }
        }
    }
    paths
}

pub(crate) fn link_tables(
    topology: &Topology,
) -> (BTreeMap<LinkId, Bandwidth>, BTreeMap<LinkId, SimDuration>) {
    let capacity = topology
        .links()
        .iter()
        .map(|l| (l.id, l.properties.bandwidth))
        .collect();
    let latency = topology
        .links()
        .iter()
        .map(|l| (l.id, l.properties.latency))
        .collect();
    (capacity, latency)
}

impl CollapsedTopology {
    /// Collapses `topology`, assigning container addresses in service-id
    /// order (`10.1.0.0/16`, matching the deployment generator).
    pub fn build(topology: &Topology) -> Self {
        let mut addresses = HashMap::new();
        let mut nodes_by_addr = HashMap::new();
        for (i, service) in topology.service_ids().into_iter().enumerate() {
            let addr = Addr::container(i as u32);
            addresses.insert(service, addr);
            nodes_by_addr.insert(addr, service);
        }
        let (link_capacity, link_latency) = link_tables(topology);
        CollapsedTopology {
            paths: all_pairs(topology),
            addresses,
            nodes_by_addr,
            link_capacity,
            link_latency,
        }
    }

    /// Retired, ignored; kept only because `benchmark/` names it — delete
    /// with the next `benchmark`-archetype issue.
    #[doc(hidden)]
    pub fn build_with_threads(topology: &Topology, _threads: usize) -> Self {
        CollapsedTopology::build(topology)
    }

    /// Re-collapses a modified topology while keeping the original address
    /// assignment (containers keep their IP across dynamic events).
    ///
    /// This is the **online full rebuild**: every service pair is re-derived
    /// from scratch. The runtime emulation no longer calls it per event (the
    /// precomputed `crate::timeline` swaps delta-encoded snapshots instead);
    /// it remains the reference the timeline is checked against and the
    /// fallback for callers that mutate topologies outside a schedule.
    pub fn rebuild_with_addresses(&self, topology: &Topology) -> Self {
        let (link_capacity, link_latency) = link_tables(topology);
        CollapsedTopology {
            paths: all_pairs(topology),
            addresses: self.addresses.clone(),
            nodes_by_addr: self.nodes_by_addr.clone(),
            link_capacity,
            link_latency,
        }
    }

    /// The collapsed path from `src` to `dst`, if reachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&CollapsedPath> {
        self.paths.get(&(src, dst)).map(Arc::as_ref)
    }

    /// The shared handle of the collapsed path from `src` to `dst`. Two
    /// snapshots returning [`Arc::ptr_eq`] handles are guaranteed to agree
    /// on that pair — the structural-sharing property the snapshot timeline
    /// relies on (and tests assert).
    pub fn path_handle(&self, src: NodeId, dst: NodeId) -> Option<&Arc<CollapsedPath>> {
        self.paths.get(&(src, dst))
    }

    /// The collapsed path between two container addresses.
    pub fn path_by_addr(&self, src: Addr, dst: Addr) -> Option<&CollapsedPath> {
        let s = self.nodes_by_addr.get(&src)?;
        let d = self.nodes_by_addr.get(&dst)?;
        self.path(*s, *d)
    }

    /// Round-trip time between two services (forward + reverse collapsed
    /// latency).
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let fwd = self.path(src, dst)?;
        let rev = self.path(dst, src).map(|p| p.latency);
        Some(fwd.rtt(rev))
    }

    /// All collapsed paths, in (src, dst) order. The pair map itself is a
    /// `HashMap` (hot per-packet lookups); iteration sorts so that no
    /// hash-bucket order can reach reports or logs.
    pub fn paths(&self) -> impl Iterator<Item = &CollapsedPath> {
        let mut rows: Vec<(&(NodeId, NodeId), &Arc<CollapsedPath>)> = self.paths.iter().collect();
        rows.sort_unstable_by_key(|(pair, _)| **pair);
        rows.into_iter().map(|(_, p)| p.as_ref())
    }

    /// All collapsed pairs with their shared path handles, in (src, dst)
    /// order.
    pub fn path_handles(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Arc<CollapsedPath>)> {
        let mut rows: Vec<(&(NodeId, NodeId), &Arc<CollapsedPath>)> = self.paths.iter().collect();
        rows.sort_unstable_by_key(|(pair, _)| **pair);
        rows.into_iter()
    }

    /// Number of collapsed (ordered) pairs.
    pub fn pair_count(&self) -> usize {
        self.paths.len()
    }

    /// The container address of a service.
    pub fn address_of(&self, service: NodeId) -> Option<Addr> {
        self.addresses.get(&service).copied()
    }

    /// The service owning a container address.
    pub fn service_at(&self, addr: Addr) -> Option<NodeId> {
        self.nodes_by_addr.get(&addr).copied()
    }

    /// Every (service, address) assignment, in service-id order.
    pub fn addresses(&self) -> impl Iterator<Item = (NodeId, Addr)> + '_ {
        let mut rows: Vec<(NodeId, Addr)> = self.addresses.iter().map(|(&n, &a)| (n, a)).collect();
        rows.sort_unstable();
        rows.into_iter()
    }

    /// Capacity of an original link.
    pub fn link_capacity(&self, link: LinkId) -> Option<Bandwidth> {
        self.link_capacity.get(&link).copied()
    }

    /// The full link-capacity table (ordered by link id).
    pub fn link_capacities(&self) -> &BTreeMap<LinkId, Bandwidth> {
        &self.link_capacity
    }

    /// Builds the sharing-solver input for one active (src, dst) pair: the
    /// collapsed path's links (borrowed), the pair's RTT as the fairness
    /// weight (1 ms fallback when unknown) and the path maximum bandwidth as
    /// the demand cap.
    ///
    /// Both the per-host Emulation Manager (for its local flows) and the
    /// omniscient convergence reference build their solver inputs through
    /// this one helper, so the convergence gap measures metadata staleness
    /// rather than implementation drift.
    pub fn flow_ref(&self, src: Addr, dst: Addr) -> Option<FlowRef<'_>> {
        let path = self.path_by_addr(src, dst)?;
        let (src_node, dst_node) = (self.service_at(src)?, self.service_at(dst)?);
        let rtt = self
            .rtt(src_node, dst_node)
            .unwrap_or(SimDuration::from_millis(1));
        Some(FlowRef {
            links: &path.links,
            rtt,
            demand: path.max_bandwidth,
        })
    }

    /// [`CollapsedTopology::flow_ref`] with owned links, keyed by `id`.
    pub fn flow_demand(&self, id: u64, src: Addr, dst: Addr) -> Option<FlowDemand> {
        self.flow_ref(src, dst).map(|flow| FlowDemand {
            id,
            links: flow.links.to_vec(),
            rtt: flow.rtt,
            demand: flow.demand,
        })
    }

    /// One-way latency of an original link.
    ///
    /// An Emulation Manager uses this to reconstruct the RTT weight of a
    /// *remote* flow it only knows through metadata: the advertised link ids
    /// identify the flow's path, and the latencies along it sum to the
    /// one-way delay (doubled for the round trip).
    pub fn link_latency(&self, link: LinkId) -> Option<SimDuration> {
        self.link_latency.get(&link).copied()
    }
}

/// The shared addressing view every dataplane exposes.
///
/// All network backends — the Kollaps collapsed emulation and the full-state
/// baselines alike — are built from the same [`CollapsedTopology`], which
/// owns the service ↔ container address assignment. This trait hoists that
/// view (previously duplicated as inherent methods on every backend) so that
/// generic experiment code can resolve addresses without knowing which
/// backend it runs against.
pub trait Addressable {
    /// The collapsed/address view shared across all backends built from the
    /// same topology.
    fn collapsed(&self) -> &CollapsedTopology;

    /// The container address of the `index`-th service (in service-id
    /// order, matching the deployment generator's `10.1.0.0/16` assignment).
    fn address_of_index(&self, index: u32) -> Addr {
        Addr::container(index)
    }

    /// The container address of a service node, if the node is a service of
    /// this deployment.
    fn address_of_node(&self, node: NodeId) -> Option<Addr> {
        self.collapsed().address_of(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::units::Bandwidth;
    use kollaps_topology::model::LinkProperties;

    fn props(ms: u64, mbps: u64) -> LinkProperties {
        LinkProperties::new(SimDuration::from_millis(ms), Bandwidth::from_mbps(mbps))
    }

    /// The Figure 1 topology; returns `(topology, c1, sv1, sv2)`.
    fn figure1() -> (Topology, NodeId, NodeId, NodeId) {
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
        (t, c1, sv1, sv2)
    }

    #[test]
    fn figure1_collapsed_matches_paper() {
        let (t, c1, sv1, sv2) = figure1();
        let c = CollapsedTopology::build(&t);
        assert_eq!(c.pair_count(), 6);
        let p = c.path(c1, sv1).unwrap();
        assert_eq!(p.latency, SimDuration::from_millis(35));
        assert_eq!(p.max_bandwidth, Bandwidth::from_mbps(10));
        assert_eq!(p.links.len(), 3);
        let p2 = c.path(sv1, sv2).unwrap();
        assert_eq!(p2.latency, SimDuration::from_millis(10));
        assert_eq!(p2.max_bandwidth, Bandwidth::from_mbps(50));
        assert_eq!(c.rtt(c1, sv1), Some(SimDuration::from_millis(70)));
    }

    #[test]
    fn addresses_are_stable_and_reversible() {
        let (t, c1, sv1, sv2) = figure1();
        let c = CollapsedTopology::build(&t);
        let addrs: Vec<Addr> = [c1, sv1, sv2]
            .iter()
            .map(|&n| c.address_of(n).unwrap())
            .collect();
        assert_eq!(addrs.len(), 3);
        for (&node, &addr) in [c1, sv1, sv2].iter().zip(&addrs) {
            assert_eq!(c.service_at(addr), Some(node));
        }
        // Path lookup by address agrees with lookup by node id.
        assert_eq!(
            c.path_by_addr(addrs[0], addrs[1]).unwrap().latency,
            c.path(c1, sv1).unwrap().latency
        );
    }

    #[test]
    fn rebuild_keeps_addresses_after_dynamic_change() {
        let (mut t, c1, sv1, _) = figure1();
        let before = CollapsedTopology::build(&t);
        let addr_before = before.address_of(c1).unwrap();
        // Dynamic event: the c1-s1 link degrades to 99 ms.
        let link = t.links()[0].id;
        let mut p = t.link(link).unwrap().properties;
        p.latency = SimDuration::from_millis(99);
        t.set_link_properties(link, p);
        let after = before.rebuild_with_addresses(&t);
        assert_eq!(after.address_of(c1), Some(addr_before));
        assert!(after.path(c1, sv1).unwrap().latency > before.path(c1, sv1).unwrap().latency);
    }

    #[test]
    fn unreachable_pairs_have_no_path() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_service("b", 0, "x");
        let c = CollapsedTopology::build(&t);
        assert!(c.path(a, b).is_none());
        assert_eq!(c.pair_count(), 0);
        assert!(c.rtt(a, b).is_none());
    }

    #[test]
    fn link_capacities_are_exposed() {
        let (t, _, _, _) = figure1();
        let c = CollapsedTopology::build(&t);
        assert_eq!(c.link_capacities().len(), t.link_count());
        let first = t.links()[0].id;
        assert_eq!(c.link_capacity(first), Some(Bandwidth::from_mbps(10)));
    }
}
