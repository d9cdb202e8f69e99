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
//!
//! # Layout
//!
//! A [`CollapsedTopology`] numbers the services of the topology it was
//! built from in id order; the `i`-th service owns `Addr::container(i)`.
//! That table is the only addressing state, and it is fixed for the life of
//! an experiment: services can leave a dynamic topology but never join one
//! (`NodeJoin` re-adds bridges only), so the initial snapshot's table covers
//! every later snapshot and all of them share it behind one [`Arc`]. A
//! departed service keeps its number and its address; its row and column
//! simply hold no path.
//!
//! The pairs are one row per source, indexed by destination number, each
//! row behind its own [`Arc`]. Every lookup is array reads: a binary search
//! from a service id to its number (or a subtraction from a container
//! address), then two indexes. A snapshot timeline copies a row on its
//! first change and shares every other one with the previous snapshot, so a
//! distinct row costs `services × 8 B` and a full row set `services² × 8 B`
//! — below the ~20 B per reachable pair of a pair map unless fewer than
//! ~40% of the pairs are reachable.
//!
//! The links are one [`LinkTable`] per snapshot, also behind an [`Arc`]: a
//! snapshot timeline shares it with the previous snapshot unless the change
//! moved a link's capacity or latency, or added or removed a link.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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

/// One source's paths, indexed by destination number: `None` where the
/// source does not reach the destination (always on the diagonal).
pub(crate) type Row = Arc<[Option<Arc<CollapsedPath>>]>;

/// "No slot" in [`LinkTable`]'s id → slot index.
const NO_SLOT: u32 = u32::MAX;

/// The links of one snapshot, numbered densely: ids ascending, a link's
/// *slot* is its position, and capacity and latency are arrays by slot.
///
/// Every per-link reader of the emulation loop indexes this one table —
/// the solver kernel, [`crate::sharing::oversubscription`] and a manager's
/// reconstruction of remote flows from their advertised link ids — so no
/// per-call map is built or re-keyed. Slots ascend with ids, which keeps the
/// operand order the solver's bit-identity contract fixes (see
/// `crate::sharing`).
#[derive(Debug, Default)]
pub struct LinkTable {
    /// Link ids, ascending; a link's slot is its position.
    ids: Vec<LinkId>,
    /// Capacity per slot.
    capacity: Vec<Bandwidth>,
    /// One-way latency per slot.
    latency: Vec<SimDuration>,
    /// Link id → slot for O(1) lookups, when the ids are dense enough for
    /// the index to stay proportional to the link count (topologies number
    /// their links from zero); empty otherwise, and lookups binary-search
    /// `ids`.
    direct: Vec<u32>,
    /// The capacities as a map, built on the first
    /// [`LinkTable::capacities`] call (nothing on the loop asks for it).
    capacities: OnceLock<BTreeMap<LinkId, Bandwidth>>,
}

impl LinkTable {
    /// The table of `(id, capacity, latency)` entries with distinct ids, in
    /// any order.
    fn new(links: impl IntoIterator<Item = (LinkId, Bandwidth, SimDuration)>) -> Self {
        let mut links: Vec<_> = links.into_iter().collect();
        links.sort_unstable_by_key(|&(id, _, _)| id);
        let mut table = LinkTable {
            ids: links.iter().map(|&(id, _, _)| id).collect(),
            capacity: links.iter().map(|&(_, capacity, _)| capacity).collect(),
            latency: links.iter().map(|&(_, _, latency)| latency).collect(),
            ..LinkTable::default()
        };
        if let Some(&LinkId(highest)) = table.ids.last() {
            let span = (highest as usize).saturating_add(1);
            if span <= table.ids.len().saturating_mul(4).saturating_add(1024) {
                table.direct.resize(span, NO_SLOT);
                for (slot, link) in table.ids.iter().enumerate() {
                    table.direct[link.0 as usize] = slot as u32;
                }
            }
        }
        table
    }

    /// The links of `topology`.
    pub(crate) fn of(topology: &Topology) -> Self {
        LinkTable::new(
            topology
                .links()
                .iter()
                .map(|l| (l.id, l.properties.bandwidth, l.properties.latency)),
        )
    }

    /// The links of a capacity map, with zero latency.
    pub fn from_capacities(capacities: &BTreeMap<LinkId, Bandwidth>) -> Self {
        LinkTable::new(
            capacities
                .iter()
                .map(|(&id, &capacity)| (id, capacity, SimDuration::ZERO)),
        )
    }

    /// Number of links (= slots).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for a table without links.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The link ids, ascending: slot `s` holds `ids()[s]`.
    pub fn ids(&self) -> &[LinkId] {
        &self.ids
    }

    /// The slot of `link`; `None` for a link this table does not have,
    /// whatever its id.
    pub fn slot(&self, link: LinkId) -> Option<usize> {
        if self.direct.is_empty() {
            self.ids.binary_search(&link).ok()
        } else {
            self.direct
                .get(link.0 as usize)
                .filter(|&&slot| slot != NO_SLOT)
                .map(|&slot| slot as usize)
        }
    }

    /// Capacity of the link in `slot`.
    pub fn capacity(&self, slot: usize) -> Bandwidth {
        self.capacity[slot]
    }

    /// One-way latency of the link in `slot`.
    pub fn latency(&self, slot: usize) -> SimDuration {
        self.latency[slot]
    }

    /// The capacities keyed by link id (built once, on first use).
    pub(crate) fn capacities(&self) -> &BTreeMap<LinkId, Bandwidth> {
        self.capacities.get_or_init(|| {
            self.ids
                .iter()
                .copied()
                .zip(self.capacity.iter().copied())
                .collect()
        })
    }

    /// `true` when both tables hold the same links with the same capacities
    /// and latencies.
    #[cfg(test)]
    pub(crate) fn same_links(&self, other: &LinkTable) -> bool {
        self.ids == other.ids && self.capacity == other.capacity && self.latency == other.latency
    }
}

/// The collapsed view of a topology snapshot: every reachable ordered pair
/// of services mapped to its end-to-end virtual link, plus the addressing
/// information used by the dataplane.
///
/// The service table is shared by every snapshot of an experiment and the
/// pairs are one row per source (see the module docs), each path and each
/// row behind an [`Arc`], so that successive snapshots of a dynamic
/// experiment (see `crate::timeline`) share the unchanged rows structurally
/// instead of cloning `O(services²)` entries per event.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CollapsedTopology {
    /// Every service, in id order: the `i`-th owns `Addr::container(i)`.
    pub(crate) services: Arc<[NodeId]>,
    /// One row per service of `services`, indexed by destination number.
    pub(crate) rows: Vec<Row>,
    /// Reachable ordered pairs (`Some` entries of `rows`).
    pub(crate) pairs: usize,
    /// The snapshot's links.
    pub(crate) links: Arc<LinkTable>,
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

/// One source's freshly derived destinations.
pub(crate) struct SourceRow {
    /// Destinations the caller's `unchanged` test answered for: nothing was
    /// built for them.
    pub(crate) unchanged: usize,
    /// Every other present destination (its number) with its freshly
    /// collapsed path, or `None` when the source does not reach it; in
    /// number order.
    pub(crate) paths: Vec<(usize, Option<Arc<CollapsedPath>>)>,
}

/// Which services of the numbered table `services` are services of
/// `topology`.
pub(crate) fn presence(services: &[NodeId], topology: &Topology) -> Vec<bool> {
    let mut present = vec![false; services.len()];
    for id in topology.service_ids() {
        if let Ok(i) = services.binary_search(&id) {
            present[i] = true;
        }
    }
    present
}

/// Derives the row of the `src`-th service from its shortest-path tree,
/// for the present service destinations only. `unchanged(dst)` lets the
/// caller claim a destination number whose path it already holds before
/// anything is allocated; the all-pairs collapse claims none, the snapshot
/// timeline claims the ones the previous snapshot still gets right.
pub(crate) fn source_row(
    topology: &Topology,
    tree: &ShortestPathTree,
    services: &[NodeId],
    present: &[bool],
    src: usize,
    unchanged: impl Fn(usize) -> bool,
) -> SourceRow {
    let src_node = services[src];
    let mut row = SourceRow {
        unchanged: 0,
        paths: Vec::new(),
    };
    for (dst, &dst_node) in services.iter().enumerate() {
        if dst == src || !present[dst] {
            continue;
        }
        if unchanged(dst) {
            row.unchanged += 1;
            continue;
        }
        let fresh = tree
            .path_to(dst_node)
            .and_then(|path| collapse_path(topology, src_node, dst_node, path))
            .map(Arc::new);
        row.paths.push((dst, fresh));
    }
    row
}

/// The rows of an all-pairs collapse, and the search behind them.
struct AllPairs {
    /// One row per service of the table, an empty one for every service
    /// the topology no longer has.
    rows: Vec<Row>,
    /// Reachable pairs.
    pairs: usize,
    /// Per source, its shortest-path tree when asked to keep them (`None`
    /// for an absent source).
    trees: Vec<Option<ShortestPathTree>>,
}

/// All-pairs collapse over the numbered `services`: one shortest-path tree
/// per present source, dropped after its row unless `keep_trees`.
fn all_pairs(topology: &Topology, services: &[NodeId], keep_trees: bool) -> AllPairs {
    let graph = TopologyGraph::new(topology);
    let present = presence(services, topology);
    let mut pairs = 0;
    let mut trees = Vec::new();
    let rows = (0..services.len())
        .map(|src| {
            let mut row = vec![None; services.len()];
            let tree = present[src].then(|| graph.shortest_path_tree(services[src]));
            if let Some(tree) = &tree {
                for (dst, path) in
                    source_row(topology, tree, services, &present, src, |_| false).paths
                {
                    pairs += usize::from(path.is_some());
                    row[dst] = path;
                }
            }
            if keep_trees {
                trees.push(tree);
            }
            row.into()
        })
        .collect();
    AllPairs { rows, pairs, trees }
}

impl CollapsedTopology {
    /// Collapses `topology`, assigning container addresses in service-id
    /// order (`10.1.0.0/16`, see [`Addr::container`]).
    ///
    /// # Panics
    ///
    /// Panics if `topology` has more services than the /16 has addresses
    /// ([`Addr::CONTAINERS`]); the scenario layer rejects such a topology
    /// with a typed error first.
    pub fn build(topology: &Topology) -> Self {
        CollapsedTopology::build_keeping_trees(topology, false).0
    }

    /// [`CollapsedTopology::build`], also handing back, when `keep_trees`,
    /// the shortest-path tree of every source by service number (`None`
    /// for an absent one); the list is empty otherwise.
    pub(crate) fn build_keeping_trees(
        topology: &Topology,
        keep_trees: bool,
    ) -> (Self, Vec<Option<ShortestPathTree>>) {
        let services: Arc<[NodeId]> = topology.service_ids().into();
        assert!(
            services.len() <= Addr::CONTAINERS as usize,
            "{} services do not fit the 10.1.0.0/16 container network",
            services.len()
        );
        let all = all_pairs(topology, &services, keep_trees);
        let collapsed = CollapsedTopology {
            services,
            rows: all.rows,
            pairs: all.pairs,
            links: Arc::new(LinkTable::of(topology)),
        };
        (collapsed, all.trees)
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
    ///
    /// The service table is `self`'s: a service of `topology` outside it
    /// has no address and no pairs, and a service of the table that left
    /// `topology` keeps its address with no pairs.
    pub fn rebuild_with_addresses(&self, topology: &Topology) -> Self {
        let all = all_pairs(topology, &self.services, false);
        CollapsedTopology {
            services: Arc::clone(&self.services),
            rows: all.rows,
            pairs: all.pairs,
            links: Arc::new(LinkTable::of(topology)),
        }
    }

    /// The number of a service in the table.
    fn number_of(&self, service: NodeId) -> Option<usize> {
        self.services.binary_search(&service).ok()
    }

    /// The number of the service owning a container address.
    fn number_at(&self, addr: Addr) -> Option<usize> {
        let number = addr.container_index()? as usize;
        (number < self.services.len()).then_some(number)
    }

    /// The path slot of a numbered pair.
    fn slot(&self, src: usize, dst: usize) -> Option<&Arc<CollapsedPath>> {
        self.rows[src][dst].as_ref()
    }

    /// The collapsed path from `src` to `dst`, if reachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&CollapsedPath> {
        self.path_handle(src, dst).map(Arc::as_ref)
    }

    /// The shared handle of the collapsed path from `src` to `dst`. Two
    /// snapshots returning [`Arc::ptr_eq`] handles are guaranteed to agree
    /// on that pair — the structural-sharing property the snapshot timeline
    /// relies on (and tests assert).
    pub fn path_handle(&self, src: NodeId, dst: NodeId) -> Option<&Arc<CollapsedPath>> {
        self.slot(self.number_of(src)?, self.number_of(dst)?)
    }

    /// The collapsed path between two container addresses.
    pub fn path_by_addr(&self, src: Addr, dst: Addr) -> Option<&CollapsedPath> {
        self.slot(self.number_at(src)?, self.number_at(dst)?)
            .map(Arc::as_ref)
    }

    /// Round-trip time between two services (forward + reverse collapsed
    /// latency).
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let fwd = self.path(src, dst)?;
        let rev = self.path(dst, src).map(|p| p.latency);
        Some(fwd.rtt(rev))
    }

    /// All collapsed paths, in (src, dst) order: the rows in service order,
    /// each in destination order.
    pub fn paths(&self) -> impl Iterator<Item = &CollapsedPath> {
        self.path_handles().map(|(_, path)| path.as_ref())
    }

    /// All collapsed pairs with their shared path handles, in (src, dst)
    /// order.
    pub fn path_handles(&self) -> impl Iterator<Item = ((NodeId, NodeId), &Arc<CollapsedPath>)> {
        self.rows
            .iter()
            .flat_map(|row| row.iter().flatten())
            .map(|path| ((path.src, path.dst), path))
    }

    /// Number of collapsed (ordered) pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// The container address of a service.
    pub fn address_of(&self, service: NodeId) -> Option<Addr> {
        self.number_of(service)
            .map(|number| Addr::container(number as u32))
    }

    /// The service owning a container address.
    pub fn service_at(&self, addr: Addr) -> Option<NodeId> {
        self.number_at(addr).map(|number| self.services[number])
    }

    /// Every (service, address) assignment, in service-id order.
    pub fn addresses(&self) -> impl Iterator<Item = (NodeId, Addr)> + '_ {
        self.services
            .iter()
            .enumerate()
            .map(|(number, &service)| (service, Addr::container(number as u32)))
    }

    /// Capacity of an original link.
    pub fn link_capacity(&self, link: LinkId) -> Option<Bandwidth> {
        self.links.slot(link).map(|slot| self.links.capacity(slot))
    }

    /// The full link-capacity table (ordered by link id), built from
    /// [`CollapsedTopology::link_table`] on first use.
    pub fn link_capacities(&self) -> &BTreeMap<LinkId, Bandwidth> {
        self.links.capacities()
    }

    /// The snapshot's links. Two snapshots returning [`Arc::ptr_eq`] tables
    /// agree on every link's capacity and latency, which is what the
    /// solver's memo relies on.
    pub fn link_table(&self) -> &Arc<LinkTable> {
        &self.links
    }

    /// Builds the sharing-solver input for one active (src, dst) pair: the
    /// collapsed path's links (borrowed), the pair's RTT as the fairness
    /// weight ([`CollapsedTopology::rtt`]) and the path maximum bandwidth as
    /// the demand cap.
    ///
    /// Both the per-host Emulation Manager (for its local flows) and the
    /// omniscient convergence reference build their solver inputs through
    /// this one helper, so the convergence gap measures metadata staleness
    /// rather than implementation drift.
    pub fn flow_ref(&self, src: Addr, dst: Addr) -> Option<FlowRef<'_>> {
        let (src, dst) = (self.number_at(src)?, self.number_at(dst)?);
        let path = self.slot(src, dst)?;
        Some(FlowRef {
            links: &path.links,
            rtt: path.rtt(self.slot(dst, src).map(|reverse| reverse.latency)),
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
    /// An Emulation Manager reconstructs the RTT weight of a *remote* flow
    /// it only knows through metadata from these latencies, read by slot
    /// from [`CollapsedTopology::link_table`]: the advertised link ids
    /// identify the flow's path, and the latencies along it sum to the
    /// one-way delay (doubled for the round trip).
    pub fn link_latency(&self, link: LinkId) -> Option<SimDuration> {
        self.links.slot(link).map(|slot| self.links.latency(slot))
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
    /// order, from the `10.1.0.0/16` container network).
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
    fn addresses_outside_the_service_table_resolve_to_nothing() {
        let (t, c1, _, _) = figure1();
        let c = CollapsedTopology::build(&t);
        let first = Addr::container(0);
        let services = c.addresses().count() as u32;
        assert_eq!(services, 3);
        for outside in [
            Addr::new(10, 0, 255, 255),
            Addr::container(services),
            Addr::new(10, 2, 0, 0),
        ] {
            assert_eq!(c.service_at(outside), None, "{outside}");
            assert!(c.path_by_addr(first, outside).is_none(), "{outside}");
            assert!(c.path_by_addr(outside, first).is_none(), "{outside}");
            assert!(c.flow_ref(first, outside).is_none(), "{outside}");
            assert!(c.flow_ref(outside, first).is_none(), "{outside}");
        }
        assert_eq!(c.service_at(first), Some(c1));
        let bridge = t.node_by_name("s1").unwrap();
        assert_eq!(c.address_of(bridge), None);
        assert_eq!(c.pair_count(), c.paths().count());
        assert_eq!(c.pair_count(), c.path_handles().count());
    }

    #[test]
    fn rebuild_numbers_only_the_services_of_its_table() {
        let (mut t, c1, sv1, sv2) = figure1();
        let before = CollapsedTopology::build(&t);
        // A service that joins has no address and no pairs; a service that
        // leaves keeps its address and loses its pairs.
        let late = t.add_service("late", 0, "x");
        let s2 = t.node_by_name("s2").unwrap();
        t.add_bidirectional_link(late, s2, props(1, 10), "net");
        t.remove_node(sv2);
        let after = before.rebuild_with_addresses(&t);
        assert_eq!(after.address_of(late), None);
        assert!(after.path(late, c1).is_none() && after.path(c1, late).is_none());
        assert_eq!(after.address_of(sv2), before.address_of(sv2));
        assert!(after.path(sv2, sv1).is_none() && after.path(sv1, sv2).is_none());
        assert_eq!(after.pair_count(), 2);
        assert!(after.path(c1, sv1).is_some() && after.path(sv1, c1).is_some());
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

    /// Slots ascend with ids whatever order the links come in, with the
    /// direct id → slot index (dense ids) and without it (sparse ids); an
    /// id the table lacks has no slot, however large.
    #[test]
    fn link_table_slots_ascend_with_ids() {
        for stride in [1u32, 3, 1_000_003] {
            let ids: Vec<LinkId> = [5u32, 0, 9, 2, 7]
                .iter()
                .map(|&k| LinkId(k * stride))
                .collect();
            let table = LinkTable::new(ids.iter().map(|&id| {
                let k = u64::from(id.0);
                (
                    id,
                    Bandwidth::from_bps(k + 1),
                    SimDuration::from_nanos(2 * k),
                )
            }));
            assert_eq!(table.len(), ids.len());
            assert!(
                table.ids().windows(2).all(|w| w[0] < w[1]),
                "stride {stride}"
            );
            for (slot, &id) in table.ids().iter().enumerate() {
                assert_eq!(table.slot(id), Some(slot), "stride {stride}");
                assert_eq!(
                    table.capacity(slot),
                    Bandwidth::from_bps(u64::from(id.0) + 1)
                );
                assert_eq!(
                    table.latency(slot),
                    SimDuration::from_nanos(2 * u64::from(id.0))
                );
            }
            for absent in [LinkId(1), LinkId(u32::from(u16::MAX)), LinkId(u32::MAX)] {
                assert_eq!(table.slot(absent), None, "stride {stride}");
            }
            let map = table.capacities();
            assert!(map.keys().eq(table.ids()));
        }
        let (t, _, _, _) = figure1();
        let c = CollapsedTopology::build(&t);
        let table = c.link_table();
        assert_eq!(table.len(), t.link_count());
        for link in t.links() {
            let slot = table.slot(link.id).expect("every link has a slot");
            assert_eq!(table.capacity(slot), link.properties.bandwidth);
            assert_eq!(table.latency(slot), link.properties.latency);
        }
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
