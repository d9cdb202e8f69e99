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
//! departed service keeps its number and its address; it simply has no
//! pairs.
//!
//! A snapshot holds no paths. It keeps shortest-path trees, each as its
//! parent array — per node of the graph, the link the tree reaches it over
//! ([`Via`]) — and per service a `Source` that says which tree it reads.
//!
//! # Trees per attachment point
//!
//! In the paper's topologies containers sit behind switches (§3). A service
//! with exactly one out-link `L: s → b` is a **leaf**, and `b` is its
//! **root**. A leaf's tree is not searched but derived from its root's. By
//! the tie-break contract's closed form (see [`kollaps_topology::graph`]),
//! every `best_s(v)` is `best_b(v)` plus `(latency of L, 1)`: every path out
//! of `s` starts with `L`, and no shortest path from `b` passes `s`, whose
//! only way out leads back to `b`. The tight in-links of every other node,
//! and their `(best(y), y, link id)` order, shift alike. So `s`'s parent
//! array is `b`'s with two entries changed — `parent[b] = L` and
//! `parent[s] = none` — ties included, whatever `L`'s latency. A snapshot
//! therefore keeps one tree per root (a switch or a service) and one per
//! service that is no leaf, in root order; a leaf reads its root's tree
//! through the two-entry patch (`Source::Leaf`), and a service that is
//! gone or has no out-link reaches nothing and reads no tree
//! (`Source::None`). On a dumbbell of 1,000 services that is 2 trees,
//! not 1,000.
//!
//! Each tree's parent array is one **base**, the initial snapshot's, shared
//! by every snapshot of a timeline, plus a sorted **overlay** of the entries
//! where this snapshot's tree differs from the base. The node set of a
//! timeline only grows: a node that leaves keeps its index without links,
//! and a bridge that joins is appended, so a snapshot carries its graph's
//! node ids and reads the base as unreached past its width; a tree added
//! later reads an unreached base. A snapshot timeline shares a tree's
//! overlay with the previous snapshot when the tree did not move, and
//! writes only the entries a change moved otherwise, so the base costs
//! `trees × nodes × 8 B` once and a snapshot `trees × 16 B` plus 12 B per
//! overlay entry (the sources and the tree roots are shared until a
//! service switches trees). A path is derived when asked for: walking the
//! parents back from the destination gives its links — a leaf's walk runs
//! through its root's tree and ends with `L` — and the snapshot's link
//! tables their latency, jitter, loss and capacity, composed with the
//! formulas above. Whoever reads a pair on every loop iteration keeps what
//! it derived (the Emulation Manager caches its senders' paths).
//!
//! The links are one [`LinkTable`] per snapshot (capacity, latency, jitter
//! and loss by slot) behind an [`Arc`]: a snapshot timeline shares it with
//! the previous snapshot unless the change moved a value of a link or a
//! link came or went. A table that moved only values no flow's capacity
//! depends on still leaves the solver's memo a hit: it compares a new table
//! by value at the links its flows cross (see `crate::sharing`).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use kollaps_netmodel::packet::Addr;
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use kollaps_topology::graph::{
    links_back, links_forward, PathProperties, ShortestPathTree, TopologyGraph, Via,
};
use kollaps_topology::model::{LinkId, LinkProperties, NodeId, Topology};

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

/// A pair's collapsed path with the round-trip time its flow is weighted
/// by: everything the sharing solver and a sender's qdisc chain read of the
/// pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPath {
    /// The forward path.
    pub path: CollapsedPath,
    /// Its latency plus the reverse path's (see [`CollapsedPath::rtt`]).
    pub rtt: SimDuration,
}

impl FlowPath {
    /// The sharing-solver input of the pair: the path's links (borrowed),
    /// its RTT as the fairness weight and its maximum bandwidth as the
    /// demand cap.
    pub fn flow_ref(&self) -> FlowRef<'_> {
        FlowRef {
            links: &self.path.links,
            rtt: self.rtt,
            demand: self.path.max_bandwidth,
        }
    }
}

/// "No slot" in [`LinkTable`]'s id → slot index.
const NO_SLOT: u32 = u32::MAX;

/// The links of one snapshot, numbered densely: ids ascending, a link's
/// *slot* is its position, and its capacity, latency, jitter and loss are
/// arrays by slot.
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
    /// Jitter per slot.
    jitter: Vec<SimDuration>,
    /// Loss probability per slot.
    loss: Vec<f64>,
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
    /// The table of `(id, properties)` entries with distinct ids, in any
    /// order.
    fn new(links: impl IntoIterator<Item = (LinkId, LinkProperties)>) -> Self {
        let mut links: Vec<_> = links.into_iter().collect();
        links.sort_unstable_by_key(|&(id, _)| id);
        let mut table = LinkTable::default();
        for (id, properties) in links {
            table.push(id, properties);
        }
        table.index();
        table
    }

    /// Appends link `id`, above every id of the table, without indexing it.
    fn push(&mut self, id: LinkId, properties: LinkProperties) {
        self.ids.push(id);
        self.capacity.push(properties.bandwidth);
        self.latency.push(properties.latency);
        self.jitter.push(properties.jitter);
        self.loss.push(properties.loss);
    }

    /// Builds the id → slot index, when the ids are dense enough.
    fn index(&mut self) {
        self.direct.clear();
        if let Some(&LinkId(highest)) = self.ids.last() {
            let span = (highest as usize).saturating_add(1);
            if span <= self.ids.len().saturating_mul(4).saturating_add(1024) {
                self.direct.resize(span, NO_SLOT);
                for (slot, link) in self.ids.iter().enumerate() {
                    self.direct[link.0 as usize] = slot as u32;
                }
            }
        }
    }

    /// The properties of the link in `slot`.
    fn properties(&self, slot: usize) -> LinkProperties {
        LinkProperties {
            latency: self.latency[slot],
            jitter: self.jitter[slot],
            bandwidth: self.capacity[slot],
            loss: self.loss[slot],
        }
    }

    /// This table after `changes`, ascending by id: each link brought to
    /// its properties — added when the table lacks it — or removed at
    /// `None`. One merge of the two lists, the runs between changes copied
    /// whole, no sort and no topology read; when no link comes or goes,
    /// the id → slot index is copied too.
    pub(crate) fn patched(
        &self,
        changes: impl IntoIterator<Item = (LinkId, Option<LinkProperties>)>,
    ) -> LinkTable {
        let mut table = LinkTable {
            ids: Vec::with_capacity(self.len() + 2),
            capacity: Vec::with_capacity(self.len() + 2),
            latency: Vec::with_capacity(self.len() + 2),
            jitter: Vec::with_capacity(self.len() + 2),
            loss: Vec::with_capacity(self.len() + 2),
            ..LinkTable::default()
        };
        let mut same_ids = true;
        // The slots before `copied` are in `table`.
        let mut copied = 0;
        for (id, properties) in changes {
            let slot = self.ids.partition_point(|&other| other < id);
            table.copy(self, copied..slot);
            let found = self.ids.get(slot) == Some(&id);
            copied = slot + usize::from(found);
            same_ids &= found == properties.is_some();
            if let Some(properties) = properties {
                table.push(id, properties);
            }
        }
        table.copy(self, copied..self.len());
        if same_ids {
            table.direct.clone_from(&self.direct);
        } else {
            table.index();
        }
        table
    }

    /// Appends the links of `other` in `slots`, above every id of the
    /// table, without indexing them.
    fn copy(&mut self, other: &LinkTable, slots: std::ops::Range<usize>) {
        self.ids.extend_from_slice(&other.ids[slots.clone()]);
        self.capacity
            .extend_from_slice(&other.capacity[slots.clone()]);
        self.latency
            .extend_from_slice(&other.latency[slots.clone()]);
        self.jitter.extend_from_slice(&other.jitter[slots.clone()]);
        self.loss.extend_from_slice(&other.loss[slots]);
    }

    /// The links of `topology`.
    pub(crate) fn of(topology: &Topology) -> Self {
        LinkTable::new(topology.links().iter().map(|l| (l.id, l.properties)))
    }

    /// The links of a capacity map, with zero latency, jitter and loss.
    pub fn from_capacities(capacities: &BTreeMap<LinkId, Bandwidth>) -> Self {
        LinkTable::new(
            capacities
                .iter()
                .map(|(&id, &capacity)| (id, LinkProperties::new(SimDuration::ZERO, capacity))),
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

    /// `true` when both tables hold the same links with the same values,
    /// and index them alike.
    #[cfg(test)]
    pub(crate) fn same_links(&self, other: &LinkTable) -> bool {
        self.ids == other.ids
            && self.direct == other.direct
            && self.capacity == other.capacity
            && self.latency == other.latency
            && self.jitter == other.jitter
            && self.loss == other.loss
    }

    /// The end-to-end values of the path over `links` (source first);
    /// `None` if a link is not in the table (never for the links of a
    /// snapshot's own trees).
    pub(crate) fn compose(&self, links: &[LinkId]) -> Option<PathProperties> {
        PathProperties::compose_links(
            links
                .iter()
                .map(|&link| Some(self.properties(self.slot(link)?))),
        )
    }
}

/// "No node": a service its node set does not have.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// The parent arrays of every tree of a snapshot over the first `width`
/// nodes of a node set: what the overlays of every snapshot that shares it
/// differ from. A node past the width, appended later, and a tree past the
/// base's, added later, read unreached.
#[derive(Debug, Default)]
pub(crate) struct TreeBase {
    /// The nodes the parent arrays cover.
    width: usize,
    /// The trees the parent arrays hold.
    trees: usize,
    /// Per service number, the index of its node; [`NO_NODE`] for a
    /// service the searched topology did not have.
    pub(crate) at: Vec<u32>,
    /// Per node index, the number of the service it is; [`NO_NODE`] for a
    /// bridge.
    number: Vec<u32>,
    /// `width` parents per tree, in tree order.
    parents: Vec<Via>,
}

impl TreeBase {
    /// The base entry of tree `tree` for the node at `node`.
    pub(crate) fn parent(&self, tree: usize, node: u32) -> Via {
        let node = node as usize;
        if tree < self.trees && node < self.width {
            self.parents[tree * self.width + node]
        } else {
            Via::NONE
        }
    }

    /// The number of the service at `node`; [`NO_NODE`] for a bridge.
    pub(crate) fn number(&self, node: u32) -> u32 {
        self.number.get(node as usize).copied().unwrap_or(NO_NODE)
    }
}

/// The entries of one tree that differ from its base, ascending by node
/// index; `None` when there are none.
pub(crate) type Overlay = Option<Arc<[(u32, Via)]>>;

/// How a service's shortest-path tree is read from a snapshot's trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The service is gone, or no link leaves it: it reaches nothing.
    None,
    /// Its own tree, kept as tree `.0`: several links leave it (or one
    /// that loops back to it).
    Tree(u32),
    /// A leaf: exactly one link, `link`, leaves it, towards its *root*, the
    /// node at index `root`, whose tree is kept as tree `tree`. The leaf's
    /// tree is the root's with two entries changed: the root is reached
    /// over `link`, and the leaf is the source (see the module docs).
    Leaf { tree: u32, root: u32, link: LinkId },
}

impl Source {
    /// What the service at node `at` of `graph` ([`NO_NODE`] for an absent
    /// one) reads its tree from: `None` when no link leaves it, else the
    /// node whose tree it is — its root, with the link to it, for a leaf,
    /// or itself.
    pub(crate) fn attachment(graph: &TopologyGraph, at: u32) -> Option<(u32, Option<LinkId>)> {
        if at == NO_NODE {
            return None;
        }
        let mut out = graph.out_links(at);
        match (out.next(), out.next()) {
            (None, _) => None,
            (Some((link, root)), None) if root != at => Some((root, Some(link))),
            _ => Some((at, None)),
        }
    }

    /// The source of an `attachment`, with `tree` numbering the tree of a
    /// node.
    pub(crate) fn new(
        attachment: Option<(u32, Option<LinkId>)>,
        tree: impl FnOnce(u32) -> u32,
    ) -> Source {
        match attachment {
            None => Source::None,
            Some((root, None)) => Source::Tree(tree(root)),
            Some((root, Some(link))) => Source::Leaf {
                tree: tree(root),
                root,
                link,
            },
        }
    }

    /// The tree it reads; `None` for [`Source::None`].
    pub(crate) fn tree(self) -> Option<usize> {
        match self {
            Source::None => None,
            Source::Tree(tree) | Source::Leaf { tree, .. } => Some(tree as usize),
        }
    }
}

/// The collapsed view of a topology snapshot: every ordered pair of
/// services that reach each other, by its shortest-path tree, plus the
/// addressing information used by the dataplane.
///
/// The service table is shared by every snapshot of an experiment, and the
/// trees are a shared base plus one overlay per tree (see the module
/// docs), so that successive snapshots of a dynamic experiment (see
/// `crate::timeline`) share what did not move instead of cloning
/// `O(services²)` entries per event.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CollapsedTopology {
    /// Every service, in id order: the `i`-th owns `Addr::container(i)`.
    pub(crate) services: Arc<[NodeId]>,
    /// The node ids of the graph the trees were searched on, ascending
    /// ([`TopologyGraph::nodes`]): parent arrays are indexed like them.
    pub(crate) nodes: Arc<[NodeId]>,
    /// The parent arrays every overlay differs from.
    pub(crate) base: Arc<TreeBase>,
    /// Per service number, the tree it reads.
    pub(crate) sources: Arc<[Source]>,
    /// Per tree, the index of the node it is searched from. A tree no
    /// source reads is stale: no walk reads it.
    pub(crate) roots: Arc<[u32]>,
    /// Per tree, where it differs from the base.
    pub(crate) overlays: Vec<Overlay>,
    /// Ordered pairs of present services that reach each other.
    pub(crate) pairs: usize,
    /// The snapshot's links.
    pub(crate) links: Arc<LinkTable>,
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
        CollapsedTopology::build_keeping_trees(topology).0
    }

    /// [`CollapsedTopology::build`], also handing back the graph it searched
    /// and the shortest-path trees it searched, in tree order.
    pub(crate) fn build_keeping_trees(
        topology: &Topology,
    ) -> (Self, TopologyGraph, Vec<Option<ShortestPathTree>>) {
        let services: Arc<[NodeId]> = topology.service_ids().into();
        assert!(
            services.len() <= Addr::CONTAINERS as usize,
            "{} services do not fit the 10.1.0.0/16 container network",
            services.len()
        );
        CollapsedTopology::searched(topology, services)
    }

    /// The snapshot of `topology` over the numbered `services`, from one
    /// full search per root and per service that is no leaf, as a new base
    /// with empty overlays; also the graph searched and the searches, in
    /// tree order.
    fn searched(
        topology: &Topology,
        services: Arc<[NodeId]>,
    ) -> (Self, TopologyGraph, Vec<Option<ShortestPathTree>>) {
        let graph = TopologyGraph::new(topology);
        let present = topology.service_ids();
        let at: Vec<u32> = services
            .iter()
            .map(|&service| {
                let here = present.binary_search(&service).is_ok();
                here.then(|| graph.node_index(service))
                    .flatten()
                    .unwrap_or(NO_NODE)
            })
            .collect();
        let attachments: Vec<_> = at
            .iter()
            .map(|&at| Source::attachment(&graph, at))
            .collect();
        let mut roots: Vec<u32> = attachments
            .iter()
            .flatten()
            .map(|&(root, _)| root)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        let sources: Arc<[Source]> = attachments
            .iter()
            .map(|&attachment| {
                Source::new(attachment, |root| {
                    roots.partition_point(|&other| other < root) as u32
                })
            })
            .collect();
        let nodes = graph.nodes();
        let trees: Vec<Option<ShortestPathTree>> = roots
            .iter()
            .map(|&root| Some(graph.shortest_path_tree(nodes[root as usize])))
            .collect();
        let mut parents = Vec::with_capacity(trees.len() * nodes.len());
        for tree in trees.iter().flatten() {
            parents.extend_from_slice(tree.parents());
        }
        let mut number = vec![NO_NODE; nodes.len()];
        for (service, &node) in at.iter().enumerate() {
            if node != NO_NODE {
                number[node as usize] = service as u32;
            }
        }
        let base = TreeBase {
            width: nodes.len(),
            trees: trees.len(),
            at,
            number,
            parents,
        };
        let mut collapsed = CollapsedTopology {
            overlays: vec![None; trees.len()],
            services,
            nodes: Arc::clone(nodes),
            base: Arc::new(base),
            sources,
            roots: roots.into(),
            pairs: 0,
            links: Arc::new(LinkTable::of(topology)),
        };
        collapsed.pairs = collapsed.reach().iter().sum();
        (collapsed, graph, trees)
    }

    /// Per source number, the destinations it reaches: one parent lookup
    /// per tree and service, no walk. A tree reaches a service when it has
    /// a link to it; a leaf reaches what its root's tree does but itself,
    /// and its root when that is a service.
    pub(crate) fn reach(&self) -> Vec<usize> {
        let at = &self.base.at;
        let reached =
            |tree: usize, node: u32| node != NO_NODE && !self.tree_parent(tree, node).is_none();
        let per_tree: Vec<usize> = (0..self.roots.len())
            .map(|tree| at.iter().filter(|&&node| reached(tree, node)).count())
            .collect();
        self.sources
            .iter()
            .enumerate()
            .map(|(src, &source)| match source {
                Source::None => 0,
                Source::Tree(tree) => per_tree[tree as usize],
                Source::Leaf { tree, root, .. } => {
                    let tree = tree as usize;
                    per_tree[tree] - usize::from(reached(tree, at[src]))
                        + usize::from(self.base.number(root) != NO_NODE)
                }
            })
            .collect()
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
    /// This is the **online full rebuild**: every source is searched from
    /// scratch. The runtime emulation no longer calls it per event (the
    /// precomputed `crate::timeline` swaps delta-encoded snapshots instead);
    /// it remains the reference the timeline is checked against and the
    /// fallback for callers that mutate topologies outside a schedule.
    ///
    /// The service table is `self`'s: a service of `topology` outside it
    /// has no address and no pairs, and a service of the table that left
    /// `topology` keeps its address with no pairs.
    pub fn rebuild_with_addresses(&self, topology: &Topology) -> Self {
        CollapsedTopology::searched(topology, Arc::clone(&self.services)).0
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

    /// The entry of tree `tree` for the node at `node`: its overlay's, or
    /// else the base's.
    pub(crate) fn tree_parent(&self, tree: usize, node: u32) -> Via {
        if let Some(overlay) = &self.overlays[tree] {
            if let Ok(i) = overlay.binary_search_by_key(&node, |&(at, _)| at) {
                return overlay[i].1;
            }
        }
        self.base.parent(tree, node)
    }

    /// Tree `tree`'s whole parent array.
    pub(crate) fn tree_parents(&self, tree: usize) -> Vec<Via> {
        let mut parents: Vec<Via> = (0..self.base.width as u32)
            .map(|node| self.base.parent(tree, node))
            .collect();
        parents.resize(self.nodes.len(), Via::NONE);
        for &(node, via) in self.overlays[tree]
            .iter()
            .flat_map(|overlay| overlay.iter())
        {
            parents[node as usize] = via;
        }
        parents
    }

    /// The entry of source number `src`'s parent array for the node at
    /// `node`, read through its [`Source`].
    pub(crate) fn parent(&self, src: usize, node: u32) -> Via {
        match self.sources[src] {
            Source::None => Via::NONE,
            Source::Tree(tree) => self.tree_parent(tree as usize, node),
            Source::Leaf { tree, root, link } => {
                let at = self.base.at[src];
                if node == root {
                    Via { link, from: at }
                } else if node == at {
                    Via::NONE
                } else {
                    self.tree_parent(tree as usize, node)
                }
            }
        }
    }

    /// The links of tree `tree`'s path to the node at `node`, destination
    /// first; `None` when there is none.
    pub(crate) fn tree_back(
        &self,
        tree: usize,
        node: u32,
    ) -> Option<impl Iterator<Item = LinkId> + Clone + '_> {
        links_back(
            move |node| self.tree_parent(tree, node),
            self.nodes.len(),
            self.roots[tree],
            node,
        )
    }

    /// The links of the path between two numbered services, destination
    /// first; `None` when there is none. A leaf's walk runs through its
    /// root's tree and ends with its one link.
    pub(crate) fn path_back(
        &self,
        src: usize,
        dst: usize,
    ) -> Option<impl Iterator<Item = LinkId> + Clone + '_> {
        links_back(
            move |node| self.parent(src, node),
            self.nodes.len(),
            self.base.at[src],
            self.base.at[dst],
        )
    }

    /// Source number `src`'s whole parent array.
    #[cfg(test)]
    pub(crate) fn parents(&self, src: usize) -> Vec<Via> {
        (0..self.nodes.len() as u32)
            .map(|node| self.parent(src, node))
            .collect()
    }

    /// Derives the path between two numbered services.
    fn path_of(&self, src: usize, dst: usize) -> Option<CollapsedPath> {
        let links = links_forward(self.path_back(src, dst)?);
        let values = self.links.compose(&links)?;
        Some(CollapsedPath {
            src: self.services[src],
            dst: self.services[dst],
            latency: values.latency,
            jitter: values.jitter,
            loss: values.loss,
            max_bandwidth: values.max_bandwidth,
            links,
        })
    }

    /// The one-way latency between two numbered services, without building
    /// their path.
    fn latency_of(&self, src: usize, dst: usize) -> Option<SimDuration> {
        let mut back = self.path_back(src, dst)?;
        back.try_fold(SimDuration::ZERO, |sum, link| {
            Some(sum + self.links.latency(self.links.slot(link)?))
        })
    }

    /// The path and RTT of two numbered services.
    fn flow_path_of(&self, src: usize, dst: usize) -> Option<FlowPath> {
        let path = self.path_of(src, dst)?;
        let rtt = path.rtt(self.latency_of(dst, src));
        Some(FlowPath { path, rtt })
    }

    /// The collapsed path from `src` to `dst`, if reachable, derived from
    /// the snapshot's trees.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<CollapsedPath> {
        self.path_of(self.number_of(src)?, self.number_of(dst)?)
    }

    /// The collapsed path between two container addresses.
    pub fn path_by_addr(&self, src: Addr, dst: Addr) -> Option<CollapsedPath> {
        self.path_of(self.number_at(src)?, self.number_at(dst)?)
    }

    /// Round-trip time between two services (forward + reverse collapsed
    /// latency).
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        Some(
            self.flow_path_of(self.number_of(src)?, self.number_of(dst)?)?
                .rtt,
        )
    }

    /// `true` when `src` reaches `dst`: one parent lookup on `src`'s tree,
    /// no walk. A tree only holds links of its snapshot, so this is
    /// [`CollapsedTopology::max_bandwidth_by_addr`] being `Some`.
    pub fn reaches(&self, src: Addr, dst: Addr) -> bool {
        let (Some(src), Some(dst)) = (self.number_at(src), self.number_at(dst)) else {
            return false;
        };
        self.path_back(src, dst).is_some()
    }

    /// The bottleneck bandwidth between two container addresses, without
    /// building their path.
    pub fn max_bandwidth_by_addr(&self, src: Addr, dst: Addr) -> Option<Bandwidth> {
        let mut back = self.path_back(self.number_at(src)?, self.number_at(dst)?)?;
        back.try_fold(Bandwidth::MAX, |min, link| {
            Some(min.min(self.links.capacity(self.links.slot(link)?)))
        })
    }

    /// Every collapsed path, in (src, dst) order, each derived afresh: the
    /// all-pairs oracle of the tests. Nothing on the emulation loop
    /// enumerates the pairs.
    pub fn paths(&self) -> impl Iterator<Item = CollapsedPath> + '_ {
        let n = self.services.len();
        (0..n * n).filter_map(move |pair| self.path_of(pair / n, pair % n))
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
    /// agree on every value of every link, so the solver's memo
    /// takes the same table as a hit at once and compares the capacities
    /// of its flows' links only across different tables.
    pub fn link_table(&self) -> &Arc<LinkTable> {
        &self.links
    }

    /// The path and the RTT of one (src, dst) pair: its sharing-solver
    /// input ([`FlowPath::flow_ref`]) and its chain's settings.
    ///
    /// The per-host Emulation Manager derives each of its senders' pairs
    /// through this one helper and keeps the result, and the omniscient
    /// convergence reference reads those same results, so the convergence
    /// gap measures metadata staleness rather than implementation drift.
    pub fn flow_path(&self, src: Addr, dst: Addr) -> Option<FlowPath> {
        self.flow_path_of(self.number_at(src)?, self.number_at(dst)?)
    }

    /// [`CollapsedTopology::flow_path`]'s solver input with owned links,
    /// keyed by `id`.
    pub fn flow_demand(&self, id: u64, src: Addr, dst: Addr) -> Option<FlowDemand> {
        self.flow_path(src, dst).map(|flow| FlowDemand {
            id,
            rtt: flow.rtt,
            demand: flow.path.max_bandwidth,
            links: flow.path.links,
        })
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
            assert!(c.flow_path(first, outside).is_none(), "{outside}");
            assert!(c.flow_path(outside, first).is_none(), "{outside}");
            assert!(
                c.max_bandwidth_by_addr(first, outside).is_none(),
                "{outside}"
            );
        }
        assert_eq!(c.service_at(first), Some(c1));
        let bridge = t.node_by_name("s1").unwrap();
        assert_eq!(c.address_of(bridge), None);
        assert_eq!(c.pair_count(), c.paths().count());
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
                let latency = SimDuration::from_nanos(2 * k);
                (id, LinkProperties::new(latency, Bandwidth::from_bps(k + 1)))
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
