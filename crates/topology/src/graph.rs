//! Graph structure and shortest-path computation over a topology.
//!
//! The Emulation Manager parses the topology into a graph and computes the
//! shortest path between every pair of reachable containers (paper §3).
//! Paths are weighted by link latency, matching the intuition that routing
//! in the target network follows the lowest-latency route.
//!
//! # The tie-break contract
//!
//! Every Emulation Manager instance — and every snapshot of the precomputed
//! timeline — must pick exactly the same path among equal ones, so the
//! search is pinned down to the last tie, and [`ShortestPathTree`] keeps it
//! whatever its tables look like:
//!
//! * the heap pops the smallest `(cost, hops, node id)`; dense indices are
//!   handed out in node-id order so that the index compares like the id;
//! * a node's outgoing links are relaxed in ascending link id;
//! * a relaxation wins only when `(cost, hops)` is **strictly** smaller, so
//!   among equals the first one found stays;
//! * there is no closed set: a popped entry is skipped only when its
//!   `(cost, hops)` is worse than the node's current best.
//!
//! `(cost, hops)` strictly decreases along predecessor links (zero-latency
//! links still add a hop), so the predecessors form a tree rooted at the
//! source and walking them always ends there.
//!
//! The same rules have a closed form. Every node is expanded once, at its
//! final `best`, in `(best, node id)` order, and the first relaxation that
//! reaches a node's final `best` is the one that stays. So the link a node
//! `v` is reached over is, among its *tight* in-links `y → v` (those with
//! `best(y) + (latency, 1) == best(v)`), the one with the smallest
//! `(best(y), y, link id)`. [`ShortestPathTree::update`] repairs a tree
//! after a change without re-running the search, and re-picks every link
//! it touches by this form.
//!
//! # Every node on a path continues it
//!
//! Take any node `n` on `s`'s tree path to `d`, and any `v` after `n` on
//! that path. Then `best_s(v) = best_s(n) + best_n(v)`; every in-link that
//! is tight for `n` at `v` is also tight for `s`, its `(best, node, link
//! id)` key shifted by the same `best_s(n)`; and the link `s`'s tree picks
//! at `v` is one of them. So `n`'s tree picks the same link at `v`, and the
//! tree path of `n` to `d` is the rest of `s`'s: a switch forwarding along
//! its own shortest path takes the next link of the source's, and source
//! routing equals per-node forwarding hop for hop. The hop-by-hop baseline
//! rests on this to forward along the collapsed paths
//! (`every_node_on_a_path_continues_it` in the workspace's property tests
//! pins it on tie-heavy graphs).
//!
//! # One walk
//!
//! A tree path is read from a parent array by [`links_back`], destination
//! first, and [`links_forward`] turns such a walk into the path's link
//! list. [`ShortestPathTree::path_to`], the collapsed snapshots and the
//! snapshot timeline all read their paths through them; nothing outside
//! the search and [`ShortestPathTree::update`] decides a route.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use crate::model::{LinkId, LinkProperties, NodeId, Topology};

/// One link in the CSR arrays, endpoints as dense node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    id: LinkId,
    from: u32,
    to: u32,
    latency_nanos: u64,
}

/// `(cost, hops)` of an unreached node: any real one beats it.
const UNREACHED: (u64, u32) = (u64::MAX, u32::MAX);

/// `(cost, hops)` one link further than `best`.
fn over(best: (u64, u32), latency_nanos: u64) -> (u64, u32) {
    (best.0 + latency_nanos, best.1 + 1)
}

/// The min-heap of the search, on `(cost, hops, node)`.
type Heap = BinaryHeap<Reverse<(u64, u32, u32)>>;

/// A dense (CSR) adjacency view of a [`Topology`] with shortest-path
/// queries.
///
/// Its links can be edited in place ([`TopologyGraph::set_link`]), and its
/// node set can only grow ([`TopologyGraph::add_nodes`]): a node is
/// appended behind every index, and a node the topology dropped stays as an
/// index without links, so every tree of the graph keeps its indices. Two
/// graphs are equal when they have the same nodes, the same
/// out-links per node in the same order with the same latencies, and the
/// same in-links per node in any order.
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    /// Every node id, and every id a link names, ascending: a node's dense
    /// index is its position here, so indices order like ids. Shared with
    /// every tree of the graph.
    ids: Arc<[NodeId]>,
    /// `edges[offsets[i]..offsets[i + 1]]` leave node `i`, in ascending
    /// link id.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    /// `in_slots[in_offsets[i]..in_offsets[i + 1]]` are the slots in
    /// `edges` of the links entering node `i`, in no set order: the closed
    /// form's key is total.
    in_offsets: Vec<u32>,
    in_slots: Vec<u32>,
}

impl TopologyGraph {
    /// Builds the adjacency view of `topology`.
    pub fn new(topology: &Topology) -> Self {
        TopologyGraph::with_nodes(topology, &[])
    }

    /// Builds the adjacency view of `topology` over `nodes` as well as its
    /// own: an id of `nodes` the topology lacks is a node without links.
    pub fn with_nodes(topology: &Topology, nodes: &[NodeId]) -> Self {
        let links = topology.links();
        let mut ids: Vec<NodeId> = nodes.to_vec();
        ids.extend(topology.nodes().iter().map(|n| n.id));
        ids.extend(links.iter().flat_map(|l| [l.from, l.to]));
        ids.sort_unstable();
        ids.dedup();
        let index = |id: NodeId| ids.binary_search(&id).expect("every endpoint is in `ids`") as u32;
        let mut edges: Vec<Edge> = links
            .iter()
            .map(|l| Edge {
                id: l.id,
                from: index(l.from),
                to: index(l.to),
                latency_nanos: l.properties.latency.as_nanos(),
            })
            .collect();
        edges.sort_by_key(|e| (e.from, e.id));
        let mut offsets = vec![0u32; ids.len() + 1];
        let mut in_offsets = vec![0u32; ids.len() + 1];
        for edge in &edges {
            offsets[edge.from as usize + 1] += 1;
            in_offsets[edge.to as usize + 1] += 1;
        }
        for i in 0..ids.len() {
            offsets[i + 1] += offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        // Each node's in-slots are filled from the back of its range.
        let mut cursor = in_offsets[1..].to_vec();
        let mut in_slots = vec![0u32; edges.len()];
        for (slot, edge) in edges.iter().enumerate() {
            let end = &mut cursor[edge.to as usize];
            *end -= 1;
            in_slots[*end as usize] = slot as u32;
        }
        TopologyGraph {
            ids: ids.into(),
            offsets,
            edges,
            in_offsets,
            in_slots,
        }
    }

    /// The slots in `edges` of the links leaving `node`.
    fn out_slots(&self, node: u32) -> std::ops::Range<usize> {
        self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize
    }

    /// The positions in `in_slots` of the links entering `node`.
    fn in_range(&self, node: u32) -> std::ops::Range<usize> {
        self.in_offsets[node as usize] as usize..self.in_offsets[node as usize + 1] as usize
    }

    /// The links entering `node`.
    fn in_edges(&self, node: u32) -> impl Iterator<Item = Edge> + '_ {
        self.in_slots[self.in_range(node)]
            .iter()
            .map(|&slot| self.edges[slot as usize])
    }

    /// The ids of the links from `from` to `to`, ascending; none when the
    /// graph lacks either node.
    pub fn links_between(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        let (tail, head) = (self.node_index(from), self.node_index(to));
        let out = match (tail, head) {
            (Some(tail), Some(_)) => &self.edges[self.out_slots(tail)],
            _ => &[],
        };
        out.iter()
            .filter(move |edge| Some(edge.to) == head)
            .map(|edge| edge.id)
    }

    /// The ids of the links that leave or enter `node`; none when the graph
    /// lacks it.
    pub fn links_at(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        let node = self.node_index(node);
        let out = node.map_or(0..0, |node| self.out_slots(node));
        let ins = node.into_iter().flat_map(|node| self.in_edges(node));
        let out = self.edges[out].iter().copied();
        out.chain(ins).map(|edge| edge.id)
    }

    /// The links leaving the node at dense index `node`, in ascending id,
    /// each with its head's index; none for an index the graph lacks.
    pub fn out_links(&self, node: u32) -> impl Iterator<Item = (LinkId, u32)> + '_ {
        let out = if (node as usize) < self.ids.len() {
            self.out_slots(node)
        } else {
            0..0
        };
        self.edges[out].iter().map(|edge| (edge.id, edge.to))
    }

    /// Appends every node `topology` added since the graph last had its
    /// nodes — the ids above the graph's last, as ids are never reused.
    /// Every index stays, that of a node the topology dropped included.
    pub fn add_nodes(&mut self, topology: &Topology) {
        let last = self.ids.last().copied();
        let nodes = topology.nodes();
        let added = &nodes[nodes.partition_point(|node| Some(node.id) <= last)..];
        if !added.is_empty() {
            let ids = added.iter().map(|node| node.id);
            self.ids = self.ids.iter().copied().chain(ids).collect();
            let (links, ins) = (self.edges.len() as u32, self.in_slots.len() as u32);
            self.offsets.resize(self.ids.len() + 1, links);
            self.in_offsets.resize(self.ids.len() + 1, ins);
        }
    }

    /// Brings link `id`, `from → to`, to `latency` — adding it when the
    /// graph does not have it — or removes it when `latency` is `None`.
    /// The link keeps its place among its tail's out-links in ascending id,
    /// so the graph equals [`TopologyGraph::new`] of the edited topology.
    /// Costs one shift of the link arrays: no sort and no rebuild.
    ///
    /// # Panics
    ///
    /// Panics when `from` or `to` is not a node of the graph.
    pub fn set_link(&mut self, id: LinkId, from: NodeId, to: NodeId, latency: Option<SimDuration>) {
        let (Some(tail), Some(head)) = (self.node_index(from), self.node_index(to)) else {
            panic!("link {id:?} joins a node the graph does not have");
        };
        let out = self.out_slots(tail);
        let found = self.edges[out.clone()].binary_search_by_key(&id, |edge| edge.id);
        match (found, latency) {
            (Ok(at), Some(latency)) => {
                self.edges[out.start + at].latency_nanos = latency.as_nanos()
            }
            (Ok(at), None) => self.remove_slot(out.start + at),
            (Err(at), Some(latency)) => self.insert_slot(
                out.start + at,
                Edge {
                    id,
                    from: tail,
                    to: head,
                    latency_nanos: latency.as_nanos(),
                },
            ),
            (Err(_), None) => {}
        }
    }

    /// Inserts `edge` at `slot` of `edges`, which must be its place among
    /// its tail's out-links, and lists it among its head's in-links.
    fn insert_slot(&mut self, slot: usize, edge: Edge) {
        self.edges.insert(slot, edge);
        for offset in &mut self.offsets[edge.from as usize + 1..] {
            *offset += 1;
        }
        for in_slot in &mut self.in_slots {
            *in_slot += u32::from(*in_slot as usize >= slot);
        }
        let at = self.in_offsets[edge.to as usize] as usize;
        self.in_slots.insert(at, slot as u32);
        for offset in &mut self.in_offsets[edge.to as usize + 1..] {
            *offset += 1;
        }
    }

    /// Removes the link at `slot` of `edges` and from its head's in-links.
    fn remove_slot(&mut self, slot: usize) {
        let edge = self.edges.remove(slot);
        for offset in &mut self.offsets[edge.from as usize + 1..] {
            *offset -= 1;
        }
        let range = self.in_range(edge.to);
        let at = range.start
            + self.in_slots[range]
                .iter()
                .position(|&in_slot| in_slot as usize == slot)
                .expect("a link is among its head's in-links");
        self.in_slots.remove(at);
        for offset in &mut self.in_offsets[edge.to as usize + 1..] {
            *offset -= 1;
        }
        for in_slot in &mut self.in_slots {
            *in_slot -= u32::from(*in_slot as usize > slot);
        }
    }

    /// The graph's node ids, ascending: a node's dense index is its position
    /// here, and every tree of the graph indexes its tables like them.
    pub fn nodes(&self) -> &Arc<[NodeId]> {
        &self.ids
    }

    /// The dense index of `node`, if the graph has it.
    pub fn node_index(&self, node: NodeId) -> Option<u32> {
        self.ids.binary_search(&node).ok().map(|i| i as u32)
    }

    /// The shortest-path tree (by cumulative latency) rooted at `source`,
    /// under the module's tie-break contract. A `source` the graph does not
    /// know reaches nothing.
    pub fn shortest_path_tree(&self, source: NodeId) -> ShortestPathTree {
        let mut tree = ShortestPathTree {
            ids: Arc::clone(&self.ids),
            source: self.node_index(source),
            best: Vec::new(),
            via: Vec::new(),
        };
        self.search(&mut tree, &mut Heap::new());
        tree
    }

    /// The tree of `source` whose links are `parents` — indexed like
    /// [`TopologyGraph::nodes`], as a tree of this graph searched from
    /// `source` holds them — with each node's `(cost, hops)` re-added along
    /// them. Equals [`TopologyGraph::shortest_path_tree`] of `source` when
    /// `parents` are that tree's.
    ///
    /// # Panics
    ///
    /// Panics when `parents` does not have one entry per node, forms no
    /// tree, or names a link the graph does not have.
    pub fn tree_from_parents(&self, source: NodeId, parents: Vec<Via>) -> ShortestPathTree {
        assert_eq!(parents.len(), self.ids.len(), "one parent per node");
        let mut tree = ShortestPathTree {
            ids: Arc::clone(&self.ids),
            source: self.node_index(source),
            best: vec![UNREACHED; self.ids.len()],
            via: parents,
        };
        if let Some(source) = tree.source {
            tree.best[source as usize] = (0, 0);
        }
        let mut walk = Vec::new();
        for node in 0..tree.via.len() {
            // Climb to the source or to a node already costed, then cost
            // the walk back down.
            let mut cursor = node;
            while tree.best[cursor] == UNREACHED && !tree.via[cursor].is_none() {
                assert!(walk.len() < tree.via.len(), "the parents form no tree");
                walk.push(cursor);
                cursor = tree.via[cursor].from as usize;
            }
            let mut best = tree.best[cursor];
            while let Some(step) = walk.pop() {
                if best != UNREACHED {
                    best = over(best, self.latency_of(tree.via[step]));
                }
                tree.best[step] = best;
            }
        }
        tree
    }

    /// The latency of the link `via` names, leaving `via.from`.
    fn latency_of(&self, via: Via) -> u64 {
        let out = &self.edges[self.out_slots(via.from)];
        let slot = out
            .binary_search_by_key(&via.link, |edge| edge.id)
            .expect("a parent names a link of the graph");
        out[slot].latency_nanos
    }

    /// Searches `tree` again from its source over this graph, in place;
    /// returns the nodes settled (= reached).
    fn search(&self, tree: &mut ShortestPathTree, heap: &mut Heap) -> usize {
        tree.best.clear();
        tree.best.resize(self.ids.len(), UNREACHED);
        tree.via.clear();
        tree.via.resize(self.ids.len(), Via::NONE);
        let Some(source) = tree.source else {
            return 0;
        };
        tree.best[source as usize] = (0, 0);
        heap.clear();
        heap.push(Reverse((0, 0, source)));
        self.settle(tree, heap, |tree, edge, next| {
            let to = edge.to as usize;
            if next < tree.best[to] {
                tree.best[to] = next;
                tree.via[to] = Via::of(edge);
                true
            } else {
                false
            }
        })
    }

    /// Pops `heap` in the contract's order and expands every entry that is
    /// still its node's best. `relax(tree, edge, next)` offers `next` to
    /// the head of an outgoing `edge` and says whether to queue it. Returns
    /// the nodes expanded.
    fn settle(
        &self,
        tree: &mut ShortestPathTree,
        heap: &mut Heap,
        mut relax: impl FnMut(&mut ShortestPathTree, Edge, (u64, u32)) -> bool,
    ) -> usize {
        let mut settled = 0;
        while let Some(Reverse((cost_nanos, hops, node))) = heap.pop() {
            if (cost_nanos, hops) > tree.best[node as usize] {
                continue;
            }
            settled += 1;
            for slot in self.out_slots(node) {
                let edge = self.edges[slot];
                let next = over((cost_nanos, hops), edge.latency_nanos);
                if relax(tree, edge, next) {
                    heap.push(Reverse((next.0, next.1, edge.to)));
                }
            }
        }
        settled
    }

    /// The smallest `(cost, hops)` over the in-links of `node` from nodes
    /// `from` admits.
    fn best_over_in_links(
        &self,
        tree: &ShortestPathTree,
        node: u32,
        from: impl Fn(u32) -> bool,
    ) -> (u64, u32) {
        self.in_edges(node)
            .filter(|edge| from(edge.from) && tree.best[edge.from as usize] != UNREACHED)
            .map(|edge| over(tree.best[edge.from as usize], edge.latency_nanos))
            .min()
            .unwrap_or(UNREACHED)
    }

    /// Re-picks the link `node` is reached over by the module's closed
    /// form; returns whether it changed.
    fn repick(&self, tree: &mut ShortestPathTree, node: u32) -> bool {
        let target = tree.best[node as usize];
        let mut pick: Option<((u64, u32), u32, LinkId)> = None;
        if target != UNREACHED && Some(node) != tree.source {
            for edge in self.in_edges(node) {
                let from = tree.best[edge.from as usize];
                if from == UNREACHED || over(from, edge.latency_nanos) != target {
                    continue;
                }
                let key = (from, edge.from, edge.id);
                if pick.is_none_or(|best| key < best) {
                    pick = Some(key);
                }
            }
        }
        let via = pick.map_or(Via::NONE, |(_, from, link)| Via { link, from });
        std::mem::replace(&mut tree.via[node as usize], via) != via
    }

    /// Marks in `marks` and lists in `nodes`, ascending, the nodes of
    /// `tree` whose tree path passes a node of `seeds` (the seeds
    /// included). It walks down from the seeds
    /// over this graph's out-links — `v → w` is a tree link when `w` is
    /// reached over it — so it costs the subtrees' out-links, not the
    /// tree's size.
    fn subtrees(
        &self,
        tree: &ShortestPathTree,
        seeds: impl Iterator<Item = u32>,
        marks: &mut Vec<bool>,
        stack: &mut Vec<u32>,
        nodes: &mut Vec<u32>,
    ) {
        marks.clear();
        marks.resize(tree.via.len(), false);
        stack.clear();
        nodes.clear();
        for seed in seeds {
            if !marks[seed as usize] {
                marks[seed as usize] = true;
                stack.push(seed);
            }
        }
        while let Some(node) = stack.pop() {
            nodes.push(node);
            for slot in self.out_slots(node) {
                let edge = self.edges[slot];
                let to = edge.to as usize;
                if !marks[to] && tree.via[to] == Via::of(edge) {
                    marks[to] = true;
                    stack.push(edge.to);
                }
            }
        }
        nodes.sort_unstable();
    }

    /// The deletion half of the repair: the links into `scratch.worse`
    /// that `tree` reached them over are gone or longer. Resets the
    /// subtrees below those heads, re-settles them from their unaffected
    /// in-neighbours and re-picks their links; pushes every node whose link
    /// changed to `scratch.moved`, ascending. Returns the nodes settled.
    fn cut(&self, tree: &mut ShortestPathTree, scratch: &mut TreeScratch) -> usize {
        let TreeScratch {
            worse,
            moved,
            marks,
            stack,
            affected,
            heap,
            ..
        } = scratch;
        // A node is below a head when its tree path passes one.
        self.subtrees(tree, worse.iter().copied(), marks, stack, affected);
        let below = |node: u32| marks[node as usize];
        // Only `best` is reset: each link is compared with the old one when
        // it is re-picked.
        for &node in affected.iter() {
            tree.best[node as usize] = UNREACHED;
        }
        heap.clear();
        for &node in affected.iter() {
            let best = self.best_over_in_links(tree, node, |from| !below(from));
            if best != UNREACHED {
                tree.best[node as usize] = best;
                heap.push(Reverse((best.0, best.1, node)));
            }
        }
        let settled = self.settle(tree, heap, |tree, edge, next| {
            let to = edge.to as usize;
            if below(edge.to) && next < tree.best[to] {
                tree.best[to] = next;
                true
            } else {
                false
            }
        });
        for &node in affected.iter() {
            if self.repick(tree, node) {
                moved.push(node);
            }
        }
        settled
    }

    /// The insertion half of the repair: links into `scratch.better` are
    /// new or shorter and reach those heads at or below their best. Runs a
    /// decrease-only search from the heads, then re-picks the link of every
    /// node that got closer or gained a tight in-link; pushes every node
    /// whose link changed to `scratch.moved`, ascending. Returns the nodes
    /// settled.
    fn improve(&self, tree: &mut ShortestPathTree, scratch: &mut TreeScratch) -> usize {
        let TreeScratch {
            better,
            moved,
            touched,
            heap,
            ..
        } = scratch;
        heap.clear();
        touched.clear();
        touched.extend_from_slice(better);
        for &node in better.iter() {
            let best = self.best_over_in_links(tree, node, |_| true);
            if best < tree.best[node as usize] {
                tree.best[node as usize] = best;
                heap.push(Reverse((best.0, best.1, node)));
            }
        }
        let settled = self.settle(tree, heap, |tree, edge, next| {
            let to = edge.to as usize;
            if next <= tree.best[to] {
                touched.push(edge.to);
            }
            if next < tree.best[to] {
                tree.best[to] = next;
                true
            } else {
                false
            }
        });
        touched.sort_unstable();
        touched.dedup();
        for &node in touched.iter() {
            if self.repick(tree, node) {
                moved.push(node);
            }
        }
        settled
    }
}

impl PartialEq for TopologyGraph {
    fn eq(&self, other: &TopologyGraph) -> bool {
        // Link ids are unique, so equal in-degrees and every in-link of one
        // among the other's make the in-link sets equal.
        let same_in_links = |node: u32| {
            let theirs = &other.in_slots[other.in_range(node)];
            let ours = self.in_range(node);
            ours.len() == theirs.len()
                && self.in_slots[ours].iter().all(|&slot| {
                    let id = self.edges[slot as usize].id;
                    theirs
                        .iter()
                        .any(|&theirs| other.edges[theirs as usize].id == id)
                })
        };
        self.ids == other.ids
            && self.offsets == other.offsets
            && self.edges == other.edges
            && self.in_offsets == other.in_offsets
            && (0..self.ids.len() as u32).all(same_in_links)
    }
}

impl Eq for TopologyGraph {}

/// The link a tree reaches a node over, and the dense index (see
/// [`TopologyGraph::nodes`]) of the node that link leaves: one entry of a
/// tree's parent array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Via {
    /// The link.
    pub link: LinkId,
    /// The index of its tail.
    pub from: u32,
}

impl Via {
    /// "No link": the entry of the source and of every unreached node.
    pub const NONE: Via = Via {
        link: LinkId(u32::MAX),
        from: u32::MAX,
    };

    fn of(edge: Edge) -> Via {
        Via {
            link: edge.id,
            from: edge.from,
        }
    }

    /// `true` for [`Via::NONE`].
    pub fn is_none(self) -> bool {
        self.from == Via::NONE.from
    }
}

/// The links of a tree path, destination first: from the node at `node`
/// along `parent` (a parent array of `nodes` entries, indexed like
/// [`TopologyGraph::nodes`]) back to the node at `root`. `None` when `node`
/// is `root` or unreached, or either is no index below `nodes`.
pub fn links_back(
    parent: impl Fn(u32) -> Via + Clone,
    nodes: usize,
    root: u32,
    mut node: u32,
) -> Option<impl Iterator<Item = LinkId> + Clone> {
    let known = |index: u32| (index as usize) < nodes;
    if !known(root) || !known(node) || node == root || parent(node).is_none() {
        return None;
    }
    // Only the root has no link among reached nodes, so the walk ends
    // exactly there, within `nodes` hops; a parent array that is no tree
    // ends it early rather than never.
    let mut hops = nodes;
    Some(std::iter::from_fn(move || {
        if node == root {
            return None;
        }
        debug_assert!(hops > 0, "a parent chain longer than its tree");
        hops = hops.checked_sub(1)?;
        let via = parent(node);
        node = via.from;
        (!via.is_none()).then_some(via.link)
    }))
}

/// The links of a [`links_back`] walk in path order, source first: the walk
/// is counted, then written back to front, so that the list is allocated
/// once at its exact size (it lives on in every collapsed path).
pub fn links_forward(back: impl Iterator<Item = LinkId> + Clone) -> Vec<LinkId> {
    let mut links = vec![LinkId::default(); back.clone().count()];
    for (slot, link) in links.iter_mut().rev().zip(back) {
        *slot = link;
    }
    links
}

/// What a change did to one link, as far as shortest paths care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEditKind {
    /// The link is gone, or its latency rose.
    Worse,
    /// The link is new, or its latency fell, to `latency`.
    Better {
        /// The link's latency after the change.
        latency: SimDuration,
    },
    /// Only its bandwidth, jitter or loss moved: no route changes, but the
    /// paths over it are stale.
    Reparameterised,
}

/// One link a change touched, for [`ShortestPathTree::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEdit {
    /// The link.
    pub id: LinkId,
    /// Its tail.
    pub from: NodeId,
    /// Its head.
    pub to: NodeId,
    /// What happened to it.
    pub kind: LinkEditKind,
}

/// What [`ShortestPathTree::update`] did to a tree, read out of the
/// [`TreeScratch`] it ran in.
#[derive(Debug, Clone, Copy)]
pub struct TreeUpdate<'s> {
    /// Nodes the repair (or the full search it fell back to) settled.
    pub settled: usize,
    /// Whether the repair fell back to a full search.
    pub searched: bool,
    moved: &'s [u32],
    /// The nodes whose path may differ, ascending.
    changed: &'s [u32],
}

impl<'s> TreeUpdate<'s> {
    /// The nodes whose link changed, ascending: the tree's parent-array
    /// entries the change moved.
    pub fn moved(&self) -> &'s [u32] {
        self.moved
    }

    /// The nodes whose path may differ from before the change, ascending:
    /// those whose tree path passes a moved entry or a link the change
    /// touched. Every other node's path is the one the tree held before,
    /// over links the change did not touch (or the node was and stays
    /// unreachable).
    pub fn changed(&self) -> &'s [u32] {
        self.changed
    }
}

/// The buffers [`ShortestPathTree::update`] works in, kept by a caller that
/// repairs many trees so that a repair allocates nothing once they have
/// grown to the graph's size.
#[derive(Debug, Default)]
pub struct TreeScratch {
    /// Heads of worse tree links, then of tight better links.
    worse: Vec<u32>,
    better: Vec<u32>,
    /// Nodes whose link changed, ascending.
    moved: Vec<u32>,
    /// Per node, whether the last [`TopologyGraph::subtrees`] reached it.
    marks: Vec<bool>,
    stack: Vec<u32>,
    /// The subtree a cut resets, ascending.
    affected: Vec<u32>,
    /// The nodes whose path may have changed, ascending.
    changed: Vec<u32>,
    /// The nodes an improvement may re-pick.
    touched: Vec<u32>,
    heap: Heap,
    /// A tree's links before it was searched again from scratch.
    previous: Vec<Via>,
}

/// The shortest paths from one source to every node of a
/// [`TopologyGraph`]: per node, its `(cost, hops)` and the link it is
/// reached over. The tree owns its tables, so it outlives the graph it was
/// searched on and can be [updated](ShortestPathTree::update) to the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathTree {
    /// The graph's node ids: the tables are indexed like them.
    ids: Arc<[NodeId]>,
    source: Option<u32>,
    /// Per node, `(cost, hops)` from the source; [`UNREACHED`] if none.
    best: Vec<(u64, u32)>,
    via: Vec<Via>,
}

impl ShortestPathTree {
    fn index_of(&self, node: NodeId) -> Option<u32> {
        self.ids.binary_search(&node).ok().map(|i| i as u32)
    }

    /// The node the tree was searched from; `None` when its graph did not
    /// have it.
    pub fn source(&self) -> Option<NodeId> {
        self.source.map(|source| self.ids[source as usize])
    }

    /// The links of the shortest path from the source to `dst`, source
    /// first; `None` when `dst` is the source or cannot be reached.
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<LinkId>> {
        let parent = |node: u32| self.via[node as usize];
        let back = links_back(parent, self.via.len(), self.source?, self.index_of(dst)?)?;
        Some(links_forward(back))
    }

    /// Nodes the tree reaches, the source included: what a full search
    /// settles.
    pub fn reached(&self) -> usize {
        self.best.iter().filter(|&&best| best != UNREACHED).count()
    }

    /// The tree's parent array, indexed like the nodes of its graph
    /// ([`TopologyGraph::nodes`]): the link each node is reached over, and
    /// [`Via::NONE`] for the source and every unreached node.
    pub fn parents(&self) -> &[Via] {
        &self.via
    }

    /// Brings the tree from the graph it was searched on to `graph`, the
    /// same nodes, possibly with more appended, after `edits` (sorted by
    /// link id, every link that came, went or changed), working in
    /// `scratch`. An appended node starts unreached.
    ///
    /// Returns `None` when no path of the tree can have changed: no edited
    /// link is a tree link and no new or shorter link `u → v` is tight or
    /// better, `best(u) + (latency, 1) ≤ best(v)`. Otherwise repairs it —
    /// a worse tree link resets the subtree below it and re-settles that
    /// from its unaffected in-neighbours, a tight better link runs a
    /// decrease-only search from its head, a tree that sees both is
    /// searched again from scratch — and says which entries moved and
    /// which paths may differ.
    ///
    /// # Panics
    ///
    /// Panics when the graph's nodes do not start with the tree's.
    pub fn update<'s>(
        &mut self,
        graph: &TopologyGraph,
        edits: &[LinkEdit],
        scratch: &'s mut TreeScratch,
    ) -> Option<TreeUpdate<'s>> {
        if !Arc::ptr_eq(&self.ids, &graph.ids) {
            assert!(
                graph.ids.starts_with(&self.ids),
                "a tree is only updated to a graph that extends its nodes"
            );
            self.ids = Arc::clone(&graph.ids);
            self.best.resize(self.ids.len(), UNREACHED);
            self.via.resize(self.ids.len(), Via::NONE);
        }
        debug_assert!(edits.windows(2).all(|w| w[0].id < w[1].id));
        self.source?;
        scratch.worse.clear();
        scratch.better.clear();
        let mut touched = false;
        for edit in edits {
            let (Some(from), Some(to)) = (self.index_of(edit.from), self.index_of(edit.to)) else {
                continue;
            };
            let tree_link = self.via[to as usize].link == edit.id;
            touched |= tree_link;
            match edit.kind {
                LinkEditKind::Worse if tree_link => scratch.worse.push(to),
                LinkEditKind::Better { latency } => {
                    let from = self.best[from as usize];
                    if from != UNREACHED && over(from, latency.as_nanos()) <= self.best[to as usize]
                    {
                        scratch.better.push(to);
                    }
                }
                _ => {}
            }
        }
        if !touched && scratch.better.is_empty() {
            return None;
        }
        scratch.moved.clear();
        let searched = !scratch.worse.is_empty() && !scratch.better.is_empty();
        let settled = match (scratch.worse.is_empty(), scratch.better.is_empty()) {
            (true, true) => 0,
            (false, true) => graph.cut(self, scratch),
            (true, false) => graph.improve(self, scratch),
            (false, false) => {
                scratch.previous.clear();
                scratch.previous.extend_from_slice(&self.via);
                let settled = graph.search(self, &mut scratch.heap);
                let previous = &scratch.previous;
                scratch.moved.extend(
                    (0..self.via.len() as u32)
                        .filter(|&i| self.via[i as usize] != previous[i as usize]),
                );
                settled
            }
        };
        // A path may have changed when it passes a moved entry or crosses
        // an edited link, i.e. below a moved node or below the head of an
        // edited link that is now a tree link.
        let heads = edits.iter().filter_map(|edit| {
            let to = self.index_of(edit.to)?;
            (self.via[to as usize].link == edit.id).then_some(to)
        });
        let TreeScratch {
            moved,
            marks,
            stack,
            changed,
            ..
        } = scratch;
        graph.subtrees(
            self,
            moved.iter().copied().chain(heads),
            marks,
            stack,
            changed,
        );
        Some(TreeUpdate {
            settled,
            searched,
            moved,
            changed,
        })
    }
}

/// End-to-end properties of a path, composed with the formulas of paper §3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathProperties {
    /// Sum of the link latencies.
    pub latency: SimDuration,
    /// Root of the sum of squared link jitters.
    pub jitter: SimDuration,
    /// `1 - Π(1 - loss_i)`.
    pub loss: f64,
    /// Minimum link bandwidth along the path.
    pub max_bandwidth: Bandwidth,
}

impl PathProperties {
    /// Composes the end-to-end properties of the path over `links` (source
    /// first) in `topology`.
    ///
    /// Returns `None` if any link of the path no longer exists in the
    /// topology (e.g. after a dynamic removal).
    pub fn compose(topology: &Topology, links: &[LinkId]) -> Option<PathProperties> {
        PathProperties::compose_links(
            links
                .iter()
                .map(|&id| topology.link(id).map(|link| link.properties)),
        )
    }

    /// Composes the end-to-end properties of a path from its links'
    /// properties, in path order (floating-point sums depend on it);
    /// `None` if any link's is.
    pub fn compose_links(
        links: impl IntoIterator<Item = Option<LinkProperties>>,
    ) -> Option<PathProperties> {
        let mut latency = SimDuration::ZERO;
        let mut jitter_sq = 0.0_f64;
        let mut success = 1.0_f64;
        let mut bandwidth = Bandwidth::MAX;
        for link in links {
            let link = link?;
            latency += link.latency;
            jitter_sq += link.jitter.as_millis_f64().powi(2);
            success *= 1.0 - link.loss;
            bandwidth = bandwidth.min(link.bandwidth);
        }
        Some(PathProperties {
            latency,
            jitter: SimDuration::from_millis_f64(jitter_sq.sqrt()),
            loss: 1.0 - success,
            max_bandwidth: bandwidth,
        })
    }

    /// Round-trip time of a symmetric path (twice the one-way latency).
    pub fn rtt(&self) -> SimDuration {
        self.latency * 2
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The links of the shortest path from `a` to `b`.
    fn path(g: &TopologyGraph, a: NodeId, b: NodeId) -> Vec<LinkId> {
        g.shortest_path_tree(a).path_to(b).expect("reachable")
    }

    fn props(ms: u64, mbps: u64) -> LinkProperties {
        LinkProperties::new(SimDuration::from_millis(ms), Bandwidth::from_mbps(mbps))
    }

    /// Builds the Figure 1 topology from the paper and returns
    /// `(topology, c1, sv1, sv2)`.
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
    fn figure1_collapses_to_paper_values() {
        let (t, c1, sv1, sv2) = figure1();
        let g = TopologyGraph::new(&t);

        // c1 -> sv1: 10 + 20 + 5 = 35 ms, min bandwidth 10 Mb/s.
        let p = path(&g, c1, sv1);
        assert_eq!(p.len(), 3);
        let pp = PathProperties::compose(&t, &p).unwrap();
        assert_eq!(pp.latency, SimDuration::from_millis(35));
        assert_eq!(pp.max_bandwidth, Bandwidth::from_mbps(10));

        // sv1 -> sv2: 5 + 5 = 10 ms, 50 Mb/s — the right side of Figure 1.
        let pp2 = PathProperties::compose(&t, &path(&g, sv1, sv2)).unwrap();
        assert_eq!(pp2.latency, SimDuration::from_millis(10));
        assert_eq!(pp2.max_bandwidth, Bandwidth::from_mbps(50));

        // All 6 ordered service pairs are reachable.
        let services = [c1, sv1, sv2];
        for a in services {
            let tree = g.shortest_path_tree(a);
            assert!(services
                .iter()
                .all(|&b| (a == b) != tree.path_to(b).is_some()));
        }
    }

    #[test]
    fn jitter_composes_as_root_sum_of_squares() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_bridge("s");
        let c = t.add_service("c", 0, "x");
        let p1 = props(10, 100).with_jitter(SimDuration::from_millis(3));
        let p2 = props(10, 100).with_jitter(SimDuration::from_millis(4));
        t.add_link(a, b, p1, "net");
        t.add_link(b, c, p2, "net");
        let g = TopologyGraph::new(&t);
        let pp = PathProperties::compose(&t, &path(&g, a, c)).unwrap();
        // sqrt(3^2 + 4^2) = 5 ms.
        assert_eq!(pp.jitter, SimDuration::from_millis(5));
    }

    #[test]
    fn loss_composes_multiplicatively() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_bridge("s");
        let c = t.add_service("c", 0, "x");
        t.add_link(a, b, props(1, 10).with_loss(0.1), "net");
        t.add_link(b, c, props(1, 10).with_loss(0.2), "net");
        let g = TopologyGraph::new(&t);
        let pp = PathProperties::compose(&t, &path(&g, a, c)).unwrap();
        assert!((pp.loss - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn shortest_path_prefers_lower_latency() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_service("b", 0, "x");
        let s1 = t.add_bridge("s1");
        let s2 = t.add_bridge("s2");
        // Fast route a -> s1 -> b (2 ms), slow direct-ish route a -> s2 -> b (30 ms).
        t.add_link(a, s1, props(1, 10), "net");
        t.add_link(s1, b, props(1, 10), "net");
        t.add_link(a, s2, props(10, 1000), "net");
        t.add_link(s2, b, props(20, 1000), "net");
        let g = TopologyGraph::new(&t);
        let pp = PathProperties::compose(&t, &path(&g, a, b)).unwrap();
        assert_eq!(pp.latency, SimDuration::from_millis(2));
        assert_eq!(pp.max_bandwidth, Bandwidth::from_mbps(10));
    }

    #[test]
    fn equal_latency_ties_break_by_hop_count() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_service("b", 0, "x");
        let s1 = t.add_bridge("s1");
        let s2 = t.add_bridge("s2");
        // Two-hop route with 10 ms total vs three-hop route with 10 ms total.
        t.add_link(a, s1, props(5, 10), "net");
        t.add_link(s1, b, props(5, 10), "net");
        t.add_link(a, s2, props(4, 10), "net");
        t.add_link(s2, s1, props(3, 10), "net");
        let g = TopologyGraph::new(&t);
        assert_eq!(path(&g, a, b).len(), 2);
    }

    #[test]
    fn unreachable_pairs_are_absent() {
        let mut t = Topology::new();
        let a = t.add_service("a", 0, "x");
        let b = t.add_service("b", 0, "x");
        // A link exists only from a to b, so b cannot reach a.
        let s = t.add_bridge("s");
        t.add_link(a, s, props(1, 1), "net");
        t.add_link(s, b, props(1, 1), "net");
        let g = TopologyGraph::new(&t);
        assert!(g.shortest_path_tree(a).path_to(b).is_some());
        assert!(g.shortest_path_tree(b).path_to(a).is_none());
    }

    #[test]
    fn compose_fails_for_stale_paths() {
        let (mut t, c1, sv1, _) = figure1();
        let g = TopologyGraph::new(&t);
        let path = path(&g, c1, sv1);
        // Remove one of the links the path uses.
        t.remove_link(path[0]);
        assert!(PathProperties::compose(&t, &path).is_none());
    }

    /// The `HashMap`-keyed Dijkstra the dense tree replaced — same heap
    /// order, relaxation rule and absence of a closed set — kept as the
    /// oracle of the differential test below.
    fn reference_paths_from(topology: &Topology, source: NodeId) -> HashMap<NodeId, Vec<LinkId>> {
        #[derive(Clone, Copy)]
        struct Best {
            cost_nanos: u64,
            hops: u32,
            via: Option<(NodeId, LinkId)>,
        }
        let mut adjacency: HashMap<NodeId, Vec<crate::model::LinkSpec>> = HashMap::new();
        for node in topology.nodes() {
            adjacency.entry(node.id).or_default();
        }
        for link in topology.links() {
            adjacency.entry(link.from).or_default().push(link.clone());
        }
        for links in adjacency.values_mut() {
            links.sort_by_key(|l| l.id);
        }

        let mut best: HashMap<NodeId, Best> = HashMap::new();
        let mut heap = BinaryHeap::new();
        best.insert(
            source,
            Best {
                cost_nanos: 0,
                hops: 0,
                via: None,
            },
        );
        heap.push(Reverse((0, 0, source.0)));
        while let Some(Reverse((cost_nanos, hops, node))) = heap.pop() {
            let node = NodeId(node);
            if let Some(cur) = best.get(&node).copied() {
                if cost_nanos > cur.cost_nanos || (cost_nanos == cur.cost_nanos && hops > cur.hops)
                {
                    continue;
                }
            }
            for link in adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[]) {
                let next_cost = cost_nanos + link.properties.latency.as_nanos();
                let next_hops = hops + 1;
                let better = match best.get(&link.to) {
                    None => true,
                    Some(b) => {
                        next_cost < b.cost_nanos
                            || (next_cost == b.cost_nanos && next_hops < b.hops)
                    }
                };
                if better {
                    best.insert(
                        link.to,
                        Best {
                            cost_nanos: next_cost,
                            hops: next_hops,
                            via: Some((node, link.id)),
                        },
                    );
                    heap.push(Reverse((next_cost, next_hops, link.to.0)));
                }
            }
        }

        let mut out = HashMap::new();
        for &dst in best.keys() {
            if dst == source {
                continue;
            }
            let mut links = Vec::new();
            let mut cursor = dst;
            while cursor != source {
                let Some((prev, link)) = best.get(&cursor).and_then(|b| b.via) else {
                    break;
                };
                links.push(link);
                cursor = prev;
                assert!(links.len() <= best.len(), "predecessor cycle");
            }
            if cursor == source {
                links.reverse();
                out.insert(dst, links);
            }
        }
        out
    }

    /// A small graph built to tie: latencies from two or three values
    /// (zero among them), parallel and one-way links, islands, a link to an
    /// id that is no node, then links and a node removed.
    fn tying_topology(seed: u64) -> Topology {
        let mut rng = kollaps_sim::rng::SimRng::new(seed);
        let mut t = Topology::new();
        let n = 2 + rng.gen_index(12);
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                if rng.chance(0.5) {
                    t.add_service("svc", i as u32, "img")
                } else {
                    t.add_bridge(&format!("s{i}"))
                }
            })
            .collect();
        let latencies = [[1, 2, 3], [0, 1, 1], [5, 5, 10], [0, 0, 7]][rng.gen_index(4)];
        for _ in 0..rng.gen_index(4 * n) {
            // Leave the last node an island in half of the graphs.
            let span = if seed.is_multiple_of(2) { n - 1 } else { n };
            let a = nodes[rng.gen_index(span)];
            let b = nodes[rng.gen_index(span)];
            let p = props(latencies[rng.gen_index(3)], 10);
            if rng.chance(0.4) {
                t.add_link(a, b, p, "net");
            } else {
                t.add_bidirectional_link(a, b, p, "net");
            }
        }
        if rng.chance(0.3) {
            t.add_link(nodes[0], NodeId(500), props(1, 10), "net");
            t.add_link(NodeId(500), nodes[n - 1], props(1, 10), "net");
        }
        for _ in 0..rng.gen_index(4) {
            if t.link_count() > 0 {
                let id = t.links()[rng.gen_index(t.link_count())].id;
                t.remove_link(id);
            }
        }
        if rng.chance(0.5) {
            t.remove_node(nodes[rng.gen_index(n)]);
        }
        t
    }

    #[test]
    fn tree_matches_the_reference_dijkstra_on_tying_graphs() {
        let mut compared = 0;
        for seed in 0..600 {
            let t = tying_topology(seed);
            let g = TopologyGraph::new(&t);
            // Every node that ever existed (removed ones included), the
            // non-node link endpoint, and an id nothing mentions.
            let ids = || (0..14).map(NodeId).chain([NodeId(500), NodeId(999)]);
            for source in ids() {
                let expected = reference_paths_from(&t, source);
                let tree = g.shortest_path_tree(source);
                assert!(
                    tree.path_to(source).is_none(),
                    "no path to the source itself"
                );
                let paths: HashMap<NodeId, Vec<LinkId>> = ids()
                    .filter_map(|dst| Some((dst, tree.path_to(dst)?)))
                    .collect();
                assert_eq!(paths, expected, "seed {seed} {source}");
                compared += paths.len();
            }
        }
        assert!(compared > 10_000, "only {compared} paths compared");
    }

    /// Every link that differs between two topologies, as an edit.
    fn edits_between(before: &Topology, after: &Topology) -> Vec<LinkEdit> {
        let mut edits = Vec::new();
        for link in before.links() {
            let kind = match after.link(link.id).map(|l| l.properties) {
                None => LinkEditKind::Worse,
                Some(now) if now == link.properties => continue,
                Some(now) if now.latency > link.properties.latency => LinkEditKind::Worse,
                Some(now) if now.latency < link.properties.latency => LinkEditKind::Better {
                    latency: now.latency,
                },
                Some(_) => LinkEditKind::Reparameterised,
            };
            edits.push((link.id, link.from, link.to, kind));
        }
        for link in after.links() {
            if before.link(link.id).is_none() {
                let latency = link.properties.latency;
                edits.push((
                    link.id,
                    link.from,
                    link.to,
                    LinkEditKind::Better { latency },
                ));
            }
        }
        edits.sort_by_key(|edit| edit.0);
        edits
            .into_iter()
            .map(|(id, from, to, kind)| LinkEdit { id, from, to, kind })
            .collect()
    }

    /// A node that leaves and a bridge that joins, as the snapshot timeline
    /// folds them: the leaver's links (`links_at`) are removed in place and
    /// it stays a node without links, the bridge is appended behind every
    /// index, and a tree repaired onto the grown graph — padded with the
    /// bridge — equals a fresh search over the same nodes.
    #[test]
    fn a_tree_repairs_onto_a_graph_that_grew() {
        let mut before = Topology::new();
        let a = before.add_service("a", 0, "img");
        let b = before.add_service("b", 0, "img");
        let s1 = before.add_bridge("s1");
        before.add_bidirectional_link(a, s1, props(1, 10), "net");
        before.add_bidirectional_link(s1, b, props(5, 10), "net");
        let old = TopologyGraph::new(&before);
        let mut after = before.clone();
        after.remove_node(s1);
        let s2 = after.add_bridge("s2");
        assert!(s2 > s1);
        after.add_bidirectional_link(a, s2, props(1, 10), "net");
        after.add_bidirectional_link(s2, b, props(1, 10), "net");
        let edits = edits_between(&before, &after);
        let mut at: Vec<LinkId> = old.links_at(s1).collect();
        at.sort_unstable();
        let gone: Vec<LinkId> = before.links().iter().map(|link| link.id).collect();
        assert_eq!(at, gone);
        let mut edited = old.clone();
        edited.add_nodes(&after);
        for edit in &edits {
            let latency = after.link(edit.id).map(|link| link.properties.latency);
            edited.set_link(edit.id, edit.from, edit.to, latency);
        }
        assert_eq!(**edited.nodes(), [a, b, s1, s2]);
        assert_eq!(edited, TopologyGraph::with_nodes(&after, old.nodes()));
        assert_eq!(edited.links_at(s1).count(), 0);
        let mut scratch = TreeScratch::default();
        for source in [a, b, s1] {
            let mut tree = old.shortest_path_tree(source);
            tree.update(&edited, &edits, &mut scratch);
            assert_eq!(tree, edited.shortest_path_tree(source), "{source}");
        }
        let tree = edited.shortest_path_tree(a);
        assert_eq!(tree.path_to(b).map(|path| path.len()), Some(2));
        assert!(tree.path_to(s1).is_none());
    }

    /// A tree updated over random removals, additions and latency moves on
    /// tying graphs equals a fresh search of the new graph, node by node.
    #[test]
    fn updated_trees_equal_fresh_searches_on_tying_graphs() {
        let mut updated = 0;
        for seed in 0..600 {
            let before = tying_topology(seed);
            let mut rng = kollaps_sim::rng::SimRng::new(seed ^ 0x5eed);
            let mut after = before.clone();
            let nodes: Vec<NodeId> = after.nodes().iter().map(|n| n.id).collect();
            for _ in 0..1 + rng.gen_index(3) {
                let links = after.links().to_vec();
                match rng.gen_index(3) {
                    0 if !links.is_empty() => {
                        after.remove_link(links[rng.gen_index(links.len())].id);
                    }
                    1 if !links.is_empty() => {
                        let link = &links[rng.gen_index(links.len())];
                        let mut props = link.properties;
                        props.latency = SimDuration::from_millis(rng.gen_index(4) as u64);
                        after.set_link_properties(link.id, props);
                    }
                    _ if !nodes.is_empty() => {
                        let a = nodes[rng.gen_index(nodes.len())];
                        let b = nodes[rng.gen_index(nodes.len())];
                        after.add_link(a, b, props(rng.gen_index(4) as u64, 10), "net");
                    }
                    _ => {}
                }
            }
            let (old, new) = (TopologyGraph::new(&before), TopologyGraph::new(&after));
            if old.ids != new.ids {
                continue;
            }
            let edits = edits_between(&before, &after);
            // The old graph edited in place is the new one, and the trees
            // are repaired onto it, as the snapshot timeline does.
            let mut edited = old.clone();
            for edit in &edits {
                let latency = after.link(edit.id).map(|link| link.properties.latency);
                edited.set_link(edit.id, edit.from, edit.to, latency);
            }
            assert_eq!(edited, new, "seed {seed}: edited in place");
            // One scratch for every repair, as the snapshot timeline keeps it.
            let mut scratch = TreeScratch::default();
            for &source in old.ids.iter() {
                let mut tree = old.shortest_path_tree(source);
                let fresh = new.shortest_path_tree(source);
                let previous = tree.clone();
                match tree.update(&edited, &edits, &mut scratch) {
                    None => assert_eq!(tree, fresh, "seed {seed} {source}: untouched"),
                    Some(update) => {
                        assert_eq!(tree, fresh, "seed {seed} {source}: repaired");
                        for (index, &dst) in old.ids.iter().enumerate() {
                            let changed = update.changed().binary_search(&(index as u32)).is_ok();
                            // A path reported unchanged is the previous one.
                            if !changed {
                                assert_eq!(tree.path_to(dst), previous.path_to(dst));
                            }
                            // Reported changed: exactly the nodes whose path
                            // passes a moved entry or an edited link.
                            let mut passes = false;
                            let mut cursor = index as u32;
                            loop {
                                let via = tree.parents()[cursor as usize];
                                passes |= update.moved().contains(&cursor);
                                if via.is_none() {
                                    break;
                                }
                                passes |= edits.iter().any(|edit| edit.id == via.link);
                                cursor = via.from;
                            }
                            assert_eq!(changed, passes, "seed {seed} {source}: {dst} changed");
                            // Exactly the moved entries differ.
                            let moved = update.moved().binary_search(&(index as u32)).is_ok();
                            assert_eq!(
                                moved,
                                tree.parents()[index] != previous.parents()[index],
                                "seed {seed} {source}: entry {dst}"
                            );
                        }
                        updated += 1;
                    }
                }
                // The parents alone give back the tree.
                assert_eq!(
                    new.tree_from_parents(source, tree.parents().to_vec()),
                    fresh
                );
            }
        }
        assert!(updated > 1_000, "only {updated} trees updated");
    }

    #[test]
    fn rtt_is_twice_one_way() {
        let pp = PathProperties {
            latency: SimDuration::from_millis(17),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            max_bandwidth: Bandwidth::from_mbps(1),
        };
        assert_eq!(pp.rtt(), SimDuration::from_millis(34));
    }
}
