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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use crate::model::{LinkId, NodeId, Topology};

/// A path through the topology, as an ordered list of link ids.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Path {
    /// Links traversed, in order from source to destination.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links) in the path.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }
}

/// One link in the CSR arrays, endpoints as dense node indices.
#[derive(Debug, Clone, Copy)]
struct Edge {
    id: LinkId,
    from: u32,
    to: u32,
    latency_nanos: u64,
}

/// "No edge": the predecessor of the source and of unreached nodes.
const NO_EDGE: u32 = u32::MAX;

/// A dense (CSR) adjacency view of a [`Topology`] with shortest-path
/// queries.
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    /// Every node id, and every id a link names, ascending: a node's dense
    /// index is its position here, so indices order like ids.
    ids: Vec<NodeId>,
    /// `edges[offsets[i]..offsets[i + 1]]` leave node `i`, in ascending
    /// link id.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    services: Vec<NodeId>,
}

impl TopologyGraph {
    /// Builds the adjacency view of `topology`.
    pub fn new(topology: &Topology) -> Self {
        let links = topology.links();
        let mut ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
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
        for edge in &edges {
            offsets[edge.from as usize + 1] += 1;
        }
        for i in 0..ids.len() {
            offsets[i + 1] += offsets[i];
        }
        TopologyGraph {
            ids,
            offsets,
            edges,
            services: topology.service_ids(),
        }
    }

    /// All service node ids.
    pub fn services(&self) -> &[NodeId] {
        &self.services
    }

    fn index_of(&self, node: NodeId) -> Option<u32> {
        self.ids.binary_search(&node).ok().map(|i| i as u32)
    }

    /// The shortest-path tree (by cumulative latency) rooted at `source`,
    /// under the module's tie-break contract. A `source` the graph does not
    /// know reaches nothing.
    pub fn shortest_path_tree(&self, source: NodeId) -> ShortestPathTree<'_> {
        let mut via = vec![NO_EDGE; self.ids.len()];
        let source = self.index_of(source);
        if let Some(source) = source {
            // `(MAX, MAX)` is "unreached": any real `(cost, hops)` beats it.
            let mut best = vec![(u64::MAX, u32::MAX); self.ids.len()];
            best[source as usize] = (0, 0);
            // Min-heap on `(cost, hops, node)`.
            let mut heap = BinaryHeap::from([Reverse((0, 0, source))]);
            while let Some(Reverse((cost_nanos, hops, node))) = heap.pop() {
                if (cost_nanos, hops) > best[node as usize] {
                    continue;
                }
                let node = node as usize;
                for slot in self.offsets[node] as usize..self.offsets[node + 1] as usize {
                    let edge = self.edges[slot];
                    let next = (cost_nanos + edge.latency_nanos, hops + 1);
                    if next < best[edge.to as usize] {
                        best[edge.to as usize] = next;
                        via[edge.to as usize] = slot as u32;
                        heap.push(Reverse((next.0, next.1, edge.to)));
                    }
                }
            }
        }
        ShortestPathTree {
            graph: self,
            source,
            via,
        }
    }

    /// Shortest paths (by cumulative latency) from `source` to every
    /// reachable node. Returns a map `destination → path`.
    pub fn shortest_paths_from(&self, source: NodeId) -> HashMap<NodeId, Path> {
        let tree = self.shortest_path_tree(source);
        self.ids
            .iter()
            .filter_map(|&dst| Some((dst, tree.path_to(dst)?)))
            .collect()
    }

    /// Shortest paths between every ordered pair of *services*, the input of
    /// the collapsing step. Unreachable pairs are absent from the map.
    pub fn all_pairs_service_paths(&self) -> HashMap<(NodeId, NodeId), Path> {
        let mut out = HashMap::new();
        for &src in &self.services {
            let tree = self.shortest_path_tree(src);
            for &dst in &self.services {
                if let Some(path) = tree.path_to(dst) {
                    out.insert((src, dst), path);
                }
            }
        }
        out
    }
}

/// The shortest paths from one source to every node, as predecessor links.
#[derive(Debug, Clone)]
pub struct ShortestPathTree<'g> {
    graph: &'g TopologyGraph,
    source: Option<u32>,
    /// Per node, the slot in `graph.edges` of the link it is reached over.
    via: Vec<u32>,
}

impl ShortestPathTree<'_> {
    /// The tree's links from `dst` back to the source, or `None` when `dst`
    /// is the source itself, unreachable or unknown.
    fn links_back_from(&self, dst: NodeId) -> Option<impl Iterator<Item = LinkId> + '_> {
        let mut cursor = self.graph.index_of(dst)?;
        if Some(cursor) == self.source || self.via[cursor as usize] == NO_EDGE {
            return None;
        }
        // Only the source has no predecessor among reached nodes, and
        // `NO_EDGE` is no slot, so the walk stops exactly there.
        Some(std::iter::from_fn(move || {
            let edge = self.graph.edges.get(self.via[cursor as usize] as usize)?;
            cursor = edge.from;
            Some(edge.id)
        }))
    }

    /// The shortest path from the source to `dst`; `None` when `dst` is the
    /// source or cannot be reached.
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        // Two walks, so that the list is allocated once at its exact size:
        // it lives on in every collapsed path.
        let hops = self.links_back_from(dst)?.count();
        let mut links = vec![LinkId::default(); hops];
        for (slot, link) in links.iter_mut().rev().zip(self.links_back_from(dst)?) {
            *slot = link;
        }
        Some(Path { links })
    }

    /// `true` when the shortest path to `dst` exists and is exactly `links`
    /// (source to destination). Allocates nothing.
    pub fn path_is(&self, dst: NodeId, links: &[LinkId]) -> bool {
        self.links_back_from(dst)
            .is_some_and(|back| back.eq(links.iter().rev().copied()))
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
    /// Composes the end-to-end properties of `path` over `topology`.
    ///
    /// Returns `None` if any link of the path no longer exists in the
    /// topology (e.g. after a dynamic removal).
    pub fn compose(topology: &Topology, path: &Path) -> Option<PathProperties> {
        let mut latency = SimDuration::ZERO;
        let mut jitter_sq = 0.0_f64;
        let mut success = 1.0_f64;
        let mut bandwidth = Bandwidth::MAX;
        for link_id in &path.links {
            let link = topology.link(*link_id)?;
            latency += link.properties.latency;
            jitter_sq += link.properties.jitter.as_millis_f64().powi(2);
            success *= 1.0 - link.properties.loss;
            bandwidth = bandwidth.min(link.properties.bandwidth);
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
    use super::*;
    use crate::model::LinkProperties;

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
        let paths = g.all_pairs_service_paths();

        // c1 -> sv1: 10 + 20 + 5 = 35 ms, min bandwidth 10 Mb/s.
        let p = &paths[&(c1, sv1)];
        assert_eq!(p.hop_count(), 3);
        let pp = PathProperties::compose(&t, p).unwrap();
        assert_eq!(pp.latency, SimDuration::from_millis(35));
        assert_eq!(pp.max_bandwidth, Bandwidth::from_mbps(10));

        // sv1 -> sv2: 5 + 5 = 10 ms, 50 Mb/s — the right side of Figure 1.
        let pp2 = PathProperties::compose(&t, &paths[&(sv1, sv2)]).unwrap();
        assert_eq!(pp2.latency, SimDuration::from_millis(10));
        assert_eq!(pp2.max_bandwidth, Bandwidth::from_mbps(50));

        // All 6 ordered service pairs are reachable.
        assert_eq!(paths.len(), 6);
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
        let path = &g.all_pairs_service_paths()[&(a, c)];
        let pp = PathProperties::compose(&t, path).unwrap();
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
        let path = &g.all_pairs_service_paths()[&(a, c)];
        let pp = PathProperties::compose(&t, path).unwrap();
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
        let path = &g.all_pairs_service_paths()[&(a, b)];
        let pp = PathProperties::compose(&t, path).unwrap();
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
        let path = &g.all_pairs_service_paths()[&(a, b)];
        assert_eq!(path.hop_count(), 2);
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
        let paths = g.all_pairs_service_paths();
        assert!(paths.contains_key(&(a, b)));
        assert!(!paths.contains_key(&(b, a)));
    }

    #[test]
    fn compose_fails_for_stale_paths() {
        let (mut t, c1, sv1, _) = figure1();
        let g = TopologyGraph::new(&t);
        let path = g.all_pairs_service_paths()[&(c1, sv1)].clone();
        // Remove one of the links the path uses.
        t.remove_link(path.links[0]);
        assert!(PathProperties::compose(&t, &path).is_none());
    }

    /// The `HashMap`-keyed Dijkstra the dense tree replaced — same heap
    /// order, relaxation rule and absence of a closed set — kept as the
    /// oracle of the differential test below.
    fn reference_shortest_paths_from(topology: &Topology, source: NodeId) -> HashMap<NodeId, Path> {
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
                out.insert(dst, Path { links });
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
            let sources = (0..14).map(NodeId).chain([NodeId(500), NodeId(999)]);
            for source in sources {
                let expected = reference_shortest_paths_from(&t, source);
                assert_eq!(
                    g.shortest_paths_from(source),
                    expected,
                    "seed {seed} {source}"
                );
                let tree = g.shortest_path_tree(source);
                assert!(!tree.path_is(source, &[]), "no path to the source itself");
                for (&dst, path) in &expected {
                    assert!(
                        tree.path_is(dst, &path.links),
                        "seed {seed} {source}->{dst}"
                    );
                    assert!(!tree.path_is(dst, &path.links[1..]));
                    let mut longer = path.links.clone();
                    longer.insert(0, LinkId(u32::MAX));
                    assert!(!tree.path_is(dst, &longer));
                    compared += 1;
                }
            }
        }
        assert!(compared > 10_000, "only {compared} paths compared");
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
