//! Canonical topology generators used throughout the evaluation.
//!
//! * [`point_to_point`] — the Table 2 / Table 3 client–server pair.
//! * [`dumbbell`] — the Figure 3 metadata-scaling topology.
//! * [`figure8`] — the §5.4 decentralized-throttling parking-lot topology.
//! * [`star`] — a single switch with N attached services.
//! * [`barabasi_albert`] — preferential-attachment scale-free topologies
//!   (Table 4), which are representative of Internet-like graphs.

use kollaps_sim::rng::SimRng;
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use crate::model::{LinkProperties, NodeId, Topology};

/// A simple client–server pair connected by a single bidirectional link.
///
/// Returns `(topology, client, server)`.
pub fn point_to_point(
    bandwidth: Bandwidth,
    latency: SimDuration,
    jitter: SimDuration,
) -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let client = t.add_service("client", 0, "iperf3-client");
    let server = t.add_service("server", 0, "iperf3-server");
    let props = LinkProperties::new(latency, bandwidth).with_jitter(jitter);
    t.add_bidirectional_link(client, server, props, "p2p");
    (t, client, server)
}

/// The dumbbell topology of the metadata-scaling experiment (Figure 3):
/// `pairs` clients on one side, `pairs` servers on the other, one shared
/// bottleneck link between the two bridges.
///
/// Returns `(topology, clients, servers)`.
pub fn dumbbell(
    pairs: usize,
    edge_bandwidth: Bandwidth,
    bottleneck_bandwidth: Bandwidth,
    edge_latency: SimDuration,
    bottleneck_latency: SimDuration,
) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut t = Topology::new();
    let left = t.add_bridge("bridge-left");
    let right = t.add_bridge("bridge-right");
    t.add_bidirectional_link(
        left,
        right,
        LinkProperties::new(bottleneck_latency, bottleneck_bandwidth),
        "dumbbell",
    );
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for i in 0..pairs {
        let c = t.add_service(&format!("client-{i}"), 0, "iperf3-client");
        let s = t.add_service(&format!("server-{i}"), 0, "iperf3-server");
        t.add_bidirectional_link(
            c,
            left,
            LinkProperties::new(edge_latency, edge_bandwidth),
            "dumbbell",
        );
        t.add_bidirectional_link(
            s,
            right,
            LinkProperties::new(edge_latency, edge_bandwidth),
            "dumbbell",
        );
        clients.push(c);
        servers.push(s);
    }
    (t, clients, servers)
}

/// The exact topology of the decentralized bandwidth-throttling experiment
/// (paper §5.4, Figure 8).
///
/// Six clients C1–C6, three bridges B1–B3, six servers S1–S6:
/// * C1,C2,C3 → B1 with 50, 50, 10 Mb/s and 10, 5, 5 ms;
/// * C4,C5,C6 → B2 with the same pattern;
/// * every server → B3 with 50 Mb/s, 5 ms;
/// * B1 → B2 at 50 Mb/s / 10 ms and B2 → B3 at 100 Mb/s / 10 ms.
///
/// Returns `(topology, clients, servers)` with clients/servers in index
/// order (C1..C6, S1..S6).
pub fn figure8() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut t = Topology::new();
    let b1 = t.add_bridge("B1");
    let b2 = t.add_bridge("B2");
    let b3 = t.add_bridge("B3");

    let client_specs = [(50, 10u64), (50, 5), (10, 5), (50, 10), (50, 5), (10, 5)];
    let mut clients = Vec::new();
    for (i, (mbps, ms)) in client_specs.iter().enumerate() {
        let c = t.add_service(&format!("C{}", i + 1), 0, "iperf3-client");
        let bridge = if i < 3 { b1 } else { b2 };
        t.add_bidirectional_link(
            c,
            bridge,
            LinkProperties::new(SimDuration::from_millis(*ms), Bandwidth::from_mbps(*mbps)),
            "fig8",
        );
        clients.push(c);
    }
    let mut servers = Vec::new();
    for i in 0..6 {
        let s = t.add_service(&format!("S{}", i + 1), 0, "iperf3-server");
        t.add_bidirectional_link(
            s,
            b3,
            LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(50)),
            "fig8",
        );
        servers.push(s);
    }
    t.add_bidirectional_link(
        b1,
        b2,
        LinkProperties::new(SimDuration::from_millis(10), Bandwidth::from_mbps(50)),
        "fig8",
    );
    t.add_bidirectional_link(
        b2,
        b3,
        LinkProperties::new(SimDuration::from_millis(10), Bandwidth::from_mbps(100)),
        "fig8",
    );
    (t, clients, servers)
}

/// A star topology: one central bridge, `n` services around it.
///
/// Returns `(topology, services)`.
pub fn star(n: usize, bandwidth: Bandwidth, latency: SimDuration) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let hub = t.add_bridge("hub");
    let mut services = Vec::new();
    for i in 0..n {
        let s = t.add_service(&format!("node-{i}"), 0, "generic");
        t.add_bidirectional_link(s, hub, LinkProperties::new(latency, bandwidth), "star");
        services.push(s);
    }
    (t, services)
}

/// Parameters of a [`barabasi_albert`] scale-free topology.
#[derive(Debug, Clone, Copy)]
pub struct ScaleFreeParams {
    /// Total number of elements (end nodes + switches), e.g. 1000/2000/4000
    /// in Table 4.
    pub total_elements: usize,
    /// Fraction of elements that are switches (Table 4 uses ≈ 1/3).
    pub switch_fraction: f64,
    /// Edges added per new switch in the preferential-attachment process.
    pub attachment: usize,
    /// Minimum per-link latency in milliseconds.
    pub min_latency_ms: f64,
    /// Maximum per-link latency in milliseconds.
    pub max_latency_ms: f64,
    /// Bandwidth of core (switch–switch) links.
    pub core_bandwidth: Bandwidth,
    /// Bandwidth of access (node–switch) links.
    pub access_bandwidth: Bandwidth,
}

impl Default for ScaleFreeParams {
    fn default() -> Self {
        ScaleFreeParams {
            total_elements: 1_000,
            switch_fraction: 1.0 / 3.0,
            attachment: 2,
            min_latency_ms: 1.0,
            max_latency_ms: 10.0,
            core_bandwidth: Bandwidth::from_gbps(1),
            access_bandwidth: Bandwidth::from_mbps(100),
        }
    }
}

/// Generates an Internet-like scale-free topology with the preferential
/// attachment (Barabási–Albert) algorithm over the switches, then attaches
/// end nodes (services) to switches chosen with degree-proportional
/// probability — the construction used for the Table 4 large-scale
/// experiment.
///
/// Returns `(topology, end_nodes, switches)`.
pub fn barabasi_albert(
    params: &ScaleFreeParams,
    rng: &mut SimRng,
) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let n_switches = ((params.total_elements as f64 * params.switch_fraction).round() as usize)
        .max(params.attachment + 1);
    let n_nodes = params.total_elements.saturating_sub(n_switches);

    let mut t = Topology::new();
    let mut switches = Vec::with_capacity(n_switches);
    // Degree-weighted target list: every edge endpoint appears once, so
    // sampling uniformly from it is preferential attachment.
    let mut endpoints: Vec<usize> = Vec::new();

    let latency = |rng: &mut SimRng| {
        let ms = params.min_latency_ms
            + rng.next_f64() * (params.max_latency_ms - params.min_latency_ms);
        SimDuration::from_millis_f64(ms)
    };

    // Seed clique of `attachment + 1` switches.
    let seed = params.attachment + 1;
    for i in 0..n_switches {
        switches.push(t.add_bridge(&format!("sw-{i}")));
    }
    for i in 0..seed {
        for j in (i + 1)..seed {
            t.add_bidirectional_link(
                switches[i],
                switches[j],
                LinkProperties::new(latency(rng), params.core_bandwidth),
                "core",
            );
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    // Preferential attachment for the remaining switches.
    for i in seed..n_switches {
        let mut chosen = Vec::new();
        let mut guard = 0;
        while chosen.len() < params.attachment && guard < 1_000 {
            let target = endpoints[rng.gen_index(endpoints.len())];
            if target != i && !chosen.contains(&target) {
                chosen.push(target);
            }
            guard += 1;
        }
        for &target in &chosen {
            t.add_bidirectional_link(
                switches[i],
                switches[target],
                LinkProperties::new(latency(rng), params.core_bandwidth),
                "core",
            );
            endpoints.push(i);
            endpoints.push(target);
        }
    }
    // Attach end nodes preferentially to well-connected switches.
    let mut nodes = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let id = t.add_service(&format!("node-{i}"), 0, "ping");
        let sw_idx = endpoints[rng.gen_index(endpoints.len())];
        t.add_bidirectional_link(
            id,
            switches[sw_idx],
            LinkProperties::new(latency(rng), params.access_bandwidth),
            "access",
        );
        nodes.push(id);
    }
    (t, nodes, switches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PathProperties, TopologyGraph};

    #[test]
    fn point_to_point_has_two_services_one_link() {
        let (t, c, s) = point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
        );
        assert_eq!(t.service_ids(), vec![c, s]);
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    fn dumbbell_shape() {
        let (t, clients, servers) = dumbbell(
            10,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        assert_eq!(clients.len(), 10);
        assert_eq!(servers.len(), 10);
        assert_eq!(t.bridge_ids().len(), 2);
        // 1 bottleneck + 20 edges, all bidirectional.
        assert_eq!(t.link_count(), 2 * 21);
        // Every client-server path crosses the 50 Mb/s bottleneck.
        let g = TopologyGraph::new(&t);
        let path = g
            .shortest_path_tree(clients[0])
            .path_to(servers[0])
            .unwrap();
        let pp = PathProperties::compose(&t, &path).unwrap();
        assert_eq!(pp.max_bandwidth, Bandwidth::from_mbps(50));
        assert_eq!(pp.latency, SimDuration::from_millis(12));
    }

    #[test]
    fn figure8_matches_paper_description() {
        let (t, clients, servers) = figure8();
        assert_eq!(clients.len(), 6);
        assert_eq!(servers.len(), 6);
        assert_eq!(t.bridge_ids().len(), 3);
        let g = TopologyGraph::new(&t);
        let path = |c: usize, s: usize| g.shortest_path_tree(clients[c]).path_to(servers[s]);
        let compose = |c, s| PathProperties::compose(&t, &path(c, s).unwrap()).unwrap();
        // C1 -> S1 path: C1-B1 (50), B1-B2 (50), B2-B3 (100), B3-S1 (50):
        // bottleneck 50 Mb/s, latency 10+10+10+5 = 35 ms.
        let pp = compose(0, 0);
        assert_eq!(pp.max_bandwidth, Bandwidth::from_mbps(50));
        assert_eq!(pp.latency, SimDuration::from_millis(35));
        // C3 is limited by its own 10 Mb/s access link.
        let pp3 = compose(2, 2);
        assert_eq!(pp3.max_bandwidth, Bandwidth::from_mbps(10));
        // C4 does not cross the B1-B2 link: latency 10+10+5 = 25 ms.
        let pp4 = compose(3, 3);
        assert_eq!(pp4.latency, SimDuration::from_millis(25));
        assert_eq!(pp4.max_bandwidth, Bandwidth::from_mbps(50));
    }

    #[test]
    fn star_connects_everyone() {
        let (t, services) = star(8, Bandwidth::from_mbps(10), SimDuration::from_millis(2));
        assert_eq!(services.len(), 8);
        let g = TopologyGraph::new(&t);
        for &a in &services {
            let tree = g.shortest_path_tree(a);
            let reached = services.iter().filter(|&&b| tree.path_to(b).is_some());
            assert_eq!(reached.count(), 7);
        }
    }

    #[test]
    fn scale_free_sizes_match_table4_split() {
        let mut rng = SimRng::new(42);
        let params = ScaleFreeParams {
            total_elements: 1_000,
            ..ScaleFreeParams::default()
        };
        let (t, nodes, switches) = barabasi_albert(&params, &mut rng);
        // Table 4: 1000 elements ≈ 666 end nodes + 334 switches.
        assert_eq!(nodes.len() + switches.len(), 1_000);
        assert!((switches.len() as i64 - 333).abs() <= 2);
        assert_eq!(t.service_ids().len(), nodes.len());
    }

    #[test]
    fn scale_free_is_connected() {
        let mut rng = SimRng::new(7);
        let params = ScaleFreeParams {
            total_elements: 200,
            ..ScaleFreeParams::default()
        };
        let (t, nodes, _) = barabasi_albert(&params, &mut rng);
        let g = TopologyGraph::new(&t);
        let tree = g.shortest_path_tree(nodes[0]);
        for &n in &nodes[1..] {
            assert!(tree.path_to(n).is_some(), "node {n} unreachable");
        }
    }

    #[test]
    fn scale_free_has_hubs() {
        // Preferential attachment should produce a heavy-tailed degree
        // distribution: the best-connected switch has far more links than
        // the attachment parameter.
        let mut rng = SimRng::new(3);
        let params = ScaleFreeParams {
            total_elements: 600,
            ..ScaleFreeParams::default()
        };
        let (t, _, switches) = barabasi_albert(&params, &mut rng);
        let max_degree = switches
            .iter()
            .map(|&s| t.links_from(s).count())
            .max()
            .unwrap();
        assert!(
            max_degree >= 4 * params.attachment,
            "max degree {max_degree}"
        );
    }

    #[test]
    fn scale_free_latencies_within_bounds() {
        let mut rng = SimRng::new(11);
        let params = ScaleFreeParams {
            total_elements: 150,
            min_latency_ms: 2.0,
            max_latency_ms: 5.0,
            ..ScaleFreeParams::default()
        };
        let (t, _, _) = barabasi_albert(&params, &mut rng);
        for l in t.links() {
            let ms = l.properties.latency.as_millis_f64();
            assert!((2.0..=5.0).contains(&ms), "latency {ms} out of bounds");
        }
    }
}
