//! Hop-by-hop simulation of the target topology ("bare metal").
//!
//! Every unidirectional link of the topology is a
//! [`kollaps_netmodel::link::LinkPipe`] with the link's bandwidth, latency,
//! loss and a drop-tail buffer. Packets are routed along the same shortest
//! paths Kollaps collapses, but traverse every hop explicitly — switch
//! buffers fill, packets are dropped on overflow, and TCP reacts to real
//! queueing rather than to the emulation model. This is the reference the
//! paper's deviation plots (Figures 5-7) measure against.

use std::collections::HashMap;

use kollaps_netmodel::link::{LinkConfig, LinkPipe};
use kollaps_netmodel::packet::{DropReason, Packet};
use kollaps_sim::prelude::*;

use kollaps_core::collapse::{Addressable, CollapsedTopology};
use kollaps_core::runtime::{Dataplane, SendOutcome};
use kollaps_topology::graph::TopologyGraph;
use kollaps_topology::model::{LinkId, NodeId, Topology};

/// Routing and link state for a full-state (per-hop) network simulation.
pub struct GroundTruthDataplane {
    /// Per-link pipes, keyed by the original link id.
    links: HashMap<LinkId, LinkPipe>,
    /// Forwarding tables: at node `n`, towards destination service `d`, use
    /// link `l` (the first hop of the shortest path).
    next_hop: HashMap<(NodeId, NodeId), LinkId>,
    /// Where each link leads.
    link_endpoint: HashMap<LinkId, NodeId>,
    /// Container address ↔ service node mapping (same assignment as the
    /// collapsed topology, so workloads can run on either).
    collapsed: CollapsedTopology,
    /// Extra forwarding latency applied at every switch hop (zero for bare
    /// metal; the Mininet/Maxinet wrappers raise it).
    per_hop_overhead: SimDuration,
    /// Packets that reached their destination, ready for pickup.
    arrived: Vec<Packet>,
    /// Which node each in-flight packet currently sits at is implicit: a
    /// packet is always inside some link pipe; this maps a delivered packet
    /// (by link) to the node where it pops out.
    dropped: u64,
}

impl GroundTruthDataplane {
    /// Builds the per-hop simulation of `topology`.
    pub fn new(topology: &Topology) -> Self {
        let collapsed = CollapsedTopology::build(topology);
        let graph = TopologyGraph::new(topology);
        let mut links = HashMap::new();
        let mut link_endpoint = HashMap::new();
        for spec in topology.links() {
            let mut cfg = LinkConfig::new(spec.properties.bandwidth, spec.properties.latency);
            cfg.loss = spec.properties.loss;
            links.insert(spec.id, LinkPipe::with_seed(cfg, u64::from(spec.id.0) + 1));
            link_endpoint.insert(spec.id, spec.to);
        }
        // Forwarding tables: per-source shortest paths from every node, so
        // intermediate bridges also know where to forward.
        let mut next_hop = HashMap::new();
        for node in topology.nodes() {
            let paths = graph.shortest_paths_from(node.id);
            for &service in &topology.service_ids() {
                if service == node.id {
                    continue;
                }
                if let Some(path) = paths.get(&service) {
                    if let Some(first) = path.links.first() {
                        next_hop.insert((node.id, service), *first);
                    }
                }
            }
        }
        GroundTruthDataplane {
            links,
            next_hop,
            link_endpoint,
            collapsed,
            per_hop_overhead: SimDuration::ZERO,
            arrived: Vec::new(),
            dropped: 0,
        }
    }

    /// Sets the per-switch forwarding overhead (used by the Mininet and
    /// Maxinet variants).
    pub fn set_per_hop_overhead(&mut self, overhead: SimDuration) {
        self.per_hop_overhead = overhead;
    }

    /// The address/collapse view shared with the Kollaps dataplane.
    pub fn collapsed(&self) -> &CollapsedTopology {
        &self.collapsed
    }

    /// Packets dropped inside the network so far (loss + buffer overflow).
    pub fn dropped_packets(&self) -> u64 {
        self.dropped
    }

    fn forward(&mut self, now: SimTime, at_node: NodeId, packet: Packet) -> Option<DropReason> {
        let Some(dst_node) = self.collapsed.service_at(packet.dst) else {
            self.dropped += 1;
            return Some(DropReason::Unreachable);
        };
        if at_node == dst_node {
            self.arrived.push(packet);
            return None;
        }
        let pipe = self
            .next_hop
            .get(&(at_node, dst_node))
            .and_then(|link| self.links.get_mut(link));
        let Some(pipe) = pipe else {
            self.dropped += 1;
            return Some(DropReason::Unreachable);
        };
        let verdict = pipe.enqueue(now + self.per_hop_overhead, packet);
        if verdict.is_some() {
            self.dropped += 1;
        }
        verdict
    }

    /// Moves packets that finished a hop onto their next hop (or into the
    /// arrival buffer).
    fn propagate(&mut self, now: SimTime) {
        // Sorted: same-instant forwarding between pipes must not depend on
        // the process-random HashMap iteration order, or contended runs
        // stop being reproducible. The key set cannot change inside the
        // fixpoint loop, so collect and sort once.
        let mut link_ids: Vec<LinkId> = self.links.keys().copied().collect();
        link_ids.sort();
        loop {
            let mut moved = false;
            for &link in &link_ids {
                // Both lookups hit: `links` and `link_endpoint` are filled
                // together in `new`, and `link_ids` are `links`' own keys.
                let (Some(pipe), Some(&node)) =
                    (self.links.get_mut(&link), self.link_endpoint.get(&link))
                else {
                    continue;
                };
                let ready = pipe.deliver_ready(now);
                if ready.is_empty() {
                    continue;
                }
                moved = true;
                for pkt in ready {
                    let _ = self.forward(now, node, pkt);
                }
            }
            if !moved {
                break;
            }
        }
    }
}

impl Addressable for GroundTruthDataplane {
    fn collapsed(&self) -> &CollapsedTopology {
        &self.collapsed
    }
}

impl Dataplane for GroundTruthDataplane {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        let Some(src_node) = self.collapsed.service_at(packet.src) else {
            return SendOutcome::Dropped(DropReason::Unreachable);
        };
        match self.forward(now, src_node, packet) {
            None => SendOutcome::Sent,
            // A full first-hop buffer behaves like a full local qdisc: the
            // sender's stack is back-pressured rather than silently losing
            // the packet it has not yet serialized.
            Some(DropReason::QueueOverflow) => SendOutcome::Backpressure,
            Some(reason) => SendOutcome::Dropped(reason),
        }
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.links
            .values_mut()
            .filter_map(|l| l.next_wakeup(now))
            .min()
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        self.propagate(now);
        std::mem::take(&mut self.arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_core::runtime::Runtime;
    use kollaps_netmodel::packet::Addr;
    use kollaps_topology::generators;
    use kollaps_transport::tcp::{TcpSenderConfig, TransferSize};

    #[test]
    fn ping_rtt_matches_topology_latency() {
        let (topo, clients, servers) = generators::figure8();
        let dp = GroundTruthDataplane::new(&topo);
        let c1 = dp.collapsed().address_of(clients[0]).unwrap();
        let s1 = dp.collapsed().address_of(servers[0]).unwrap();
        let mut rt = Runtime::new(dp);
        let probe = rt.add_ping(c1, s1, SimDuration::from_millis(100), 30, SimTime::ZERO);
        let _ = rt.run_until(SimTime::from_secs(10));
        let rtts = rt.ping_rtts(probe).unwrap();
        // One-way latency is 35 ms (10+10+10+5), so the RTT is ≈ 70 ms plus
        // per-hop serialization of the tiny ICMP packets.
        assert!((rtts.mean() - 70.0).abs() < 1.0, "rtt {}", rtts.mean());
    }

    #[test]
    fn tcp_throughput_reaches_the_bottleneck() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let dp = GroundTruthDataplane::new(&topo);
        let c = dp.address_of_index(0);
        let s = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        let flow = rt.add_tcp_flow(
            c,
            s,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(10));
        let mbps = DataSize::from_bytes(rt.tcp_received_bytes(flow))
            .rate_over(SimDuration::from_secs(10))
            .as_mbps();
        assert!((40.0..=50.5).contains(&mbps), "goodput {mbps}");
    }

    #[test]
    fn two_flows_share_a_real_bottleneck() {
        let (topo, clients, servers) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let dp = GroundTruthDataplane::new(&topo);
        let addrs: Vec<(Addr, Addr)> = (0..2)
            .map(|i| {
                (
                    dp.collapsed().address_of(clients[i]).unwrap(),
                    dp.collapsed().address_of(servers[i]).unwrap(),
                )
            })
            .collect();
        let mut rt = Runtime::new(dp);
        let flows: Vec<_> = addrs
            .iter()
            .map(|&(c, s)| {
                rt.add_tcp_flow(
                    c,
                    s,
                    TransferSize::Unbounded,
                    TcpSenderConfig::default(),
                    SimTime::ZERO,
                )
            })
            .collect();
        let _ = rt.run_until(SimTime::from_secs(20));
        let total: f64 = flows
            .iter()
            .map(|&f| {
                DataSize::from_bytes(rt.tcp_received_bytes(f))
                    .rate_over(SimDuration::from_secs(20))
                    .as_mbps()
            })
            .sum();
        // The two flows together must not exceed the 50 Mb/s bottleneck, and
        // should utilise most of it.
        assert!(total <= 51.0, "total {total}");
        assert!(total >= 35.0, "total {total}");
    }

    #[test]
    fn unreachable_destination_is_reported() {
        let mut topo = Topology::new();
        topo.add_service("a", 0, "x");
        topo.add_service("b", 0, "x");
        let mut dp = GroundTruthDataplane::new(&topo);
        let a = dp.address_of_index(0);
        let b = dp.address_of_index(1);
        let pkt = Packet::new(
            1,
            kollaps_netmodel::packet::FlowId(1),
            a,
            b,
            kollaps_netmodel::packet::MTU,
            kollaps_netmodel::packet::PacketKind::Udp,
            SimTime::ZERO,
        );
        assert_eq!(
            dp.send(SimTime::ZERO, pkt),
            SendOutcome::Dropped(DropReason::Unreachable)
        );
        assert_eq!(dp.dropped_packets(), 1);
    }
}
