//! Hop-by-hop simulation of the target topology ("bare metal").
//!
//! Every unidirectional link of the topology is a
//! [`kollaps_netmodel::link::LinkPipe`] with the link's bandwidth, latency,
//! loss and a drop-tail buffer. Packets traverse every hop explicitly —
//! switch buffers fill, packets are dropped on overflow, and TCP reacts to
//! real queueing rather than to the emulation model. This is the reference
//! the paper's deviation plots (Figures 5-7) measure against.
//!
//! # Routes
//!
//! A pair's packets follow the links of its collapsed path
//! ([`CollapsedTopology::path_by_addr`]): the ground truth routes along the
//! shortest paths Kollaps collapses and makes no routing decision of its
//! own. That is what switches forwarding each along its own shortest path
//! would do. Under the tie-break contract of [`kollaps_topology::graph`],
//! the tree of any node `n` on `s`'s path to `d` reaches `d` over the rest
//! of that path, so every switch on the way picks the next link of the
//! source's path. A pair's route is derived on its first send and kept.

use std::collections::BTreeMap;

use kollaps_netmodel::link::{LinkConfig, LinkPipe};
use kollaps_netmodel::packet::{Addr, DropReason, Packet};
use kollaps_sim::prelude::*;

use kollaps_core::collapse::{Addressable, CollapsedTopology};
use kollaps_core::runtime::{Dataplane, SendOutcome};
use kollaps_topology::model::Topology;

/// Link state and routes for a full-state (per-hop) network simulation.
pub struct GroundTruthDataplane {
    /// One pipe per link, in link-id order: a link's pipe sits at its slot
    /// in the collapse's [`kollaps_core::collapse::LinkTable`].
    pipes: Vec<LinkPipe>,
    /// Per (source, destination) address pair that has sent, the slots of
    /// its collapsed path in path order; empty when it has none.
    routes: BTreeMap<(Addr, Addr), Box<[u32]>>,
    /// Container address ↔ service node mapping and the paths (same
    /// assignment as the Kollaps dataplane, so workloads can run on
    /// either).
    collapsed: CollapsedTopology,
    /// Extra forwarding latency applied at every switch hop (zero for bare
    /// metal; the Mininet/Maxinet wrappers raise it).
    per_hop_overhead: SimDuration,
    /// Packets that reached their destination, ready for pickup.
    arrived: Vec<Packet>,
    /// Packets dropped inside the network (loss, buffer overflow, no
    /// route).
    dropped: u64,
}

impl GroundTruthDataplane {
    /// Builds the per-hop simulation of `topology`.
    pub fn new(topology: &Topology) -> Self {
        let mut links: Vec<_> = topology.links().iter().collect();
        links.sort_unstable_by_key(|link| link.id);
        let pipes = links
            .iter()
            .map(|spec| {
                let mut cfg = LinkConfig::new(spec.properties.bandwidth, spec.properties.latency);
                cfg.loss = spec.properties.loss;
                LinkPipe::with_seed(cfg, u64::from(spec.id.0) + 1)
            })
            .collect();
        GroundTruthDataplane {
            pipes,
            routes: BTreeMap::new(),
            collapsed: CollapsedTopology::build(topology),
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

    /// Packets dropped inside the network so far (loss + buffer overflow).
    pub fn dropped_packets(&self) -> u64 {
        self.dropped
    }

    /// The slots of the route from `src` to `dst`, derived on first use.
    fn route(&mut self, src: Addr, dst: Addr) -> &[u32] {
        let collapsed = &self.collapsed;
        self.routes.entry((src, dst)).or_insert_with(|| {
            let path = collapsed.path_by_addr(src, dst);
            let links = path.iter().flat_map(|path| &path.links);
            // Every link of a collapsed path has a slot.
            let table = collapsed.link_table();
            links
                .filter_map(|&link| table.slot(link))
                .map(|slot| slot as u32)
                .collect()
        })
    }

    /// Queues `packet` on the link in `slot`, counting it dropped when the
    /// link refuses it.
    fn enqueue(&mut self, now: SimTime, slot: u32, packet: Packet) -> Option<DropReason> {
        let verdict = self.pipes[slot as usize].enqueue(now + self.per_hop_overhead, packet);
        if verdict.is_some() {
            self.dropped += 1;
        }
        verdict
    }

    /// Moves packets that finished a hop onto their next hop (or into the
    /// arrival buffer), sweeping the links in id order until none has a
    /// packet ready: same-instant forwarding between pipes must not depend
    /// on anything but the topology, or contended runs stop being
    /// reproducible.
    fn propagate(&mut self, now: SimTime) {
        loop {
            let mut moved = false;
            for slot in 0..self.pipes.len() as u32 {
                let ready = self.pipes[slot as usize].deliver_ready(now);
                moved |= !ready.is_empty();
                for packet in ready {
                    // The packet entered the network through `send`, which
                    // derived its route, and sits on one of its links.
                    let route = &self.routes[&(packet.src, packet.dst)];
                    let at = route.iter().position(|&hop| hop == slot);
                    match at.and_then(|at| route.get(at + 1)) {
                        Some(&next) => {
                            let _ = self.enqueue(now, next, packet);
                        }
                        None => self.arrived.push(packet),
                    }
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
        let Some(dst_node) = self.collapsed.service_at(packet.dst) else {
            self.dropped += 1;
            return SendOutcome::Dropped(DropReason::Unreachable);
        };
        if src_node == dst_node {
            self.arrived.push(packet);
            return SendOutcome::Sent;
        }
        let Some(&first) = self.route(packet.src, packet.dst).first() else {
            self.dropped += 1;
            return SendOutcome::Dropped(DropReason::Unreachable);
        };
        match self.enqueue(now, first, packet) {
            None => SendOutcome::Sent,
            // A full first-hop buffer behaves like a full local qdisc: the
            // sender's stack is back-pressured rather than silently losing
            // the packet it has not yet serialized.
            Some(DropReason::QueueOverflow) => SendOutcome::Backpressure,
            Some(reason) => SendOutcome::Dropped(reason),
        }
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.pipes
            .iter_mut()
            .filter_map(|pipe| pipe.next_wakeup(now))
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
