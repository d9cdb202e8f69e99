//! Mininet-like full-state emulator model.
//!
//! Mininet emulates every switch as a software process on a single host.
//! For the accuracy comparison this matters in three ways (paper §2, §5):
//!
//! * bandwidth limits above 1 Gb/s cannot be configured
//!   ([`MininetConfig::unshapeable_link`]; the scenario layer refuses such a
//!   topology before it builds this dataplane);
//! * every packet pays a software-forwarding cost at every emulated switch;
//! * that cost grows when many *new* connections arrive per second, because
//!   per-connection state is maintained in the emulated switches — this is
//!   the effect behind Mininet falling behind in the connection-per-request
//!   workload of Figure 6.

use std::collections::{HashSet, VecDeque};

use kollaps_netmodel::packet::{FlowId, Packet};
use kollaps_sim::prelude::*;

use kollaps_core::collapse::{Addressable, CollapsedTopology};
use kollaps_core::runtime::{Dataplane, SendOutcome};
use kollaps_topology::model::{LinkSpec, Topology};

use crate::ground_truth::GroundTruthDataplane;

/// Behavioural parameters of the Mininet model.
#[derive(Debug, Clone, Copy)]
pub struct MininetConfig {
    /// Fixed software-forwarding cost per switch hop.
    pub base_forwarding_cost: SimDuration,
    /// Additional per-hop cost per concurrently tracked connection.
    pub per_connection_cost: SimDuration,
    /// Largest bandwidth Mininet can shape (1 Gb/s in the real tool).
    pub max_shaped_bandwidth: Bandwidth,
    /// How long per-connection switch state is retained.
    pub connection_tracking_window: SimDuration,
}

impl Default for MininetConfig {
    fn default() -> Self {
        MininetConfig {
            base_forwarding_cost: SimDuration::from_micros(30),
            per_connection_cost: SimDuration::from_micros(8),
            max_shaped_bandwidth: Bandwidth::from_gbps(1),
            connection_tracking_window: SimDuration::from_secs(1),
        }
    }
}

impl MininetConfig {
    /// The first link of `topology` whose rate exceeds
    /// [`MininetConfig::max_shaped_bandwidth`]. Mininet cannot emulate a
    /// topology that has one (Table 2's "N/A" rows above 1 Gb/s).
    pub fn unshapeable_link<'t>(&self, topology: &'t Topology) -> Option<&'t LinkSpec> {
        topology
            .links()
            .iter()
            .find(|l| l.properties.bandwidth > self.max_shaped_bandwidth)
    }
}

/// Mininet-like dataplane: the ground-truth hop-by-hop simulation plus the
/// software-switch overhead model.
pub struct MininetDataplane {
    inner: GroundTruthDataplane,
    config: MininetConfig,
    /// The flows tracked as connections: those first seen within the
    /// tracking window (a flow seen again after it was forgotten counts
    /// anew).
    seen_flows: HashSet<FlowId>,
    /// The tracked flows with the time each was first seen, in that order:
    /// sends come with non-decreasing times, so the front is always the
    /// next to expire.
    expiry: VecDeque<(SimTime, FlowId)>,
}

impl MininetDataplane {
    /// Builds the Mininet model for `topology`.
    pub fn new(topology: &Topology) -> Self {
        MininetDataplane::with_config(topology, MininetConfig::default())
    }

    /// Builds the Mininet model with explicit parameters.
    pub fn with_config(topology: &Topology, config: MininetConfig) -> Self {
        MininetDataplane {
            inner: GroundTruthDataplane::new(topology),
            config,
            seen_flows: HashSet::new(),
            expiry: VecDeque::new(),
        }
    }

    /// Tracks `flow` as seen at `now`, unless it already is.
    fn track(&mut self, now: SimTime, flow: FlowId) {
        debug_assert!(
            self.expiry.back().is_none_or(|&(seen, _)| seen <= now),
            "sends come with non-decreasing times"
        );
        if self.seen_flows.insert(flow) {
            self.expiry.push_back((now, flow));
        }
    }

    fn refresh_overhead(&mut self, now: SimTime) {
        // Forget connections older than the tracking window: a prefix of
        // the first-seen order, popped in amortised O(1) per flow.
        let window = self.config.connection_tracking_window;
        while let Some(&(seen, flow)) = self.expiry.front() {
            if now.saturating_since(seen) <= window {
                break;
            }
            self.expiry.pop_front();
            self.seen_flows.remove(&flow);
        }
        let tracked = self.seen_flows.len() as u64;
        let overhead = self.config.base_forwarding_cost
            + SimDuration::from_nanos(self.config.per_connection_cost.as_nanos() * tracked);
        self.inner.set_per_hop_overhead(overhead);
    }
}

impl Addressable for MininetDataplane {
    fn collapsed(&self) -> &CollapsedTopology {
        self.inner.collapsed()
    }
}

impl Dataplane for MininetDataplane {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        self.track(now, packet.flow);
        self.refresh_overhead(now);
        self.inner.send(now, packet)
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        self.inner.deliver(now)
    }

    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        self.refresh_overhead(now);
        Some(now + SimDuration::from_millis(100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_core::runtime::Runtime;
    use kollaps_topology::generators;

    #[test]
    fn gigabit_cap_marks_topologies_unsupported() {
        let config = MininetConfig::default();
        let (ok_topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(500),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        assert!(config.unshapeable_link(&ok_topo).is_none());
        let (big_topo, _, _) = generators::point_to_point(
            Bandwidth::from_gbps(2),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        let link = config
            .unshapeable_link(&big_topo)
            .expect("over the ceiling");
        assert_eq!(link.properties.bandwidth, Bandwidth::from_gbps(2));
    }

    #[test]
    fn ping_rtt_includes_switch_overhead() {
        let (topo, clients, servers) = generators::figure8();
        let dp = MininetDataplane::new(&topo);
        let c1 = dp.collapsed().address_of(clients[0]).unwrap();
        let s1 = dp.collapsed().address_of(servers[0]).unwrap();
        let mut rt = Runtime::new(dp);
        let probe = rt.add_ping(c1, s1, SimDuration::from_millis(50), 20, SimTime::ZERO);
        let _ = rt.run_until(SimTime::from_secs(5));
        let mean = rt.ping_rtts(probe).unwrap().mean();
        // Slightly above the 70 ms topology RTT, but well within 1 ms.
        assert!(mean > 70.0 && mean < 71.5, "rtt {mean}");
    }

    #[test]
    fn many_new_connections_inflate_forwarding_cost() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        let mut dp = MininetDataplane::new(&topo);
        let a = dp.address_of_index(0);
        let b = dp.address_of_index(1);
        // Open 200 "connections" (distinct flows) within one tracking window.
        for i in 0..200u64 {
            let pkt = Packet::new(
                i,
                FlowId(i),
                a,
                b,
                kollaps_netmodel::packet::MTU,
                kollaps_netmodel::packet::PacketKind::TcpData { seq: 0 },
                SimTime::from_millis(i),
            );
            let _ = dp.send(SimTime::from_millis(i), pkt);
        }
        assert_eq!(dp.seen_flows.len(), 200);
        // After the tracking window the state is forgotten.
        let _ = dp.tick(SimTime::from_secs(10));
        assert!(dp.seen_flows.is_empty());
    }

    /// The expiry queue tracks exactly the flows the reference — a map of
    /// first-seen times, `retain`ed over the window after every send and
    /// tick — does, after every call: flows seen again inside and after the window,
    /// several sends at one instant, ticks between them.
    #[test]
    fn expiry_queue_matches_the_retain_reference() {
        use std::collections::HashMap;

        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        let mut dp = MininetDataplane::new(&topo);
        let window = dp.config.connection_tracking_window;
        let (a, b) = (dp.address_of_index(0), dp.address_of_index(1));
        let mut reference: HashMap<FlowId, SimTime> = HashMap::new();
        let mut rng = kollaps_sim::rng::SimRng::new(0x5eed);
        let mut now = SimTime::ZERO;
        let (mut sends, mut expired) = (0, 0);
        for id in 0..20_000u64 {
            // Mostly a few milliseconds apart, sometimes at the same
            // instant, now and then past a whole window.
            now += SimDuration::from_micros(match rng.gen_index(10) {
                0 => 0,
                9 => rng.gen_range(0, 1_500_000),
                _ => rng.gen_range(0, 5_000),
            });
            if rng.chance(0.1) {
                let _ = dp.tick(now);
            } else {
                // As `send` did: the flow first, then the window.
                let flow = FlowId(rng.gen_range(0, 400));
                reference.entry(flow).or_insert(now);
                let kind = kollaps_netmodel::packet::PacketKind::TcpData { seq: 0 };
                let size = kollaps_netmodel::packet::MTU;
                let packet = Packet::new(id, flow, a, b, size, kind, now);
                let _ = dp.send(now, packet);
                sends += 1;
            }
            let before = reference.len();
            reference.retain(|_, &mut seen| now.saturating_since(seen) <= window);
            expired += before - reference.len();
            let tracked: HashSet<FlowId> = reference.keys().copied().collect();
            assert_eq!(dp.seen_flows, tracked, "after call {id}");
            assert_eq!(dp.expiry.len(), tracked.len());
        }
        assert!(
            sends > 15_000 && expired > 1_000,
            "{sends} sends, {expired} expired"
        );
    }
}
