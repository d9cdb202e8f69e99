//! Dissemination bus: shared memory within a host, UDP across hosts.
//!
//! The bus models the Aeron-based transport of the original system at the
//! level the evaluation cares about: which messages travel over the physical
//! network (and therefore count as metadata traffic in Figures 3 and 4) and
//! which stay inside a host via shared memory (and are free).

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use kollaps_sim::time::{SimDuration, SimTime};

use crate::codec::MetadataMessage;

/// Identifier of a physical host in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HostId(pub u32);

/// Per-host accounting of metadata traffic that crossed the physical
/// network.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficAccounting {
    /// Bytes sent onto the physical network, per source host.
    pub sent_bytes: HashMap<HostId, u64>,
    /// Bytes received from the physical network, per destination host.
    pub received_bytes: HashMap<HostId, u64>,
    /// Messages that stayed on the same host (shared memory).
    pub local_messages: u64,
    /// Messages that crossed the network.
    pub remote_messages: u64,
}

impl TrafficAccounting {
    /// Total bytes that crossed the physical network (each message counted
    /// once per remote destination host, like Aeron's UDP unicast fan-out).
    pub fn total_network_bytes(&self) -> u64 {
        self.sent_bytes.values().sum()
    }
}

/// The dissemination transport as the emulation loop sees it: publish the
/// local usage, synchronize once per loop iteration, drain what has been
/// delivered, and account the traffic.
///
/// Two implementations exist: the in-process [`DisseminationBus`] (a modeled
/// delay queue — `synchronize` just moves due messages towards their
/// mailboxes) and the distributed runtime's `SocketBus`, which sends the
/// encoded frames over real UDP sockets and uses `synchronize` as the
/// per-tick barrier that waits for every peer's datagram of the current
/// iteration. The emulation loop calls the same four methods either way, so
/// the dataplane cannot tell a modeled network from a real one.
///
/// `Send` is required because sessions (and therefore their dataplanes) move
/// across threads in campaign sweeps.
pub trait Bus: Send {
    /// The participating hosts.
    fn hosts(&self) -> &[HostId];

    /// Publishes `message` from `from` to every other host. Implementations
    /// stamp the wire header (sender host + publish time) themselves.
    fn publish(&mut self, now: SimTime, from: HostId, message: &MetadataMessage);

    /// Called once per loop iteration, after every manager published and
    /// before any mailbox is drained. The modeled bus moves due messages;
    /// a socket-backed bus blocks here until the current iteration's remote
    /// datagrams have arrived (the distributed lockstep barrier).
    fn synchronize(&mut self, now: SimTime);

    /// Drains the messages delivered to `host` by `now`.
    fn drain(&mut self, now: SimTime, host: HostId) -> Vec<Delivery>;

    /// Traffic accounting so far.
    fn accounting(&self) -> &TrafficAccounting;
}

/// A message in flight towards another host's Emulation Manager.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: SimTime,
    to: HostId,
    message: MetadataMessage,
}

/// A metadata message as it reaches a subscriber: the payload plus the
/// sender host and the (virtual) time it was published. Receivers key their
/// remote-usage view on `from` and can quantify staleness as
/// `now - published`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Host whose Emulation Manager published the message.
    pub from: HostId,
    /// Virtual time of publication (delivery time minus the network delay).
    pub published: SimTime,
    /// The usage payload.
    pub message: MetadataMessage,
}

/// The dissemination bus connecting Emulation Managers.
///
/// Same-host publication is delivered instantly (shared memory); cross-host
/// publication is delivered after a configurable physical-network delay and
/// accounted as metadata traffic.
#[derive(Debug)]
pub struct DisseminationBus {
    hosts: Vec<HostId>,
    network_delay: SimDuration,
    in_flight: VecDeque<InFlight>,
    /// Messages ready for pick-up, by destination host id.
    mailboxes: Vec<Vec<Delivery>>,
    accounting: TrafficAccounting,
}

impl DisseminationBus {
    /// Creates a bus connecting `hosts`, with the given one-way delay on the
    /// physical network between them.
    pub fn new(hosts: Vec<HostId>, network_delay: SimDuration) -> Self {
        let slots = hosts.iter().map(|h| h.0 as usize + 1).max().unwrap_or(0);
        let mailboxes = vec![Vec::new(); slots];
        DisseminationBus {
            hosts,
            network_delay,
            in_flight: VecDeque::new(),
            mailboxes,
            accounting: TrafficAccounting::default(),
        }
    }
}

impl Bus for DisseminationBus {
    fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Publishes `message` from `from` to every other host (and to local
    /// subscribers for free). The bus stamps the wire header — sender host
    /// and publish time — so a subscriber's [`Delivery`] always agrees with
    /// what the encoded message itself claims.
    fn publish(&mut self, now: SimTime, from: HostId, message: &MetadataMessage) {
        let mut message = message.clone();
        message.sender = from;
        message.published = now;
        for &host in &self.hosts {
            if host == from {
                self.accounting.local_messages += 1;
                continue;
            }
            let bytes = message.encoded_len() as u64;
            *self.accounting.sent_bytes.entry(from).or_default() += bytes;
            self.accounting.remote_messages += 1;
            self.in_flight.push_back(InFlight {
                deliver_at: now + self.network_delay,
                to: host,
                message: message.clone(),
            });
        }
    }

    /// Moves messages whose delivery time has passed into their mailboxes.
    fn synchronize(&mut self, now: SimTime) {
        let mut remaining = VecDeque::new();
        while let Some(m) = self.in_flight.pop_front() {
            if m.deliver_at <= now {
                // Receive-side accounting happens here, at delivery: bytes
                // still in flight when the experiment ends were sent but
                // never received.
                *self.accounting.received_bytes.entry(m.to).or_default() +=
                    m.message.encoded_len() as u64;
                // `m.to` is one of `hosts`, so it has a mailbox.
                self.mailboxes[m.to.0 as usize].push(Delivery {
                    from: m.message.sender,
                    published: m.message.published,
                    message: m.message,
                });
            } else {
                remaining.push_back(m);
            }
        }
        self.in_flight = remaining;
    }

    /// Drains the messages delivered to `host`, each carrying its sender
    /// and publish time.
    fn drain(&mut self, now: SimTime, host: HostId) -> Vec<Delivery> {
        self.synchronize(now);
        self.mailboxes
            .get_mut(host.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn accounting(&self) -> &TrafficAccounting {
        &self.accounting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FlowUsage;
    use kollaps_sim::units::Bandwidth;

    fn message(flows: usize) -> MetadataMessage {
        let mut m = MetadataMessage::new();
        for i in 0..flows {
            m.flows.push(FlowUsage::new(
                Bandwidth::from_mbps(10),
                vec![i as u16, (i + 1) as u16],
            ));
        }
        m
    }

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn single_host_generates_no_network_traffic() {
        let mut bus = DisseminationBus::new(hosts(1), SimDuration::from_micros(50));
        for _ in 0..100 {
            bus.publish(SimTime::ZERO, HostId(0), &message(10));
        }
        assert_eq!(bus.accounting().total_network_bytes(), 0);
        assert_eq!(bus.accounting().local_messages, 100);
        assert_eq!(bus.accounting().remote_messages, 0);
    }

    #[test]
    fn traffic_grows_with_host_count_not_flow_origin() {
        // The same publication fans out to (hosts - 1) destinations.
        for n in [2u32, 3, 4] {
            let mut bus = DisseminationBus::new(hosts(n), SimDuration::from_micros(50));
            bus.publish(SimTime::ZERO, HostId(0), &message(10));
            let expected = (n as u64 - 1) * message(10).encoded_len() as u64;
            assert_eq!(bus.accounting().total_network_bytes(), expected);
        }
    }

    #[test]
    fn messages_are_delivered_after_the_network_delay() {
        let mut bus = DisseminationBus::new(hosts(2), SimDuration::from_millis(1));
        bus.publish(SimTime::ZERO, HostId(0), &message(3));
        assert!(bus.drain(SimTime::from_micros(500), HostId(1)).is_empty());
        let delivered = bus.drain(SimTime::from_millis(1), HostId(1));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message.flows.len(), 3);
        // The delivery identifies who published, and when.
        assert_eq!(delivered[0].from, HostId(0));
        assert_eq!(delivered[0].published, SimTime::ZERO);
        // The sender never receives its own message.
        assert!(bus.drain(SimTime::from_millis(2), HostId(0)).is_empty());
    }

    #[test]
    fn delivery_survives_the_wire_format_with_wide_link_ids() {
        // A >256-link topology forces the 2-byte id path; the delivered
        // message must round-trip through the codec with the sender host and
        // publish time intact — exactly what a remote Emulation Manager
        // reconstructs from the datagram.
        let mut wide = MetadataMessage::new();
        wide.flows.push(FlowUsage::new(
            Bandwidth::from_mbps(25),
            vec![3, 700, 4_000, 65_535],
        ));
        assert!(!wide.uses_compact_ids());
        let mut bus = DisseminationBus::new(hosts(2), SimDuration::from_micros(200));
        bus.publish(SimTime::from_millis(40), HostId(1), &wide);
        let delivered = bus.drain(SimTime::from_millis(41), HostId(0));
        assert_eq!(delivered.len(), 1);
        let d = &delivered[0];
        assert_eq!(d.from, HostId(1));
        assert_eq!(d.published, SimTime::from_millis(40));
        let decoded = MetadataMessage::decode(d.message.encode()).unwrap();
        assert_eq!(decoded, d.message);
        assert_eq!(decoded.sender, HostId(1));
        assert_eq!(decoded.published, SimTime::from_millis(40));
        assert_eq!(decoded.flows[0].link_ids, vec![3, 700, 4_000, 65_535]);
    }

    #[test]
    fn trait_object_dispatch_matches_the_inherent_behaviour() {
        let mut bus: Box<dyn Bus> = Box::new(DisseminationBus::new(
            hosts(2),
            SimDuration::from_micros(100),
        ));
        bus.publish(SimTime::ZERO, HostId(0), &message(2));
        bus.synchronize(SimTime::from_micros(100));
        let delivered = bus.drain(SimTime::from_micros(100), HostId(1));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].from, HostId(0));
        assert_eq!(bus.accounting().remote_messages, 1);
        assert_eq!(bus.hosts().len(), 2);
    }

    #[test]
    fn accounting_counts_every_remote_copy_of_every_round() {
        let mut bus = DisseminationBus::new(hosts(4), SimDuration::ZERO);
        // 10 rounds of publications from every host.
        for round in 0..10u64 {
            let now = SimTime::from_millis(round * 50);
            for h in 0..4 {
                bus.publish(now, HostId(h), &message(5));
            }
        }
        let acc = bus.accounting();
        let copy = message(5).encoded_len() as u64;
        assert_eq!(acc.total_network_bytes(), 10 * 4 * 3 * copy);
        for h in 0..4 {
            assert_eq!(acc.sent_bytes[&HostId(h)], 10 * 3 * copy);
        }
    }
}
