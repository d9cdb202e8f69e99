//! Dissemination bus: shared memory within a host, UDP across hosts.
//!
//! The bus models the Aeron-based transport of the original system at the
//! level the evaluation cares about: which messages travel over the physical
//! network (and therefore count as metadata traffic in Figures 3 and 4) and
//! which stay inside a host via shared memory (and are free).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

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

    /// Publishes `message` from `from` to every other host. The bus takes
    /// the message by value and owns it from here on: it stamps the wire
    /// header (sender host + publish time), cuts the message to what the
    /// wire carries ([`MetadataMessage::clamp_to_wire`]) and wraps it in one
    /// [`Arc`] that every receiving host's [`Delivery`] shares — one
    /// allocation per publish, however many hosts receive it.
    fn publish(&mut self, now: SimTime, from: HostId, message: MetadataMessage);

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
    /// The message's encoded size, computed once at publish.
    bytes: u64,
    message: Arc<MetadataMessage>,
}

/// A metadata message as it reaches a subscriber: the payload plus the
/// sender host and the (virtual) time it was published. Receivers key their
/// remote-usage view on `from` and can quantify staleness as
/// `now - published`.
///
/// The payload is shared, not owned: every host that receives one
/// publication gets a handle to the same allocation ([`Arc::ptr_eq`]), and a
/// receiver may keep that handle as its view of the sender for as long as it
/// likes. It is the wire view of the message — what `decode(encode(m))`
/// yields — whichever bus carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Host whose Emulation Manager published the message.
    pub from: HostId,
    /// Virtual time of publication (delivery time minus the network delay).
    pub published: SimTime,
    /// The usage payload, shared by every receiver of the publication.
    pub message: Arc<MetadataMessage>,
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
    /// and publish time — and clamps the payload to the wire, so a
    /// subscriber's [`Delivery`] always agrees with what the encoded message
    /// itself claims.
    fn publish(&mut self, now: SimTime, from: HostId, mut message: MetadataMessage) {
        message.sender = from;
        message.published = now;
        message.clamp_to_wire();
        let bytes = message.encoded_len() as u64;
        let message = Arc::new(message);
        let deliver_at = now + self.network_delay;
        // The delay is constant, so publish order is delivery order as long
        // as publish times never go back; `synchronize` relies on it.
        debug_assert!(
            self.in_flight
                .back()
                .is_none_or(|last| last.deliver_at <= deliver_at),
            "publish at {now:?} after a later publication"
        );
        for &host in &self.hosts {
            if host == from {
                self.accounting.local_messages += 1;
                continue;
            }
            *self.accounting.sent_bytes.entry(from).or_default() += bytes;
            self.accounting.remote_messages += 1;
            self.in_flight.push_back(InFlight {
                deliver_at,
                to: host,
                bytes,
                message: Arc::clone(&message),
            });
        }
    }

    /// Moves messages whose delivery time has passed into their mailboxes.
    /// `in_flight` is in delivery order (see `publish`), so the due ones
    /// are a prefix.
    fn synchronize(&mut self, now: SimTime) {
        let due = self.in_flight.partition_point(|m| m.deliver_at <= now);
        for m in self.in_flight.drain(..due) {
            // Receive-side accounting happens here, at delivery: bytes still
            // in flight when the experiment ends were sent but never
            // received.
            *self.accounting.received_bytes.entry(m.to).or_default() += m.bytes;
            // `m.to` is one of `hosts`, so it has a mailbox.
            self.mailboxes[m.to.0 as usize].push(Delivery {
                from: m.message.sender,
                published: m.message.published,
                message: m.message,
            });
        }
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
            bus.publish(SimTime::ZERO, HostId(0), message(10));
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
            bus.publish(SimTime::ZERO, HostId(0), message(10));
            let expected = (n as u64 - 1) * message(10).encoded_len() as u64;
            assert_eq!(bus.accounting().total_network_bytes(), expected);
        }
    }

    #[test]
    fn messages_are_delivered_after_the_network_delay() {
        let mut bus = DisseminationBus::new(hosts(2), SimDuration::from_millis(1));
        bus.publish(SimTime::ZERO, HostId(0), message(3));
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
        bus.publish(SimTime::from_millis(40), HostId(1), wide);
        let delivered = bus.drain(SimTime::from_millis(41), HostId(0));
        assert_eq!(delivered.len(), 1);
        let d = &delivered[0];
        assert_eq!(d.from, HostId(1));
        assert_eq!(d.published, SimTime::from_millis(40));
        let decoded = MetadataMessage::decode(d.message.encode()).unwrap();
        assert_eq!(decoded, *d.message);
        assert_eq!(decoded.sender, HostId(1));
        assert_eq!(decoded.published, SimTime::from_millis(40));
        assert_eq!(*decoded.flows[0].link_ids, [3, 700, 4_000, 65_535]);
    }

    #[test]
    fn one_publish_is_one_allocation_shared_by_every_receiver() {
        let mut bus = DisseminationBus::new(hosts(4), SimDuration::from_millis(1));
        bus.publish(SimTime::ZERO, HostId(2), message(7));
        let now = SimTime::from_millis(1);
        let deliveries: Vec<Delivery> = (0..4).flat_map(|h| bus.drain(now, HostId(h))).collect();
        assert_eq!(deliveries.len(), 3);
        for d in &deliveries {
            assert!(Arc::ptr_eq(&d.message, &deliveries[0].message));
            assert_eq!(d.from, HostId(2));
        }
        // Receive-side bytes are the size counted at publish.
        let acc = bus.accounting();
        let copy = message(7).encoded_len() as u64;
        assert_eq!(acc.sent_bytes[&HostId(2)], 3 * copy);
        for h in [0, 1, 3] {
            assert_eq!(acc.received_bytes[&HostId(h)], copy);
        }
    }

    /// A receiver on this bus sees what a receiver of the datagram sees:
    /// a path longer than the wire's 255 ids per flow arrives cut, exactly
    /// as `decode(encode(m))` does.
    #[test]
    fn a_path_longer_than_the_wire_arrives_as_the_wire_carries_it() {
        let mut long = MetadataMessage::new();
        long.flows.push(FlowUsage::new(
            Bandwidth::from_mbps(5),
            (0..300).map(|i| i as u16 * 3).collect::<Vec<u16>>(),
        ));
        long.flows
            .push(FlowUsage::new(Bandwidth::from_mbps(1), vec![4, 2]));
        let mut stamped = long.clone();
        stamped.sender = HostId(0);
        stamped.published = SimTime::from_millis(10);
        let wire = MetadataMessage::decode(stamped.encode()).unwrap();
        assert_eq!(wire.flows[0].link_ids.len(), 255);

        let mut bus = DisseminationBus::new(hosts(2), SimDuration::from_millis(5));
        bus.publish(SimTime::from_millis(10), HostId(0), long);
        bus.publish(SimTime::from_millis(20), HostId(0), message(1));
        // Only the first publication is due: delivery pops a prefix.
        let delivered = bus.drain(SimTime::from_millis(15), HostId(1));
        assert_eq!(delivered.len(), 1);
        assert_eq!(*delivered[0].message, wire);
        assert_eq!(
            bus.accounting().received_bytes[&HostId(1)],
            wire.encoded_len() as u64
        );
        let later = bus.drain(SimTime::from_millis(25), HostId(1));
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].published, SimTime::from_millis(20));
    }

    #[test]
    fn trait_object_dispatch_matches_the_inherent_behaviour() {
        let mut bus: Box<dyn Bus> = Box::new(DisseminationBus::new(
            hosts(2),
            SimDuration::from_micros(100),
        ));
        bus.publish(SimTime::ZERO, HostId(0), message(2));
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
                bus.publish(now, HostId(h), message(5));
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
