//! Packets, addresses and flow identifiers.

use std::fmt;

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimTime;
use kollaps_sim::units::DataSize;

/// An IPv4-style address identifying a container's interface on an emulated
/// network.
///
/// Kollaps' u32 filter is a two-level table on the third and fourth octets
/// of the destination address. On the 10.1.0.0/16 container network that
/// is the container index (third octet × 256 + fourth octet,
/// [`Addr::container_index`]), and the egress tree indexes its chains by
/// it. Addresses keep the dotted-quad structure even though the simulation
/// never sends real IP packets.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Addr(u32);

impl Addr {
    /// Builds an address from its four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Builds an address from a raw 32-bit value.
    pub const fn from_u32(raw: u32) -> Self {
        Addr(raw)
    }

    /// The raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Number of addresses in the 10.1.0.0/16 container network.
    pub const CONTAINERS: u32 = 1 << 16;

    /// The first container address, 10.1.0.0.
    const CONTAINER_BASE: Addr = Addr::new(10, 1, 0, 0);

    /// Allocates the `index`-th address of the 10.1.0.0/16 container
    /// network: the `index`-th service in service-id order owns it.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the /16 ([`Addr::CONTAINERS`]
    /// addresses).
    pub fn container(index: u32) -> Self {
        assert!(
            index < Addr::CONTAINERS,
            "container index out of /16 range: {index}"
        );
        Addr(Addr::CONTAINER_BASE.0 + index)
    }

    /// The inverse of [`Addr::container`]: the index of this address in the
    /// container network, or `None` outside 10.1.0.0/16.
    pub const fn container_index(self) -> Option<u32> {
        let offset = self.0.wrapping_sub(Addr::CONTAINER_BASE.0);
        if offset < Addr::CONTAINERS {
            Some(offset)
        } else {
            None
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Identifier of a transport-level flow (a 5-tuple in the real world).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Where this flow sits in a table indexed by flow: the runtime numbers
    /// flows densely from 1, so flow `id` is at `id − 1`. `None` for id 0.
    pub fn index(self) -> Option<usize> {
        usize::try_from(self.0.checked_sub(1)?).ok()
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// What a packet carries, as far as the emulation needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketKind {
    /// TCP data segment carrying `seq` as the first byte's sequence number.
    TcpData {
        /// Sequence number of the first payload byte.
        seq: u64,
    },
    /// TCP acknowledgement carrying the cumulative ack number.
    TcpAck {
        /// Next expected sequence number.
        ack: u64,
        /// Number of duplicate-ack repetitions observed by the receiver
        /// model (used for fast retransmit).
        dup: u8,
    },
    /// TCP connection setup (SYN / SYN-ACK collapsed into one round trip).
    TcpHandshake,
    /// TCP connection teardown.
    TcpFin,
    /// UDP datagram.
    Udp,
    /// ICMP echo request (ping).
    IcmpEchoRequest {
        /// Echo sequence number.
        seq: u32,
    },
    /// ICMP echo reply.
    IcmpEchoReply {
        /// Echo sequence number being answered.
        seq: u32,
    },
}

/// Why a packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Random loss configured on a netem qdisc or an emulated link.
    NetemLoss,
    /// Congestion loss injected by the Kollaps emulation manager when the
    /// demanded bandwidth exceeds the collapsed-link capacity.
    CongestionInjected,
    /// A finite switch/router queue overflowed (full-state baselines).
    QueueOverflow,
    /// The destination is unreachable in the current topology snapshot.
    Unreachable,
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Globally unique packet id (monotonically assigned by the engine).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Source container address.
    pub src: Addr,
    /// Destination container address.
    pub dst: Addr,
    /// Wire size including headers.
    pub size: DataSize,
    /// Transport-level content.
    pub kind: PacketKind,
    /// When the sending application handed the packet to the stack.
    pub sent_at: SimTime,
}

impl Packet {
    /// Creates a packet; `sent_at` is stamped by the caller (usually the
    /// transport layer at the moment of the send call).
    pub fn new(
        id: u64,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        size: DataSize,
        kind: PacketKind,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            size,
            kind,
            sent_at,
        }
    }

    /// `true` for packets that carry application payload (TCP data or UDP).
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::TcpData { .. } | PacketKind::Udp)
    }

    /// `true` for pure control packets (acks, handshakes, ICMP).
    pub fn is_control(&self) -> bool {
        !self.is_data()
    }
}

/// Standard Ethernet-ish MTU used by the transport models.
pub const MTU: DataSize = DataSize::from_bytes(1_500);
/// TCP/IP header overhead assumed per segment.
pub const HEADER_SIZE: DataSize = DataSize::from_bytes(40);
/// Maximum segment payload = MTU minus headers.
pub const MSS: DataSize = DataSize::from_bytes(1_460);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_octets_round_trip() {
        let a = Addr::new(10, 1, 3, 7);
        assert_eq!(a.octets(), [10, 1, 3, 7]);
        assert_eq!(a.container_index(), Some(3 * 256 + 7));
        assert_eq!(format!("{a}"), "10.1.3.7");
        assert_eq!(Addr::from_u32(a.as_u32()), a);
    }

    #[test]
    fn container_addressing_spans_the_slash16() {
        assert_eq!(Addr::container(0), Addr::new(10, 1, 0, 0));
        assert_eq!(Addr::container(255), Addr::new(10, 1, 0, 255));
        assert_eq!(Addr::container(256), Addr::new(10, 1, 1, 0));
        assert_eq!(Addr::container(65_535), Addr::new(10, 1, 255, 255));
        for index in [0, 255, 256, 65_535] {
            assert_eq!(Addr::container(index).container_index(), Some(index));
        }
        assert_eq!(Addr::new(10, 0, 255, 255).container_index(), None);
        assert_eq!(Addr::new(10, 2, 0, 0).container_index(), None);
    }

    #[test]
    #[should_panic]
    fn container_addressing_rejects_overflow() {
        let _ = Addr::container(65_536);
    }

    #[test]
    fn addresses_are_unique_per_index() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4_096 {
            assert!(seen.insert(Addr::container(i)));
        }
    }

    #[test]
    fn packet_classification() {
        let data = Packet::new(
            1,
            FlowId(9),
            Addr::container(0),
            Addr::container(1),
            MTU,
            PacketKind::TcpData { seq: 0 },
            SimTime::ZERO,
        );
        assert!(data.is_data());
        assert!(!data.is_control());
        let ack = Packet {
            kind: PacketKind::TcpAck { ack: 1460, dup: 0 },
            size: HEADER_SIZE,
            ..data.clone()
        };
        assert!(ack.is_control());
        let ping = Packet {
            kind: PacketKind::IcmpEchoRequest { seq: 1 },
            ..data
        };
        assert!(ping.is_control());
    }

    #[test]
    fn mtu_mss_consistency() {
        assert_eq!(MSS.as_bytes() + HEADER_SIZE.as_bytes(), MTU.as_bytes());
    }
}
