//! A physical link with serialization, propagation and a finite queue.
//!
//! [`LinkPipe`] is the hop primitive used by the *full-state* emulations:
//! the ground-truth ("bare-metal") network, the Mininet-like and the
//! Maxinet-like baselines simulate every link and switch port of the target
//! topology with one of these. Unlike the htb model, a full queue here
//! *drops* packets like a real switch buffer would.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use kollaps_sim::time::{SimDuration, SimTime};
use kollaps_sim::units::{Bandwidth, DataSize};

use crate::packet::{DropReason, Packet};

/// Static properties of a physical (or emulated-in-full) link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Link capacity.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Random loss probability in `[0, 1]` applied per packet.
    pub loss: f64,
    /// Buffer size in bytes at the transmitting end (drop-tail).
    pub buffer: DataSize,
    /// Upper bound of the per-packet forwarding jitter (see
    /// `FORWARDING_JITTER_NANOS`); zero makes the pipe perfectly periodic,
    /// which only exact-timing tests want.
    pub forwarding_jitter: SimDuration,
}

impl LinkConfig {
    /// A link with the given bandwidth and latency, no loss, and a buffer
    /// sized by the round-trip bandwidth-delay product (at least 64 KiB),
    /// the classic switch buffer sizing rule — a shallower buffer makes
    /// every congestion event a multi-segment burst loss, which TCP without
    /// SACK recovers from one segment per RTT.
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        let bdp = bandwidth.data_in(latency * 2).as_bytes();
        LinkConfig {
            bandwidth,
            latency,
            loss: 0.0,
            buffer: DataSize::from_bytes(bdp.max(64 * 1024)),
            forwarding_jitter: SimDuration::from_nanos(FORWARDING_JITTER_NANOS),
        }
    }

    /// Disables the per-packet forwarding jitter (exact-timing tests).
    pub fn without_jitter(mut self) -> Self {
        self.forwarding_jitter = SimDuration::ZERO;
        self
    }
}

/// A packet that has been accepted by the transmitter.
///
/// `arrival` is when it reaches the far end.
#[derive(Debug, Clone)]
struct InFlight {
    arrival: SimTime,
    packet: Packet,
}

/// One direction of a physical link.
///
/// The link is work-conserving: serialization of the next packet starts as
/// soon as the transmitter is free, and the departure/arrival schedule is
/// computed analytically at enqueue time.
#[derive(Debug)]
pub struct LinkPipe {
    config: LinkConfig,
    /// Bytes whose serialization has not finished yet (buffer occupancy).
    queued_bytes: DataSize,
    /// Serialization-completion times and sizes of buffered packets, in
    /// FIFO order (completion times are monotone).
    serializing: VecDeque<(SimTime, DataSize)>,
    /// Time the transmitter becomes free.
    busy_until: SimTime,
    /// Accepted packets in serialization order.
    in_flight: VecDeque<InFlight>,
    /// Arrival time of the most recently accepted packet (store-and-forward
    /// FIFO: arrivals are monotone even under per-packet jitter).
    last_arrival: SimTime,
    delivered_bytes: DataSize,
    delivered_packets: u64,
    dropped_overflow: u64,
    drop_seed: u64,
}

/// Bound on the per-packet forwarding jitter (50 µs). Real links are not
/// perfectly periodic — NIC interrupt coalescing, switch scheduling and
/// clock drift shift every forwarding by a few microseconds. A perfectly
/// deterministic pipe lets competing ACK-clocked flows phase-lock (one
/// flow's arrivals landing exactly one slot behind its own departures keeps
/// a drop-tail buffer pegged at exactly full and starves everyone else
/// indefinitely); this jitter restores the decorrelation real hardware has.
const FORWARDING_JITTER_NANOS: u64 = 50_000;

impl LinkPipe {
    /// Creates a link pipe with the given configuration.
    pub fn new(config: LinkConfig) -> Self {
        LinkPipe::with_seed(config, 0)
    }

    /// Creates a link pipe whose loss/jitter stream is derived from `seed`.
    /// Topologies should pass a distinct per-link value (e.g. the link id):
    /// identically-seeded links produce identical jitter sequences, which
    /// preserves exactly the cross-flow phase alignment the jitter exists to
    /// break.
    pub fn with_seed(config: LinkConfig, seed: u64) -> Self {
        LinkPipe {
            config,
            queued_bytes: DataSize::ZERO,
            serializing: VecDeque::new(),
            busy_until: SimTime::ZERO,
            in_flight: VecDeque::new(),
            last_arrival: SimTime::ZERO,
            delivered_bytes: DataSize::ZERO,
            delivered_packets: 0,
            dropped_overflow: 0,
            drop_seed: 0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xA076_1D64_78BD_642F),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replaces the link properties (dynamic topology events).
    pub fn set_config(&mut self, config: LinkConfig) {
        self.config = config;
    }

    /// Bytes sitting in the transmit queue.
    pub fn queued_bytes(&self) -> DataSize {
        self.queued_bytes
    }

    /// Packets dropped due to buffer overflow so far.
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// Total bytes delivered to the far end so far.
    pub fn delivered_bytes(&self) -> DataSize {
        self.delivered_bytes
    }

    /// Total packets delivered to the far end so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Offers a packet to the link at `now`. Returns the drop reason if the
    /// packet was discarded (buffer overflow or random loss).
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> Option<DropReason> {
        self.expire_buffer(now);
        if self.config.loss > 0.0 && self.random_drop() {
            return Some(DropReason::NetemLoss);
        }
        if self.queued_bytes + packet.size > self.config.buffer {
            self.dropped_overflow += 1;
            return Some(DropReason::QueueOverflow);
        }
        let ser = self.config.bandwidth.transmission_delay(packet.size);
        if ser == SimDuration::MAX {
            // A zero-bandwidth link never delivers; treat as overflow.
            self.dropped_overflow += 1;
            return Some(DropReason::QueueOverflow);
        }
        self.queued_bytes += packet.size;
        let start = self.busy_until.max(now);
        let finish = start + ser;
        self.busy_until = finish;
        self.serializing.push_back((finish, packet.size));
        let jitter = SimDuration::from_nanos(self.next_jitter());
        let arrival = (finish + self.config.latency + jitter).max(self.last_arrival);
        self.last_arrival = arrival;
        self.in_flight.push_back(InFlight { arrival, packet });
        None
    }

    /// The next instant a packet arrives at the far end of this link.
    pub fn next_wakeup(&mut self, _now: SimTime) -> Option<SimTime> {
        self.in_flight.front().map(|f| f.arrival)
    }

    /// Returns every packet that has arrived at the far end by `now`.
    ///
    /// Delivery is FIFO: packets leave in serialization order even if a
    /// dynamic latency decrease would let a later packet "overtake" an
    /// earlier one, which is what a real store-and-forward queue does.
    pub fn deliver_ready(&mut self, now: SimTime) -> Vec<Packet> {
        self.expire_buffer(now);
        let mut out = Vec::new();
        while let Some(front) = self.in_flight.front() {
            if front.arrival > now {
                break;
            }
            let Some(f) = self.in_flight.pop_front() else {
                break;
            };
            self.delivered_bytes += f.packet.size;
            self.delivered_packets += 1;
            out.push(f.packet);
        }
        out
    }

    /// Releases the buffer share of packets whose serialization finished.
    fn expire_buffer(&mut self, now: SimTime) {
        while let Some(&(finish, size)) = self.serializing.front() {
            if finish > now {
                break;
            }
            self.serializing.pop_front();
            self.queued_bytes = self.queued_bytes.saturating_sub(size);
        }
    }

    /// Deterministic pseudo-random loss decision (xorshift on an internal
    /// seed), kept local so the link does not need an RNG handle.
    fn random_drop(&mut self) -> bool {
        let u = (self.next_raw() >> 11) as f64 / (1u64 << 53) as f64;
        u < self.config.loss
    }

    /// Deterministic per-packet forwarding jitter in nanoseconds.
    fn next_jitter(&mut self) -> u64 {
        let cap = self.config.forwarding_jitter.as_nanos();
        if cap == 0 {
            return 0;
        }
        self.next_raw() % cap
    }

    fn next_raw(&mut self) -> u64 {
        self.drop_seed ^= self.drop_seed << 13;
        self.drop_seed ^= self.drop_seed >> 7;
        self.drop_seed ^= self.drop_seed << 17;
        self.drop_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, FlowId, PacketKind, MTU};

    fn pkt(id: u64) -> Packet {
        Packet::new(
            id,
            FlowId(1),
            Addr::container(0),
            Addr::container(1),
            MTU,
            PacketKind::Udp,
            SimTime::ZERO,
        )
    }

    #[test]
    fn delivery_includes_serialization_and_propagation() {
        // 1500 bytes at 100 Mb/s = 120 us serialization, plus 10 ms latency.
        let mut l = LinkPipe::new(
            LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::from_millis(10))
                .without_jitter(),
        );
        assert!(l.enqueue(SimTime::ZERO, pkt(1)).is_none());
        let expected = SimTime::from_micros(120) + SimDuration::from_millis(10);
        assert_eq!(l.next_wakeup(SimTime::ZERO), Some(expected));
        assert!(l
            .deliver_ready(expected - SimDuration::from_nanos(1))
            .is_empty());
        assert_eq!(l.deliver_ready(expected).len(), 1);
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut l = LinkPipe::new(
            LinkConfig::new(Bandwidth::from_mbps(12), SimDuration::ZERO).without_jitter(),
        );
        // 1500 B at 12 Mb/s = 1 ms per packet.
        for i in 0..3 {
            l.enqueue(SimTime::ZERO, pkt(i));
        }
        assert_eq!(l.deliver_ready(SimTime::from_millis(1)).len(), 1);
        assert_eq!(l.deliver_ready(SimTime::from_millis(2)).len(), 1);
        assert_eq!(l.deliver_ready(SimTime::from_millis(3)).len(), 1);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut cfg = LinkConfig::new(Bandwidth::from_kbps(64), SimDuration::from_millis(1));
        cfg.buffer = DataSize::from_bytes(3 * MTU.as_bytes());
        let mut l = LinkPipe::new(cfg);
        let mut drops = 0;
        for i in 0..10 {
            if l.enqueue(SimTime::ZERO, pkt(i)) == Some(DropReason::QueueOverflow) {
                drops += 1;
            }
        }
        assert!(drops > 0);
        assert_eq!(l.dropped_overflow(), drops);
    }

    #[test]
    fn random_loss_drops_roughly_at_rate() {
        let mut cfg = LinkConfig::new(Bandwidth::from_gbps(10), SimDuration::ZERO);
        cfg.loss = 0.2;
        let mut l = LinkPipe::new(cfg);
        let n = 10_000;
        let mut dropped = 0;
        for i in 0..n {
            // Drain deliveries as we go so only random loss (never buffer
            // overflow) can drop packets.
            let now = SimTime::from_micros(i * 5);
            let _ = l.deliver_ready(now);
            match l.enqueue(now, pkt(i)) {
                Some(DropReason::NetemLoss) => dropped += 1,
                Some(other) => panic!("unexpected drop reason {other:?}"),
                None => {}
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn throughput_matches_capacity() {
        // Saturate a 10 Mb/s link for one second and count delivered bytes.
        let mut l = LinkPipe::new(LinkConfig::new(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(5),
        ));
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(1);
        let mut delivered = DataSize::ZERO;
        let mut id = 0;
        while now < end {
            // Keep the queue topped up.
            while l.queued_bytes() < DataSize::from_bytes(10 * MTU.as_bytes()) {
                l.enqueue(now, pkt(id));
                id += 1;
            }
            for p in l.deliver_ready(now) {
                delivered += p.size;
            }
            now = l.next_wakeup(now).unwrap_or(end).min(end);
        }
        for p in l.deliver_ready(end) {
            delivered += p.size;
        }
        let mbps = delivered.rate_over(SimDuration::from_secs(1)).as_mbps();
        assert!((9.0..=10.5).contains(&mbps), "delivered {mbps} Mb/s");
    }

    #[test]
    fn config_update_changes_future_packets() {
        let mut l = LinkPipe::new(LinkConfig::new(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(50),
        ));
        l.enqueue(SimTime::ZERO, pkt(1));
        let first = l.next_wakeup(SimTime::ZERO).unwrap();
        // Halving the latency for subsequent packets.
        l.set_config(LinkConfig::new(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(25),
        ));
        let _ = l.deliver_ready(first);
        l.enqueue(first, pkt(2));
        let second = l.next_wakeup(first).unwrap();
        assert!(second - first < SimDuration::from_millis(26));
    }

    #[test]
    fn counters_track_delivery() {
        let mut l = LinkPipe::new(LinkConfig::new(Bandwidth::from_gbps(1), SimDuration::ZERO));
        for i in 0..5 {
            l.enqueue(SimTime::ZERO, pkt(i));
        }
        let _ = l.deliver_ready(SimTime::from_secs(1));
        assert_eq!(l.delivered_packets(), 5);
        assert_eq!(l.delivered_bytes().as_bytes(), 5 * MTU.as_bytes());
    }
}
