//! Model of the hierarchical token bucket (`htb`) queueing discipline.
//!
//! Kollaps creates one htb class per destination and sets its rate to the
//! bandwidth currently allocated to flows towards that destination. Two
//! behaviours of the real kernel matter for emulation accuracy and are
//! reproduced here:
//!
//! * shaping is done with a token bucket, so short bursts up to the burst
//!   size pass unshaped and the long-run rate converges to the configured
//!   rate (this is where Table 2's systematic ≈ -5 % offset comes from:
//!   the shaped goodput excludes header overhead);
//! * when the queue is full the kernel does **not** drop packets — TCP Small
//!   Queues back-pressures the sender instead, which is why congestion-based
//!   loss has to be injected explicitly by the emulation manager.

use serde::{Deserialize, Serialize};

use std::collections::VecDeque;

use kollaps_sim::time::{SimDuration, SimTime};
use kollaps_sim::token_bucket::TokenBucket;
use kollaps_sim::units::{Bandwidth, DataSize};

use crate::packet::Packet;

/// Configuration of an htb class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtbConfig {
    /// Guaranteed/shaped rate.
    pub rate: Bandwidth,
    /// Ceiling rate (we keep ceil == rate like the Kollaps TCAL does).
    pub ceil: Bandwidth,
    /// Token bucket burst size.
    pub burst: DataSize,
    /// Maximum queue occupancy in packets before back-pressure kicks in.
    pub queue_limit: usize,
}

impl HtbConfig {
    /// A class shaped to `rate` with kernel-like defaults for burst and
    /// queue length.
    pub fn with_rate(rate: Bandwidth) -> Self {
        // The kernel sizes the burst to at least rate/HZ plus one MTU;
        // a 10 ms worth of data (capped to sane bounds) approximates that.
        let burst_bytes = (rate.as_bps() / 8 / 100).clamp(3_000, 1_000_000);
        // Size the queue so its worst-case drain time stays around 50 ms
        // (BQL-style). A fixed large limit would add hundreds of
        // milliseconds of bufferbloat on slow classes — more than the
        // 200 ms minimum RTO — and collapse TCP with spurious timeouts.
        let queue_limit = if rate == Bandwidth::MAX {
            1_000
        } else {
            (rate.as_bps() as f64 / 8.0 * 0.050 / 1_500.0) as usize
        };
        HtbConfig {
            rate,
            ceil: rate,
            burst: DataSize::from_bytes(burst_bytes),
            queue_limit: queue_limit.clamp(16, 1_000),
        }
    }
}

impl Default for HtbConfig {
    fn default() -> Self {
        HtbConfig::with_rate(Bandwidth::MAX)
    }
}

/// Outcome of offering a packet to an htb class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtbVerdict {
    /// The packet was queued (or is immediately transmittable).
    Queued,
    /// The queue is full: the sender must hold the packet and retry later
    /// (models TCP Small Queues back-pressure; no packet is lost).
    Backpressure,
}

/// An htb class instance shaping traffic towards one destination.
#[derive(Debug)]
pub struct HtbQdisc {
    config: HtbConfig,
    bucket: TokenBucket,
    /// FIFO of (enqueue time, packet).
    queue: VecDeque<(SimTime, Packet)>,
    queued_bytes: DataSize,
    transmitted_bytes: DataSize,
    transmitted_packets: u64,
    /// Virtual clock of the last dequeue: even when the caller polls late,
    /// packets are accounted as leaving at the instant their tokens became
    /// available, so downstream stages (netem) see exact timing.
    dequeue_cursor: SimTime,
}

impl HtbQdisc {
    /// Creates a class with the given configuration.
    pub fn new(config: HtbConfig) -> Self {
        HtbQdisc {
            bucket: TokenBucket::new(config.rate, config.burst),
            config,
            queue: VecDeque::new(),
            queued_bytes: DataSize::ZERO,
            transmitted_bytes: DataSize::ZERO,
            transmitted_packets: 0,
            dequeue_cursor: SimTime::ZERO,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &HtbConfig {
        &self.config
    }

    /// Changes the shaped rate at runtime (what the TCAL does on every
    /// emulation-loop iteration). Only `rate` and `ceil` change: the burst
    /// and queue limit keep the size [`HtbConfig::with_rate`] gave them for
    /// the rate the class was created at.
    pub fn set_rate(&mut self, now: SimTime, rate: Bandwidth) {
        self.config.rate = rate;
        self.config.ceil = rate;
        self.bucket.set_rate(now, rate);
        // The bucket's token state is now normalized at `now`; dequeues must
        // not be backdated before it, or ready-time prediction and token
        // consumption would disagree and stall the queue.
        self.dequeue_cursor = self.dequeue_cursor.max(now);
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes currently queued.
    pub fn queued_bytes(&self) -> DataSize {
        self.queued_bytes
    }

    /// Total bytes dequeued (transmitted) so far — the per-destination usage
    /// counter the Kollaps emulation loop reads back.
    pub fn transmitted_bytes(&self) -> DataSize {
        self.transmitted_bytes
    }

    /// Total packets dequeued so far.
    pub fn transmitted_packets(&self) -> u64 {
        self.transmitted_packets
    }

    /// `true` when another packet would exceed the queue limit.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.queue_limit
    }

    /// Offers a packet to the class at time `now`.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> HtbVerdict {
        if self.is_full() {
            return HtbVerdict::Backpressure;
        }
        self.queued_bytes += packet.size;
        self.queue.push_back((now, packet));
        HtbVerdict::Queued
    }

    /// The earliest time at which the head-of-line packet can be dequeued,
    /// or `None` when the queue is empty. The returned instant may lie
    /// before `now` when the caller polls late; it is the exact token-
    /// availability time of the head packet.
    pub fn next_ready(&mut self, _now: SimTime) -> Option<SimTime> {
        let &(enqueued_at, ref head) = self.queue.front()?;
        let at = self.dequeue_cursor.max(enqueued_at);
        let wait = self.bucket.time_until_available(at, head.size);
        if wait == SimDuration::MAX {
            Some(SimTime::MAX)
        } else {
            Some(at + wait)
        }
    }

    /// Dequeues the head packet if its tokens are available by `now`,
    /// tagged with the exact instant they became available — the moment
    /// the packet left the shaper. Called until it returns `None`, it emits
    /// at most one burst worth of data immediately; later packets are paced
    /// by the token refill rate, exactly like the kernel qdisc, even when
    /// the caller polls less often than the packet rate.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, Packet)> {
        let &(enqueued_at, ref head) = self.queue.front()?;
        let head_size = head.size;
        let at = self.dequeue_cursor.max(enqueued_at);
        let wait = self.bucket.time_until_available(at, head_size);
        if wait == SimDuration::MAX {
            return None;
        }
        let ready = at + wait;
        if ready > now || !self.bucket.try_consume(ready, head_size) {
            return None;
        }
        self.dequeue_cursor = ready;
        let (_, pkt) = self.queue.pop_front()?;
        self.queued_bytes = self.queued_bytes.saturating_sub(pkt.size);
        self.transmitted_bytes += pkt.size;
        self.transmitted_packets += 1;
        Some((ready, pkt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, FlowId, PacketKind, MTU};

    /// Every packet `pop_ready` hands out by `now`.
    fn drain(q: &mut HtbQdisc, now: SimTime) -> Vec<Packet> {
        std::iter::from_fn(|| q.pop_ready(now))
            .map(|(_, p)| p)
            .collect()
    }

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
    fn unlimited_class_is_immediate() {
        let mut q = HtbQdisc::new(HtbConfig::default());
        q.enqueue(SimTime::ZERO, pkt(1));
        q.enqueue(SimTime::ZERO, pkt(2));
        assert_eq!(drain(&mut q, SimTime::ZERO).len(), 2);
        assert_eq!(q.transmitted_packets(), 2);
    }

    #[test]
    fn shaped_rate_is_respected_over_time() {
        // 10 Mb/s = 1.25 MB/s. Enqueue 2 MB worth of MTU packets and count
        // how many bytes exit in the first second.
        let rate = Bandwidth::from_mbps(10);
        let mut q = HtbQdisc::new(HtbConfig {
            queue_limit: 10_000,
            ..HtbConfig::with_rate(rate)
        });
        let n_packets = 2_000_000 / MTU.as_bytes();
        for i in 0..n_packets {
            assert_eq!(q.enqueue(SimTime::ZERO, pkt(i)), HtbVerdict::Queued);
        }
        let mut sent = DataSize::ZERO;
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(1);
        loop {
            for p in drain(&mut q, now) {
                sent += p.size;
            }
            match q.next_ready(now) {
                Some(t) if t <= end => now = t,
                _ => break,
            }
        }
        let mbps = sent.rate_over(SimDuration::from_secs(1)).as_mbps();
        // Within the burst allowance of the target rate.
        assert!((9.5..=11.0).contains(&mbps), "observed {mbps} Mb/s");
    }

    #[test]
    fn backpressure_instead_of_drop() {
        let mut q = HtbQdisc::new(HtbConfig {
            queue_limit: 2,
            ..HtbConfig::with_rate(Bandwidth::from_kbps(64))
        });
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(1)), HtbVerdict::Queued);
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(2)), HtbVerdict::Queued);
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(3)), HtbVerdict::Backpressure);
        // Nothing was lost: two packets remain queued.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn rate_change_applies_to_queued_packets() {
        let mut q = HtbQdisc::new(HtbConfig::with_rate(Bandwidth::from_kbps(8)));
        for i in 0..100 {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        // Drain the initial burst allowance so the slow rate is the limiter.
        let drained = drain(&mut q, SimTime::ZERO).len();
        assert!(drained < 100);
        let slow_next = q.next_ready(SimTime::ZERO).unwrap();
        // At 8 Kb/s the next MTU packet needs ~1.5 s worth of tokens.
        assert!(slow_next > SimTime::from_millis(500));
        // Bump to 100 Mb/s: packets become ready almost immediately.
        q.set_rate(SimTime::ZERO, Bandwidth::from_mbps(100));
        let fast_next = q.next_ready(SimTime::ZERO).unwrap();
        assert!(fast_next < slow_next);
    }

    #[test]
    fn set_rate_keeps_the_creation_burst_and_queue_limit() {
        let created = HtbConfig::with_rate(Bandwidth::from_mbps(10));
        let mut q = HtbQdisc::new(created);
        q.set_rate(SimTime::ZERO, Bandwidth::from_mbps(50));
        q.set_rate(SimTime::from_secs(1), Bandwidth::from_mbps(5));
        assert_eq!(
            *q.config(),
            HtbConfig {
                rate: Bandwidth::from_mbps(5),
                ceil: Bandwidth::from_mbps(5),
                ..created
            }
        );
        assert_ne!(
            q.config().burst,
            HtbConfig::with_rate(Bandwidth::from_mbps(5)).burst
        );
    }

    #[test]
    fn usage_counters_accumulate() {
        let mut q = HtbQdisc::new(HtbConfig::default());
        for i in 0..10 {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        let _ = drain(&mut q, SimTime::ZERO);
        assert_eq!(q.transmitted_bytes().as_bytes(), 10 * MTU.as_bytes());
        assert_eq!(q.queued_bytes(), DataSize::ZERO);
    }

    #[test]
    fn zero_rate_class_never_dequeues() {
        let mut q = HtbQdisc::new(HtbConfig::with_rate(Bandwidth::ZERO));
        // Burst tokens start full (3000 bytes = two MTU packets); exhaust
        // them and check that further packets stall forever.
        for i in 0..3 {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        assert_eq!(drain(&mut q, SimTime::ZERO).len(), 2);
        assert_eq!(q.next_ready(SimTime::from_secs(100)), Some(SimTime::MAX));
        assert!(drain(&mut q, SimTime::from_secs(1_000)).is_empty());
    }
}
