//! The socket-backed dissemination bus: metadata over real UDP datagrams.
//!
//! Every agent runs the **full deterministic session replica** — all
//! Emulation Managers — but only the manager of its assigned host is
//! *authoritative*. The `SocketBus` splits the two roles:
//!
//! * **publish** always feeds the wrapped in-process [`DisseminationBus`]
//!   (the *shadow* managers for remote hosts consume it, keeping every
//!   replica byte-identical), and — for the authoritative host only —
//!   additionally encodes the message with [`MetadataMessage::encode_framed`]
//!   and sends one real datagram per peer;
//! * **synchronize** is the distributed lockstep barrier: it blocks until
//!   every peer's datagram for the current loop iteration has arrived
//!   (identified by the publish timestamp in the wire header), so replicas
//!   never drift by more than one tick;
//! * **drain** for the authoritative host discards the modeled copy and
//!   releases the *real* deliveries instead, on the same modeled schedule
//!   (`published + metadata_delay`) and in the same order — at zero
//!   injected loss the authoritative manager therefore absorbs exactly the
//!   bytes the modeled bus would have delivered, just sourced from the
//!   wire. Shadow hosts drain the modeled bus untouched.
//!
//! Accounting only tracks the authoritative host's row, from **real socket
//! byte counts** (framed datagram sizes). The scenario report reads absent
//! rows as zero, so each agent's partial report carries its own real
//! traffic and the coordinator sums the rows.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kollaps_metadata::bus::{Bus, Delivery, DisseminationBus, HostId, TrafficAccounting};
use kollaps_metadata::codec::MetadataMessage;
use kollaps_sim::time::{SimDuration, SimTime};

/// How long each blocking `recv_from` waits before re-checking the barrier
/// condition and the wall-clock timeout.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Wall-clock counters the bus updates while the session runs, shared with
/// the owning agent through an [`Arc`] so they can be reported after the
/// session is consumed.
#[derive(Debug, Default)]
pub struct SocketBusStats {
    /// Total wall-clock microseconds spent blocked in the per-tick barrier.
    pub barrier_wait_micros: AtomicU64,
    /// Barrier rounds completed (one per emulation-loop iteration).
    pub barriers: AtomicU64,
    /// Datagrams dropped by the injected-loss knob.
    pub lost_datagrams: AtomicU64,
    /// Barrier rounds that gave up on the wall-clock timeout.
    pub barrier_timeouts: AtomicU64,
}

/// A [`Bus`] implementation that carries the authoritative host's metadata
/// over a real [`UdpSocket`] while shadow hosts replay the modeled bus.
pub struct SocketBus {
    /// The modeled replica bus every shadow manager drains.
    inner: DisseminationBus,
    /// The host this agent is authoritative for.
    me: HostId,
    socket: UdpSocket,
    peers: HashMap<HostId, SocketAddr>,
    /// The modeled one-way metadata delay, mirrored onto real deliveries.
    network_delay: SimDuration,
    /// Latest publish timestamp received from each peer (barrier state).
    latest: HashMap<HostId, SimTime>,
    /// Real deliveries waiting for their modeled delivery time.
    pending: Vec<Delivery>,
    /// Real traffic of the authoritative host only.
    accounting: TrafficAccounting,
    /// Probability of dropping an incoming datagram (emulated lossy
    /// physical network). Deterministic per seed.
    loss_probability: f64,
    rng: u64,
    barrier_timeout: Duration,
    stats: Arc<SocketBusStats>,
}

impl SocketBus {
    /// Creates the bus. `peers` maps every *other* host to its UDP address;
    /// `network_delay` must equal the scenario's metadata delay so real
    /// deliveries follow the modeled schedule.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        hosts: Vec<HostId>,
        me: HostId,
        socket: UdpSocket,
        peers: HashMap<HostId, SocketAddr>,
        network_delay: SimDuration,
        loss_probability: f64,
        barrier_timeout: Duration,
        stats: Arc<SocketBusStats>,
    ) -> std::io::Result<Self> {
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(SocketBus {
            inner: DisseminationBus::new(hosts, network_delay),
            me,
            socket,
            peers,
            network_delay,
            latest: HashMap::new(),
            pending: Vec::new(),
            accounting: TrafficAccounting::default(),
            loss_probability,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((me.0 as u64) << 17),
            barrier_timeout,
            stats,
        })
    }

    /// Deterministic xorshift roll in `[0, 1)` for the loss knob.
    fn roll(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` when every peer's datagram for iteration `now` has arrived.
    fn peers_caught_up(&self, now: SimTime) -> bool {
        self.peers
            .keys()
            .all(|h| self.latest.get(h).is_some_and(|&t| t >= now))
    }

    /// Handles one received datagram: barrier bookkeeping, accounting, and
    /// (unless the loss roll drops it) buffering for [`Bus::drain`].
    fn ingest(&mut self, frame: &[u8]) {
        let Ok(message) = MetadataMessage::decode_framed(frame) else {
            // Truncated or mismatched frames are dropped silently, exactly
            // like a corrupted datagram on a real network.
            return;
        };
        let from = message.sender;
        if from == self.me || !self.peers.contains_key(&from) {
            return;
        }
        // Barrier bookkeeping happens *before* the loss roll: the barrier
        // is runtime synchronization, not part of the emulated network, so
        // an (emulated-)lost datagram still proves its sender reached this
        // tick.
        let latest = self.latest.entry(from).or_insert(SimTime::ZERO);
        if message.published > *latest {
            *latest = message.published;
        }
        if self.loss_probability > 0.0 && self.roll() < self.loss_probability {
            self.stats.lost_datagrams.fetch_add(1, Ordering::Relaxed);
            return;
        }
        *self.accounting.received_bytes.entry(self.me).or_default() += frame.len() as u64;
        self.pending.push(Delivery {
            from,
            published: message.published,
            message: Arc::new(message),
        });
    }
}

impl Bus for SocketBus {
    fn hosts(&self) -> &[HostId] {
        self.inner.hosts()
    }

    fn publish(&mut self, now: SimTime, from: HostId, mut message: MetadataMessage) {
        if from == self.me {
            // The authoritative host's usage additionally rides the wire.
            message.sender = from;
            message.published = now;
            let frame = message.encode_framed();
            for (&host, &addr) in &self.peers {
                if host == from {
                    continue;
                }
                if self.socket.send_to(&frame, addr).is_ok() {
                    *self.accounting.sent_bytes.entry(from).or_default() += frame.len() as u64;
                    self.accounting.remote_messages += 1;
                }
            }
        }
        // Every publication feeds the modeled replica bus so shadow
        // managers evolve deterministically on all agents.
        self.inner.publish(now, from, message);
    }

    fn synchronize(&mut self, now: SimTime) {
        self.inner.synchronize(now);
        let start = Instant::now();
        let mut buf = [0u8; 65_535];
        let mut timed_out = false;
        while !self.peers_caught_up(now) {
            if start.elapsed() > self.barrier_timeout {
                // Give up instead of deadlocking on a dead peer. The shadow
                // state still advances, so the replica keeps running; only
                // the authoritative manager's view goes (detectably) stale.
                timed_out = true;
                break;
            }
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let frame = buf[..len].to_vec();
                    self.ingest(&frame);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    timed_out = true;
                    break;
                }
            }
        }
        self.stats
            .barrier_wait_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.stats.barriers.fetch_add(1, Ordering::Relaxed);
        if timed_out {
            self.stats.barrier_timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&mut self, now: SimTime, host: HostId) -> Vec<Delivery> {
        if host != self.me {
            // Shadow managers consume the modeled bus untouched.
            return self.inner.drain(now, host);
        }
        // The authoritative manager consumes real datagrams; the modeled
        // copy of its mailbox is discarded so nothing is double-delivered.
        let _ = self.inner.drain(now, host);
        let mut due = Vec::new();
        let mut later = Vec::new();
        for delivery in self.pending.drain(..) {
            if delivery.published + self.network_delay <= now {
                due.push(delivery);
            } else {
                later.push(delivery);
            }
        }
        self.pending = later;
        // Match the modeled bus's delivery order: publish time, then host
        // order (the order managers publish within one iteration).
        due.sort_by_key(|d| (d.published, d.from));
        due
    }

    fn accounting(&self) -> &TrafficAccounting {
        &self.accounting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn pair() -> (
        SocketBus,
        SocketBus,
        Arc<SocketBusStats>,
        Arc<SocketBusStats>,
    ) {
        let sock_a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sock_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr_a = sock_a.local_addr().unwrap();
        let addr_b = sock_b.local_addr().unwrap();
        let stats_a = Arc::new(SocketBusStats::default());
        let stats_b = Arc::new(SocketBusStats::default());
        let bus_a = SocketBus::new(
            hosts(2),
            HostId(0),
            sock_a,
            HashMap::from([(HostId(1), addr_b)]),
            SimDuration::ZERO,
            0.0,
            Duration::from_secs(5),
            Arc::clone(&stats_a),
        )
        .unwrap();
        let bus_b = SocketBus::new(
            hosts(2),
            HostId(1),
            sock_b,
            HashMap::from([(HostId(0), addr_a)]),
            SimDuration::ZERO,
            0.0,
            Duration::from_secs(5),
            Arc::clone(&stats_b),
        )
        .unwrap();
        (bus_a, bus_b, stats_a, stats_b)
    }

    fn message(flows: usize) -> MetadataMessage {
        let mut m = MetadataMessage::new();
        for i in 0..flows {
            m.flows.push(kollaps_metadata::codec::FlowUsage::new(
                kollaps_sim::units::Bandwidth::from_mbps(10),
                vec![i as u16],
            ));
        }
        m
    }

    #[test]
    fn datagrams_cross_the_loopback_and_mirror_the_modeled_schedule() {
        let (mut a, mut b, _, stats_b) = pair();
        let t1 = SimTime::from_millis(50);
        // Both replicas publish both hosts' messages (replica lockstep);
        // only the authoritative one goes on the wire.
        a.publish(t1, HostId(0), message(3));
        a.publish(t1, HostId(1), message(1));
        b.publish(t1, HostId(0), message(3));
        b.publish(t1, HostId(1), message(1));
        a.synchronize(t1);
        b.synchronize(t1);
        // B's authoritative manager (host 1) drains the real datagram A's
        // authoritative manager sent.
        let real = b.drain(t1, HostId(1));
        assert_eq!(real.len(), 1);
        assert_eq!(real[0].from, HostId(0));
        assert_eq!(real[0].published, t1);
        assert_eq!(real[0].message.flows.len(), 3);
        // B's shadow manager for host 0 drains host 1's modeled copy.
        let shadow = b.drain(t1, HostId(0));
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].from, HostId(1));
        assert_eq!(shadow[0].message.flows.len(), 1);
        assert_eq!(stats_b.barriers.load(Ordering::Relaxed), 1);
        // Real accounting counts framed datagram bytes, on B's row only.
        let framed = message(3).encode_framed().len() as u64;
        assert_eq!(
            b.accounting().received_bytes.get(&HostId(1)).copied(),
            Some(framed)
        );
        assert_eq!(
            a.accounting().sent_bytes.get(&HostId(0)).copied(),
            Some(framed)
        );
    }

    #[test]
    fn the_barrier_tolerates_reordered_and_early_datagrams() {
        let (mut a, mut b, _, _) = pair();
        let t1 = SimTime::from_millis(50);
        let t2 = SimTime::from_millis(100);
        // A publishes both ticks before B synchronizes the first: B must
        // satisfy its t1 barrier from the t2 datagram and keep the early
        // delivery buffered until t2.
        a.publish(t1, HostId(0), message(1));
        a.publish(t2, HostId(0), message(2));
        b.publish(t1, HostId(1), message(1));
        b.synchronize(t1);
        let due_t1 = b.drain(t1, HostId(1));
        assert_eq!(due_t1.len(), 1);
        assert_eq!(due_t1[0].published, t1);
        b.publish(t2, HostId(1), message(1));
        b.synchronize(t2);
        let due_t2 = b.drain(t2, HostId(1));
        assert_eq!(due_t2.len(), 1);
        assert_eq!(due_t2[0].published, t2);
        // Drain A's pending state too so both sides end clean.
        a.synchronize(t1);
        let _ = a.drain(t1, HostId(0));
    }

    #[test]
    fn injected_loss_drops_deliveries_but_not_the_barrier() {
        let sock_a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sock_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr_b = sock_b.local_addr().unwrap();
        let addr_a = sock_a.local_addr().unwrap();
        let stats = Arc::new(SocketBusStats::default());
        let mut a = SocketBus::new(
            hosts(2),
            HostId(0),
            sock_a,
            HashMap::from([(HostId(1), addr_b)]),
            SimDuration::ZERO,
            0.0,
            Duration::from_secs(5),
            Arc::new(SocketBusStats::default()),
        )
        .unwrap();
        // Receiver drops everything, yet every barrier still completes.
        let mut b = SocketBus::new(
            hosts(2),
            HostId(1),
            sock_b,
            HashMap::from([(HostId(0), addr_a)]),
            SimDuration::ZERO,
            1.0,
            Duration::from_secs(5),
            Arc::clone(&stats),
        )
        .unwrap();
        for tick in 1..=5u64 {
            let now = SimTime::from_millis(tick * 50);
            a.publish(now, HostId(0), message(2));
            b.synchronize(now);
            assert!(b.drain(now, HostId(1)).is_empty(), "tick {tick}");
        }
        assert_eq!(stats.lost_datagrams.load(Ordering::Relaxed), 5);
        assert_eq!(stats.barrier_timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(b.accounting().received_bytes.get(&HostId(1)), None);
    }
}
