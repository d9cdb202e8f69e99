//! Model of the `netem` queueing discipline.
//!
//! netem applies a fixed delay, optional jitter drawn from a configurable
//! distribution (normal by default, as in the paper), and random packet
//! loss. Packets leave the qdisc when their individual release time is
//! reached; a large jitter can therefore reorder packets exactly like the
//! real qdisc does.

use serde::{Deserialize, Serialize};

use kollaps_sim::queue::TimedQueue;
use kollaps_sim::rng::{Distribution, SimRng};
use kollaps_sim::time::{SimDuration, SimTime};

use crate::packet::{DropReason, Packet};

/// Shape of the jitter distribution applied on top of the base delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum JitterDistribution {
    /// Normal distribution with the configured standard deviation (netem and
    /// Kollaps default).
    #[default]
    Normal,
    /// Uniform in `[-jitter, +jitter]`.
    Uniform,
    /// Pareto-distributed positive jitter (heavy tail).
    Pareto,
}

/// Configuration of a netem stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetemConfig {
    /// Base one-way delay.
    pub delay: SimDuration,
    /// Jitter magnitude (standard deviation for [`JitterDistribution::Normal`]).
    pub jitter: SimDuration,
    /// Distribution the per-packet jitter is drawn from.
    pub jitter_distribution: JitterDistribution,
    /// Probability in `[0, 1]` that a packet is dropped.
    pub loss: f64,
    /// Maximum number of packets held by the qdisc (netem `limit`).
    pub limit: usize,
}

impl Default for NetemConfig {
    fn default() -> Self {
        NetemConfig {
            delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            jitter_distribution: JitterDistribution::Normal,
            loss: 0.0,
            limit: 10_000,
        }
    }
}

impl NetemConfig {
    /// A netem stage with only a fixed delay.
    pub fn with_delay(delay: SimDuration) -> Self {
        NetemConfig {
            delay,
            ..NetemConfig::default()
        }
    }

    /// A netem stage with delay and normally-distributed jitter.
    pub fn with_delay_jitter(delay: SimDuration, jitter: SimDuration) -> Self {
        NetemConfig {
            delay,
            jitter,
            ..NetemConfig::default()
        }
    }
}

/// A netem qdisc instance.
#[derive(Debug)]
pub struct NetemQdisc {
    config: NetemConfig,
    rng: SimRng,
    /// Accepted packets by release time, FIFO among equal times.
    held: TimedQueue<Packet>,
    /// Counters for observability and tests.
    enqueued: u64,
    dropped_loss: u64,
    dropped_overflow: u64,
}

/// Outcome of pushing a packet into a netem stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetemVerdict {
    /// The packet was accepted and will be released later.
    Queued,
    /// The packet was dropped, with the reason.
    Dropped(DropReason),
}

impl NetemQdisc {
    /// Creates a qdisc with the given configuration and RNG stream.
    pub fn new(config: NetemConfig, rng: SimRng) -> Self {
        NetemQdisc {
            config,
            rng,
            held: TimedQueue::default(),
            enqueued: 0,
            dropped_loss: 0,
            dropped_overflow: 0,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    /// Replaces the configuration (used by the TCAL when dynamic events or
    /// congestion-loss injection change the link properties).
    pub fn set_config(&mut self, config: NetemConfig) {
        self.config = config;
    }

    /// Updates only the loss probability (congestion loss injection).
    pub fn set_loss(&mut self, loss: f64) {
        self.config.loss = loss.clamp(0.0, 1.0);
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// `true` if no packets are held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Total packets dropped by random loss so far.
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Total packets dropped by queue overflow so far.
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// Total packets accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Pushes a packet into the qdisc at time `now`.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> NetemVerdict {
        if self.held.len() >= self.config.limit {
            self.dropped_overflow += 1;
            return NetemVerdict::Dropped(DropReason::QueueOverflow);
        }
        if self.config.loss > 0.0 && self.rng.chance(self.config.loss) {
            self.dropped_loss += 1;
            return NetemVerdict::Dropped(DropReason::NetemLoss);
        }
        let delay = self.sample_delay();
        self.enqueued += 1;
        self.held.push(now + delay, packet);
        NetemVerdict::Queued
    }

    /// The earliest time a held packet becomes releasable, if any.
    pub fn next_release(&self) -> Option<SimTime> {
        self.held.peek_time()
    }

    /// Removes and returns the earliest held packet if its release time is
    /// `<= now`; packets due at the same instant come out in the order they
    /// were accepted.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<Packet> {
        self.held.pop_due(now)
    }

    fn sample_delay(&mut self) -> SimDuration {
        let base_ms = self.config.delay.as_millis_f64();
        if self.config.jitter.is_zero() {
            return self.config.delay;
        }
        let jitter_ms = self.config.jitter.as_millis_f64();
        let sampled_ms = match self.config.jitter_distribution {
            JitterDistribution::Normal => {
                let d = Distribution::Normal {
                    mean: base_ms,
                    std_dev: jitter_ms,
                };
                d.sample(&mut self.rng)
            }
            JitterDistribution::Uniform => {
                let d = Distribution::Uniform {
                    low: base_ms - jitter_ms,
                    high: base_ms + jitter_ms,
                };
                d.sample(&mut self.rng)
            }
            JitterDistribution::Pareto => {
                let d = Distribution::Pareto {
                    scale: jitter_ms.max(1e-9),
                    shape: 3.0,
                };
                base_ms + d.sample(&mut self.rng) - jitter_ms
            }
        };
        SimDuration::from_millis_f64(sampled_ms.max(0.0))
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

    /// Every packet `pop_ready` releases by `now`.
    fn release(q: &mut NetemQdisc, now: SimTime) -> Vec<Packet> {
        std::iter::from_fn(|| q.pop_ready(now)).collect()
    }

    fn qdisc(cfg: NetemConfig) -> NetemQdisc {
        NetemQdisc::new(cfg, SimRng::new(42))
    }

    #[test]
    fn fixed_delay_releases_on_time() {
        let mut q = qdisc(NetemConfig::with_delay(SimDuration::from_millis(10)));
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(1)), NetemVerdict::Queued);
        assert_eq!(q.next_release(), Some(SimTime::from_millis(10)));
        assert!(release(&mut q, SimTime::from_millis(9)).is_empty());
        let released = release(&mut q, SimTime::from_millis(10));
        assert_eq!(released.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_config_is_a_passthrough() {
        let mut q = qdisc(NetemConfig::default());
        q.enqueue(SimTime::from_secs(1), pkt(1));
        let out = release(&mut q, SimTime::from_secs(1));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn loss_probability_is_respected() {
        let mut q = qdisc(NetemConfig {
            loss: 0.3,
            ..NetemConfig::default()
        });
        let n = 10_000;
        for i in 0..n {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        let lost = q.dropped_loss() as f64 / n as f64;
        assert!((lost - 0.3).abs() < 0.03, "observed loss {lost}");
        assert_eq!(q.enqueued() + q.dropped_loss(), n);
    }

    #[test]
    fn limit_overflow_drops() {
        let mut q = qdisc(NetemConfig {
            delay: SimDuration::from_secs(10),
            limit: 3,
            ..NetemConfig::default()
        });
        for i in 0..5 {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped_overflow(), 2);
    }

    #[test]
    fn jitter_produces_spread_but_correct_mean() {
        let mut q = qdisc(NetemConfig::with_delay_jitter(
            SimDuration::from_millis(50),
            SimDuration::from_millis(5),
        ));
        let n = 5_000;
        for i in 0..n {
            q.enqueue(SimTime::ZERO, pkt(i));
        }
        // Release everything far in the future and inspect the observed
        // delays via the release times recorded in the heap ordering.
        let mut delays = Vec::new();
        while let Some(next) = q.next_release() {
            let got = release(&mut q, next);
            for _ in got {
                delays.push(next.as_nanos() as f64 / 1e6);
            }
        }
        assert_eq!(delays.len(), n as usize);
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        let var = delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / delays.len() as f64;
        assert!((mean - 50.0).abs() < 0.5, "mean delay {mean} ms");
        assert!((var.sqrt() - 5.0).abs() < 0.5, "std {} ms", var.sqrt());
    }

    #[test]
    fn jitter_can_reorder_packets() {
        let mut q = qdisc(NetemConfig::with_delay_jitter(
            SimDuration::from_millis(20),
            SimDuration::from_millis(10),
        ));
        for i in 0..200 {
            q.enqueue(SimTime::from_micros(i * 10), pkt(i));
        }
        let mut ids = Vec::new();
        while let Some(next) = q.next_release() {
            for p in release(&mut q, next) {
                ids.push(p.id);
            }
        }
        assert_eq!(ids.len(), 200);
        let sorted = {
            let mut v = ids.clone();
            v.sort_unstable();
            v
        };
        assert_ne!(ids, sorted, "large jitter should reorder some packets");
    }

    #[test]
    fn set_loss_clamps() {
        let mut q = qdisc(NetemConfig::default());
        q.set_loss(1.7);
        assert_eq!(q.config().loss, 1.0);
        q.set_loss(-0.5);
        assert_eq!(q.config().loss, 0.0);
    }
}
