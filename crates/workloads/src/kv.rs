//! Key-value store and state-machine-replication workload models.
//!
//! These are application-level models driven by the *collapsed* end-to-end
//! network properties (RTT, jitter), mirroring how the real applications in
//! the paper only experience the emergent network behaviour:
//!
//! * [`memcached_throughput`] — closed-loop memtier clients against
//!   memcached servers (Figure 4): each connection issues one request at a
//!   time, so per-connection rate is `1 / (RTT + server time)` and the
//!   aggregate is capped by the servers' capacity.
//! * [`cassandra_curve`] — geo-replicated Cassandra under YCSB
//!   (Figures 10/11): read latency is governed by the local quorum, update
//!   latency by the farthest replica needed for the write quorum, and both
//!   climb as the offered load approaches the cluster's service capacity
//!   (M/M/c-style queueing).
//! * [`bft_latencies`] — BFT-SMaRt and its vote-weight-optimised variant
//!   Wheat across five regions (Figure 9): client latency is the RTT to the
//!   leader plus the consensus rounds, where the quorum is formed by the
//!   fastest replicas (Wheat) or a majority (BFT-SMaRt).

use kollaps_sim::rng::SimRng;
use kollaps_sim::stats::Summary;

/// A closed-loop memcached/memtier deployment.
///
/// `client_rtts_ms` holds, for every client, the RTT to the server it
/// queries; `connections` is the number of concurrent connections per
/// client (memtier `-c`).
pub fn memcached_throughput(
    client_rtts_ms: &[f64],
    connections: usize,
    server_op_time_us: f64,
    server_capacity_ops: f64,
) -> f64 {
    let offered: f64 = client_rtts_ms
        .iter()
        .map(|rtt| {
            let op_latency_s = rtt / 1_000.0 + server_op_time_us / 1e6;
            connections as f64 / op_latency_s
        })
        .sum();
    offered.min(server_capacity_ops)
}

/// Static description of the geo-replicated Cassandra deployment of
/// Figures 10 and 11.
#[derive(Debug, Clone, Copy)]
pub struct CassandraConfig {
    /// RTT between the YCSB clients and the local (Frankfurt) replicas, ms.
    pub local_rtt_ms: f64,
    /// RTT between the local replicas and the remote region, ms.
    pub remote_rtt_ms: f64,
    /// Jitter applied to both, ms (standard deviation).
    pub jitter_ms: f64,
    /// Per-operation service time at a replica, ms.
    pub service_time_ms: f64,
    /// Aggregate cluster capacity in operations per second.
    pub capacity_ops: f64,
    /// Fraction of operations that are reads (YCSB 50/50 in the paper).
    pub read_fraction: f64,
}

impl CassandraConfig {
    /// The Frankfurt + Sydney deployment of Figure 10.
    pub fn frankfurt_sydney() -> Self {
        CassandraConfig {
            local_rtt_ms: 1.0,
            remote_rtt_ms: 290.0,
            jitter_ms: 2.0,
            service_time_ms: 2.5,
            capacity_ops: 5_200.0,
            read_fraction: 0.5,
        }
    }

    /// The what-if deployment of Figure 11: the remote replicas move to a
    /// region at half the latency (Sydney → Seoul).
    pub fn halved_latency(self) -> Self {
        CassandraConfig {
            remote_rtt_ms: self.remote_rtt_ms / 2.0,
            ..self
        }
    }
}

/// One point of the Cassandra throughput/latency curve.
#[derive(Debug, Clone, Copy)]
pub struct CassandraPoint {
    /// Offered load (ops/s).
    pub target_ops: f64,
    /// Achieved throughput (ops/s).
    pub achieved_ops: f64,
    /// Mean operation latency (ms), across reads and updates.
    pub latency_ms: f64,
    /// Mean read latency (ms).
    pub read_latency_ms: f64,
    /// Mean update latency (ms).
    pub update_latency_ms: f64,
}

/// Computes the throughput/latency curve of the geo-replicated Cassandra
/// deployment for the given offered loads.
pub fn cassandra_curve(
    config: &CassandraConfig,
    targets: &[f64],
    seed: u64,
) -> Vec<CassandraPoint> {
    let mut rng = SimRng::new(seed);
    targets
        .iter()
        .map(|&target| {
            let utilisation = (target / config.capacity_ops).min(0.995);
            // M/M/1-style queueing inflation at the replicas.
            let queueing = config.service_time_ms * utilisation / (1.0 - utilisation);
            let mut read = Summary::new();
            let mut update = Summary::new();
            for _ in 0..500 {
                let jitter = config.jitter_ms * rng.standard_normal();
                // Reads are answered by the local replicas (consistency ONE).
                read.record(
                    (config.local_rtt_ms + config.service_time_ms + queueing + jitter).max(0.1),
                );
                // Updates need a quorum (RF=2 per region): the remote
                // region's reply is always on the critical path.
                update.record(
                    (config.remote_rtt_ms + config.service_time_ms + queueing + jitter).max(0.1),
                );
            }
            let latency_ms =
                config.read_fraction * read.mean() + (1.0 - config.read_fraction) * update.mean();
            let achieved = target.min(config.capacity_ops * 0.98);
            CassandraPoint {
                target_ops: target,
                achieved_ops: achieved,
                latency_ms,
                read_latency_ms: read.mean(),
                update_latency_ms: update.mean(),
            }
        })
        .collect()
}

/// Which state-machine-replication protocol variant to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BftSystem {
    /// BFT-SMaRt: the quorum needs a majority of all replicas.
    BftSmart,
    /// Wheat: weighted votes let the fastest replicas form the quorum.
    Wheat,
}

/// Computes per-client latency distributions (50th and 90th percentile, in
/// milliseconds) for a geo-replicated counter served by BFT-SMaRt or Wheat.
///
/// `rtt_ms[i][j]` is the RTT between regions `i` and `j`; one replica and
/// one client sit in every region; the leader is in `leader` (Virginia in
/// the original experiment).
pub fn bft_latencies(
    rtt_ms: &[Vec<f64>],
    jitter_ms: f64,
    leader: usize,
    system: BftSystem,
    seed: u64,
) -> Vec<(f64, f64)> {
    let n = rtt_ms.len();
    let mut rng = SimRng::new(seed);
    let quorum = match system {
        // With n = 5 replicas tolerating f = 1 fault, agreement needs
        // 2f+1 = 3 votes; the leader's own vote is free, so it waits for the
        // 2nd fastest remote reply.
        BftSystem::BftSmart => 3usize,
        // Wheat assigns extra vote weight to the fastest replicas, so the
        // quorum completes with the 2 fastest replies.
        BftSystem::Wheat => 2usize,
    };
    (0..n)
        .map(|client| {
            let mut samples = Summary::new();
            for _ in 0..2_000 {
                let j = |rng: &mut SimRng| jitter_ms * rng.standard_normal();
                // Client → leader.
                let to_leader = rtt_ms[client][leader] + j(&mut rng);
                // Leader runs the agreement: it needs `quorum` replica
                // round trips (counting its own vote as instantaneous);
                // consensus takes two communication steps (PROPOSE+ACCEPT).
                let mut replica_rtts: Vec<f64> = (0..n)
                    .filter(|&r| r != leader)
                    .map(|r| rtt_ms[leader][r] + j(&mut rng))
                    .collect();
                replica_rtts.sort_by(f64::total_cmp);
                let agreement =
                    2.0 * replica_rtts[quorum.saturating_sub(2).min(replica_rtts.len() - 1)];
                samples.record((to_leader + agreement).max(0.1));
            }
            (samples.percentile(50.0), samples.percentile(90.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheat_matrix() -> Vec<Vec<f64>> {
        // Oregon, Ireland, Sydney, SaoPaulo, Virginia (RTT = 2 × one-way).
        let one_way = [
            [0.3, 62.0, 70.0, 91.0, 36.0],
            [62.0, 0.3, 140.0, 92.0, 38.0],
            [70.0, 140.0, 0.3, 160.0, 102.0],
            [91.0, 92.0, 160.0, 0.3, 60.0],
            [36.0, 38.0, 102.0, 60.0, 0.3],
        ];
        one_way
            .iter()
            .map(|row| row.iter().map(|x| x * 2.0).collect())
            .collect()
    }

    #[test]
    fn memcached_scales_with_connections_until_capacity() {
        let rtts = vec![1.0, 1.0, 40.0, 40.0];
        let one = memcached_throughput(&rtts, 1, 100.0, 1e9);
        let ten = memcached_throughput(&rtts, 10, 100.0, 1e9);
        assert!(ten > one * 9.0);
        // Capacity caps the aggregate.
        let capped = memcached_throughput(&rtts, 10, 100.0, 5_000.0);
        assert_eq!(capped, 5_000.0);
    }

    #[test]
    fn cassandra_curve_has_the_hockey_stick_shape() {
        let cfg = CassandraConfig::frankfurt_sydney();
        let targets: Vec<f64> = (1..=10).map(|i| i as f64 * 500.0).collect();
        let curve = cassandra_curve(&cfg, &targets, 7);
        assert_eq!(curve.len(), 10);
        // Latency grows monotonically-ish and explodes near capacity. The
        // hockey stick is sharpest in the read latency, which is all
        // queueing; the blended mean rises more gently because the 290 ms
        // remote RTT puts a floor under every update.
        assert!(curve[9].read_latency_ms > curve[0].read_latency_ms * 5.0);
        assert!(curve[9].latency_ms > curve[0].latency_ms * 1.3);
        // Updates are dominated by the remote quorum, reads by local RTT.
        assert!(curve[0].update_latency_ms > 250.0);
        assert!(curve[0].read_latency_ms < 50.0);
    }

    #[test]
    fn halved_latency_halves_update_latency() {
        let cfg = CassandraConfig::frankfurt_sydney();
        let half = cfg.halved_latency();
        let base = cassandra_curve(&cfg, &[1_000.0], 1)[0];
        let whatif = cassandra_curve(&half, &[1_000.0], 1)[0];
        let ratio = whatif.update_latency_ms / base.update_latency_ms;
        assert!((0.4..=0.6).contains(&ratio), "ratio {ratio}");
        // Reads barely change.
        assert!((whatif.read_latency_ms - base.read_latency_ms).abs() < 2.0);
    }

    #[test]
    fn wheat_is_never_slower_than_bft_smart() {
        let rtts = wheat_matrix();
        let bft = bft_latencies(&rtts, 1.5, 4, BftSystem::BftSmart, 3);
        let wheat = bft_latencies(&rtts, 1.5, 4, BftSystem::Wheat, 3);
        assert_eq!(bft.len(), 5);
        for (i, ((b50, _), (w50, _))) in bft.iter().zip(&wheat).enumerate() {
            assert!(w50 <= &(b50 * 1.02), "region {i}: wheat {w50} vs bft {b50}");
        }
    }

    #[test]
    fn remote_clients_pay_their_distance_to_the_leader() {
        let rtts = wheat_matrix();
        let bft = bft_latencies(&rtts, 1.0, 4, BftSystem::BftSmart, 9);
        // Sydney (index 2) is farthest from the Virginia leader, Virginia
        // itself is closest.
        assert!(bft[2].0 > bft[4].0);
    }
}
