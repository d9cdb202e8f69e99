//! # kollaps-workloads
//!
//! The analytic application models of the Kollaps evaluation, all in
//! [`kv`]: memcached/memtier closed-loop clients (Figure 4), the
//! geo-replicated Cassandra/YCSB throughput-latency model (Figures 10
//! and 11) and the BFT-SMaRt/Wheat state-machine-replication latency model
//! (Figure 9).
//!
//! The models consume the collapsed end-to-end properties (RTT, jitter),
//! mirroring how the paper's applications only experience the emergent
//! latency, jitter, loss and bandwidth. The packet-level workloads (iPerf,
//! ping, curl, wrk2, memcached) are `kollaps_scenario::Workload`, run by the
//! scenario engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kv;

pub use kv::{
    bft_latencies, cassandra_curve, memcached_throughput, BftSystem, CassandraConfig,
    CassandraPoint,
};
