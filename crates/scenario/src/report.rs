//! The machine-readable result of a scenario run.
//!
//! A [`Report`] is plain data: per-flow goodput/RTT/HTTP summaries and
//! per-link offered load, all in SI-ish units (`Mb/s`, `ms`, seconds). The
//! bench tables and `print_rows` views are thin projections over it, and
//! [`Report::to_json_string`] serializes the whole tree through the
//! vendored `serde_json` shim for downstream tooling.

use kollaps_core::emulation::ConvergenceStats;
use serde_json::Value;

/// Version stamp of the JSON layout emitted by [`Report::to_json`] and
/// [`crate::CampaignReport::to_json`], so downstream tooling can detect
/// format changes. Bumped whenever a field is added, removed or renamed:
///
/// * **1** — the implicit, unstamped layout up to the session redesign.
/// * **2** — adds the `schema_version` stamp itself and the
///   `CampaignReport` document.
/// * **3** — adds `flow_classes` (per-flow-class latency/goodput
///   p50/p90/p99 from the aggregating telemetry sink) and grows `http`
///   with `latency_p99_ms` + raw `samples_ms`.
/// * **4** — adds `phase_timing` (per-emulation-phase wall-clock breakdown
///   from the flight recorder; `null` unless the run was traced — tracing
///   is wall-clock-only, so untraced reports stay byte-identical to v3
///   modulo the stamp) and, in distributed merged reports, the per-host
///   `health` series and `socket_bus` counters.
pub const SCHEMA_VERSION: u64 = 4;

/// RTT statistics of a ping workload (milliseconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RttStats {
    /// Mean RTT.
    pub mean_ms: f64,
    /// Jitter, reported like `ping`: standard deviation of the samples.
    pub jitter_ms: f64,
    /// Minimum observed RTT.
    pub min_ms: f64,
    /// Maximum observed RTT.
    pub max_ms: f64,
    /// Number of replies received.
    pub replies: usize,
    /// Every RTT sample, in arrival order.
    pub samples_ms: Vec<f64>,
}

/// Request statistics of an HTTP-style (wrk2/curl) workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HttpStats {
    /// Completed requests.
    pub requests: u64,
    /// Median per-request completion latency.
    pub latency_p50_ms: f64,
    /// 90th-percentile per-request completion latency.
    pub latency_p90_ms: f64,
    /// 99th-percentile per-request completion latency.
    pub latency_p99_ms: f64,
    /// Every per-request completion latency, in completion order (feeds
    /// the flow-class latency aggregation).
    pub samples_ms: Vec<f64>,
}

/// Percentile summary of one aggregated metric: the shape the telemetry
/// aggregator exports instead of a bare mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PercentileStats {
    /// Arithmetic mean over every sample ever recorded.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Number of samples aggregated.
    pub samples: u64,
}

/// Aggregated percentile telemetry for one *flow class* — every flow of
/// the same workload label ("iperf-udp", "ping", "wrk2", ...), the
/// aggregation unit that stays bounded when a scenario models millions of
/// logical users.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowClassReport {
    /// The workload label the class aggregates.
    pub class: String,
    /// Finalized flows aggregated into the class.
    pub flows: usize,
    /// Latency percentiles (ms) over every RTT/request-latency sample of
    /// the class (`None` for classes without latency samples, e.g. bulk
    /// iperf).
    pub latency_ms: Option<PercentileStats>,
    /// Goodput percentiles (Mb/s) over the per-second delivery windows of
    /// every flow in the class (`None` for classes that move no bulk
    /// data, e.g. ping).
    pub goodput_mbps: Option<PercentileStats>,
}

/// The measured outcome of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowReport {
    /// Workload label ("iperf-tcp", "iperf-udp", "ping", "wrk2", "curl",
    /// "memcached").
    pub workload: String,
    /// Name of the node that initiated the workload (the traffic sink for
    /// HTTP-style workloads).
    pub client: String,
    /// Name of the serving node.
    pub server: String,
    /// Workload start, seconds since scenario start.
    pub start_s: f64,
    /// Workload end, seconds since scenario start.
    pub end_s: f64,
    /// Average delivered goodput over the activity window, for workloads
    /// that move bulk data.
    pub goodput_mbps: Option<f64>,
    /// Receiver-side throughput per one-second window (Mb/s).
    pub per_second_mbps: Vec<f64>,
    /// Sender retransmissions (TCP workloads).
    pub retransmissions: Option<u64>,
    /// RTT statistics (ping workloads).
    pub rtt: Option<RttStats>,
    /// Request statistics (wrk2/curl workloads).
    pub http: Option<HttpStats>,
    /// Aggregate operations per second (memcached workloads).
    pub ops_per_second: Option<f64>,
}

/// Offered load on one original-topology link: in a [`Report`], summed
/// over the run's flows; from [`crate::Session::link_loads`], as measured
/// in the emulation managers' most recent loop iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// The link id in the original (pre-collapse) topology.
    pub link: u32,
    /// Configured capacity.
    pub capacity_mbps: f64,
    /// In a [`Report`], the sum of the average goodputs of all reported
    /// flows whose collapsed path crosses this link (each averaged over its
    /// own activity window); live, the load offered in the last loop.
    pub offered_mbps: f64,
    /// `offered / capacity` (0 when the capacity is unlimited); above 1.0
    /// the link was a contended bottleneck.
    pub utilization: f64,
}

impl LinkReport {
    pub(crate) fn new(link: u32, offered_mbps: f64, capacity_mbps: f64) -> Self {
        let utilization = if capacity_mbps.is_finite() && capacity_mbps > 0.0 {
            offered_mbps / capacity_mbps
        } else {
            0.0
        };
        LinkReport {
            link,
            capacity_mbps,
            offered_mbps,
            utilization,
        }
    }
}

/// Metadata traffic one physical host put on (and took off) the network.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMetadata {
    /// Host index.
    pub host: u32,
    /// Bytes this host's Emulation Manager sent over the physical network.
    pub sent_bytes: u64,
    /// Bytes delivered to this host's Emulation Manager from remote ones.
    pub received_bytes: u64,
}

/// How close the decentralized per-host enforcement tracked the omniscient
/// allocation over the run. The gap is the maximum relative difference
/// between any Emulation Manager's enforced rate and the rate a centralized
/// solver with instantaneous knowledge would have assigned the same flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Gap in the final loop iteration of the run.
    pub last_gap: f64,
    /// Worst gap over the whole run (spikes while stale metadata is in
    /// flight are expected — that is the accuracy-vs-staleness trade-off).
    pub max_gap: f64,
    /// Mean gap over all measured loop iterations — the time-averaged
    /// inaccuracy the metadata staleness costs.
    pub mean_gap: f64,
}

/// What the dynamics engine did during the run: the offline precompute the
/// snapshot timeline paid once, and the per-event swap work at runtime —
/// which scales with each event's delta (changed paths), not with the
/// topology's pair count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsReport {
    /// Wall-clock microseconds spent precomputing the snapshot timeline
    /// (before the experiment started).
    pub precompute_micros: u64,
    /// Change times precomputed offline.
    pub snapshots_precomputed: usize,
    /// Change times whose snapshot was swapped in during the run.
    pub snapshots_applied: usize,
    /// Schedule events those swaps covered.
    pub events_applied: usize,
    /// Mean per-event swap cost (changed + removed paths).
    pub mean_swap_cost: f64,
    /// Worst single-event swap cost.
    pub max_swap_cost: usize,
    /// Per-destination qdisc chains actually rewritten across all hosts.
    pub chains_touched: usize,
    /// Ordered service pairs in the collapsed topology — the all-pairs work
    /// an online re-collapse would redo per event.
    pub pair_count: usize,
}

/// Wall-clock cost of one emulation-loop phase over the whole run, from
/// the flight recorder's per-phase accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimingReport {
    /// Phase name (`collect`, `publish`, `synchronize`, `drain`,
    /// `enforce`).
    pub phase: String,
    /// Total wall-clock microseconds across all loop iterations.
    pub total_micros: u64,
    /// Mean microseconds per iteration.
    pub mean_micros: f64,
    /// Worst single iteration, microseconds.
    pub max_micros: u64,
    /// Loop iterations measured.
    pub count: u64,
}

/// The structured result of [`crate::Scenario::run`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Scenario name (see [`crate::Scenario::named`]).
    pub scenario: String,
    /// Backend the scenario ran against.
    pub backend: String,
    /// Number of physical hosts the backend modelled.
    pub hosts: usize,
    /// Total emulated time, seconds.
    pub duration_s: f64,
    /// One entry per workload, in declaration order.
    pub flows: Vec<FlowReport>,
    /// Offered load per traversed link, sorted by link id.
    pub links: Vec<LinkReport>,
    /// Metadata bytes the emulation managers exchanged over the physical
    /// network (`None` for backends without an emulation manager).
    pub metadata_bytes: Option<u64>,
    /// Per-host metadata traffic, in host-id order (empty for backends
    /// without an emulation manager).
    pub metadata_per_host: Vec<HostMetadata>,
    /// Allocation-convergence metric of the decentralized enforcement
    /// (`None` for backends without per-host emulation managers).
    pub convergence: Option<ConvergenceReport>,
    /// Dynamics-engine accounting (`None` for static scenarios and for
    /// backends without the snapshot timeline).
    pub dynamics: Option<DynamicsReport>,
    /// Per-flow-class percentile telemetry from the aggregating sink,
    /// sorted by class label (empty when no flow was finalized).
    pub flow_classes: Vec<FlowClassReport>,
    /// Per-phase wall-clock breakdown of the emulation loop, in loop
    /// order. `None` unless the run was traced (the breakdown is
    /// wall-clock data; reports must stay byte-identical across tracing
    /// modes).
    pub phase_timing: Option<Vec<PhaseTimingReport>>,
}

impl RttStats {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("mean_ms", self.mean_ms.into()),
            ("jitter_ms", self.jitter_ms.into()),
            ("min_ms", self.min_ms.into()),
            ("max_ms", self.max_ms.into()),
            ("replies", self.replies.into()),
            ("samples_ms", self.samples_ms.clone().into()),
        ])
    }
}

impl HttpStats {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("requests", self.requests.into()),
            ("latency_p50_ms", self.latency_p50_ms.into()),
            ("latency_p90_ms", self.latency_p90_ms.into()),
            ("latency_p99_ms", self.latency_p99_ms.into()),
            ("samples_ms", self.samples_ms.clone().into()),
        ])
    }
}

impl PercentileStats {
    fn to_json(self) -> Value {
        Value::from_iter([
            ("mean", self.mean.into()),
            ("p50", self.p50.into()),
            ("p90", self.p90.into()),
            ("p99", self.p99.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("samples", self.samples.into()),
        ])
    }
}

impl FlowClassReport {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("class", self.class.as_str().into()),
            ("flows", self.flows.into()),
            (
                "latency_ms",
                self.latency_ms
                    .map(PercentileStats::to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "goodput_mbps",
                self.goodput_mbps
                    .map(PercentileStats::to_json)
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

impl FlowReport {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("workload", self.workload.as_str().into()),
            ("client", self.client.as_str().into()),
            ("server", self.server.as_str().into()),
            ("start_s", self.start_s.into()),
            ("end_s", self.end_s.into()),
            ("goodput_mbps", self.goodput_mbps.into()),
            ("per_second_mbps", self.per_second_mbps.clone().into()),
            ("retransmissions", self.retransmissions.into()),
            (
                "rtt",
                self.rtt
                    .as_ref()
                    .map(RttStats::to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "http",
                self.http
                    .as_ref()
                    .map(HttpStats::to_json)
                    .unwrap_or(Value::Null),
            ),
            ("ops_per_second", self.ops_per_second.into()),
        ])
    }
}

impl LinkReport {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("link", self.link.into()),
            ("capacity_mbps", self.capacity_mbps.into()),
            ("offered_mbps", self.offered_mbps.into()),
            ("utilization", self.utilization.into()),
        ])
    }
}

impl HostMetadata {
    /// The `metadata_per_host` row of this host, as [`Report::to_json`]
    /// writes it.
    pub fn to_json(&self) -> Value {
        Value::from_iter([
            ("host", self.host.into()),
            ("sent_bytes", self.sent_bytes.into()),
            ("received_bytes", self.received_bytes.into()),
        ])
    }
}

impl From<ConvergenceStats> for ConvergenceReport {
    fn from(c: ConvergenceStats) -> Self {
        ConvergenceReport {
            last_gap: c.last_gap,
            max_gap: c.max_gap,
            mean_gap: c.mean_gap(),
        }
    }
}

impl ConvergenceReport {
    /// The `convergence` block, as [`Report::to_json`] writes it.
    pub fn to_json(self) -> Value {
        Value::from_iter([
            ("last_gap", self.last_gap.into()),
            ("max_gap", self.max_gap.into()),
            ("mean_gap", self.mean_gap.into()),
        ])
    }
}

impl DynamicsReport {
    fn to_json(self) -> Value {
        Value::from_iter([
            ("precompute_micros", self.precompute_micros.into()),
            ("snapshots_precomputed", self.snapshots_precomputed.into()),
            ("snapshots_applied", self.snapshots_applied.into()),
            ("events_applied", self.events_applied.into()),
            ("mean_swap_cost", self.mean_swap_cost.into()),
            ("max_swap_cost", self.max_swap_cost.into()),
            ("chains_touched", self.chains_touched.into()),
            ("pair_count", self.pair_count.into()),
        ])
    }
}

impl PhaseTimingReport {
    fn to_json(&self) -> Value {
        Value::from_iter([
            ("phase", self.phase.as_str().into()),
            ("total_micros", self.total_micros.into()),
            ("mean_micros", self.mean_micros.into()),
            ("max_micros", self.max_micros.into()),
            ("count", self.count.into()),
        ])
    }
}

impl Report {
    /// The flows produced by workloads with the given label, in order.
    pub fn flows_of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a FlowReport> {
        self.flows.iter().filter(move |f| f.workload == workload)
    }

    /// The whole report as a JSON value tree.
    pub fn to_json(&self) -> Value {
        Value::from_iter([
            ("schema_version", SCHEMA_VERSION.into()),
            ("scenario", self.scenario.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("hosts", self.hosts.into()),
            ("duration_s", self.duration_s.into()),
            (
                "flows",
                Value::Array(self.flows.iter().map(FlowReport::to_json).collect()),
            ),
            (
                "links",
                Value::Array(self.links.iter().map(LinkReport::to_json).collect()),
            ),
            ("metadata_bytes", self.metadata_bytes.into()),
            (
                "metadata_per_host",
                Value::Array(
                    self.metadata_per_host
                        .iter()
                        .map(HostMetadata::to_json)
                        .collect(),
                ),
            ),
            (
                "convergence",
                self.convergence
                    .map(ConvergenceReport::to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "dynamics",
                self.dynamics
                    .map(DynamicsReport::to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "flow_classes",
                Value::Array(
                    self.flow_classes
                        .iter()
                        .map(FlowClassReport::to_json)
                        .collect(),
                ),
            ),
            (
                "phase_timing",
                self.phase_timing
                    .as_ref()
                    .map(|phases| {
                        Value::Array(phases.iter().map(PhaseTimingReport::to_json).collect())
                    })
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// The whole report as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}
