//! Data-driven workload specifications and their live state.
//!
//! Workloads reference services by *name* (as declared in the experiment
//! description or by a generator), never by raw container address: the
//! scenario layer resolves names against the topology and rejects unknown
//! or non-service endpoints with a typed [`crate::ScenarioError`] before
//! anything runs. A workload stores its endpoints once, as data — one
//! `server` and a list of `clients` — so the kind carries parameters only.
//!
//! Once resolved, a [`LiveWorkload`] is one record of a running
//! [`crate::Session`]: registered with the shared runtime (up front, or
//! mid-run through [`crate::Session::inject_workload`]), re-armed on
//! completion events, and finalized into a [`FlowReport`] exactly when its
//! activity window closes.

use std::collections::{BTreeMap, HashMap};

use kollaps_core::runtime::Runtime;
use kollaps_netmodel::packet::{Addr, FlowId};
use kollaps_sim::prelude::*;
use kollaps_transport::tcp::{CongestionAlgorithm, TcpSenderConfig, TransferSize};
use kollaps_workloads::memcached_throughput;

use crate::backend::AnyDataplane;
use crate::report::{FlowReport, HttpStats, RttStats};
use crate::telemetry::{FlowProgress, FlowStatus};
use crate::ScenarioError;

/// Default measurement window when a workload does not set one.
pub const DEFAULT_DURATION: SimDuration = SimDuration::from_secs(10);

/// Per-operation memcached server time (µs) and aggregate server capacity
/// (ops/s) fed to the closed-loop model, matching the Figure 4 harness.
const MEMCACHED_OP_TIME_US: f64 = 80.0;
const MEMCACHED_CAPACITY_OPS: f64 = 1.0e9;

/// What a single workload does, and with which parameters.
#[derive(Debug, Clone)]
pub(crate) enum WorkloadKind {
    /// Long-lived bulk TCP flow, like `iperf3 -c`.
    IperfTcp { algorithm: CongestionAlgorithm },
    /// Constant-bit-rate UDP flow, like `iperf3 -u -b <rate>`.
    IperfUdp { rate: Bandwidth },
    /// ICMP echo probes, like `ping -c <count> -i <interval>`.
    Ping { count: u64, interval: SimDuration },
    /// wrk2-like persistent-connection HTTP load: the server streams
    /// `request` bytes per response over `connections` connections.
    Wrk2 {
        connections: usize,
        request: DataSize,
    },
    /// curl-like connection-per-request clients, each repeatedly fetching
    /// `request` bytes over a fresh connection.
    Curl { request: DataSize },
    /// Closed-loop memcached/memtier clients: RTTs to the server are
    /// measured in-band with echo probes and fed to the closed-loop
    /// throughput model (paper Figure 4).
    Memcached { connections: usize },
}

/// One workload of a scenario: a kind, its endpoints and its activity
/// window.
///
/// Construct with the named constructors ([`Workload::iperf_tcp`],
/// [`Workload::ping`], ...) and refine with the fluent setters. Setters that
/// do not apply to the constructed kind (e.g. [`Workload::count`] on an
/// iPerf flow) are ignored.
#[derive(Debug, Clone)]
pub struct Workload {
    pub(crate) kind: WorkloadKind,
    /// The serving node (a ping's destination).
    pub(crate) server: String,
    /// The initiating nodes (a ping's source): exactly one for iPerf, ping
    /// and wrk2.
    pub(crate) clients: Vec<String>,
    pub(crate) start: SimDuration,
    pub(crate) duration: Option<SimDuration>,
}

impl Workload {
    fn new(kind: WorkloadKind, server: &str, clients: &[&str]) -> Self {
        Workload {
            kind,
            server: server.to_string(),
            clients: clients.iter().map(|c| c.to_string()).collect(),
            start: SimDuration::ZERO,
            duration: None,
        }
    }

    /// A long-lived bulk TCP flow from `client` to `server` (CUBIC by
    /// default; see [`Workload::algorithm`]).
    pub fn iperf_tcp(client: &str, server: &str) -> Self {
        let algorithm = CongestionAlgorithm::Cubic;
        Workload::new(WorkloadKind::IperfTcp { algorithm }, server, &[client])
    }

    /// A constant-bit-rate UDP flow from `client` to `server`.
    pub fn iperf_udp(client: &str, server: &str, rate: Bandwidth) -> Self {
        Workload::new(WorkloadKind::IperfUdp { rate }, server, &[client])
    }

    /// Echo probes from `src` to `dst` (10 probes, 100 ms apart by
    /// default; see [`Workload::count`] and [`Workload::interval`]).
    pub fn ping(src: &str, dst: &str) -> Self {
        let interval = SimDuration::from_millis(100);
        Workload::new(
            WorkloadKind::Ping {
                count: 10,
                interval,
            },
            dst,
            &[src],
        )
    }

    /// A wrk2-like constant load of 64 KiB responses streamed from `server`
    /// to `client` over 20 persistent connections (see
    /// [`Workload::connections`] and [`Workload::request_size`]).
    pub fn wrk2(server: &str, client: &str) -> Self {
        let kind = WorkloadKind::Wrk2 {
            connections: 20,
            request: DataSize::from_kib(64),
        };
        Workload::new(kind, server, &[client])
    }

    /// curl-like clients, each repeatedly fetching a 64 KiB response from
    /// `server` over a fresh connection per request.
    pub fn curl(server: &str, clients: &[&str]) -> Self {
        let request = DataSize::from_kib(64);
        Workload::new(WorkloadKind::Curl { request }, server, clients)
    }

    /// Closed-loop memcached clients against `server` (1 connection per
    /// client by default; see [`Workload::connections`]).
    pub fn memcached(server: &str, clients: &[&str]) -> Self {
        Workload::new(WorkloadKind::Memcached { connections: 1 }, server, clients)
    }

    /// Congestion-control algorithm for an iPerf TCP flow.
    pub fn algorithm(mut self, algorithm: CongestionAlgorithm) -> Self {
        if let WorkloadKind::IperfTcp { algorithm: a } = &mut self.kind {
            *a = algorithm;
        }
        self
    }

    /// Number of echo probes for a ping workload.
    pub fn count(mut self, count: u64) -> Self {
        if let WorkloadKind::Ping { count: c, .. } = &mut self.kind {
            *c = count;
        }
        self
    }

    /// Interval between echo probes for a ping workload.
    pub fn interval(mut self, interval: SimDuration) -> Self {
        if let WorkloadKind::Ping { interval: i, .. } = &mut self.kind {
            *i = interval;
        }
        self
    }

    /// Number of connections for wrk2 / memcached workloads.
    pub fn connections(mut self, connections: usize) -> Self {
        match &mut self.kind {
            WorkloadKind::Wrk2 { connections: c, .. }
            | WorkloadKind::Memcached { connections: c } => *c = connections,
            _ => {}
        }
        self
    }

    /// Response size for wrk2 / curl workloads.
    pub fn request_size(mut self, request: DataSize) -> Self {
        match &mut self.kind {
            WorkloadKind::Wrk2 { request: r, .. } | WorkloadKind::Curl { request: r } => {
                *r = request
            }
            _ => {}
        }
        self
    }

    /// When the workload starts, relative to the scenario start.
    pub fn start(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }

    /// How long the workload runs. Defaults to [`DEFAULT_DURATION`], except
    /// for pings, which default to `count × interval` plus a grace period
    /// for the last replies.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Stable label used in reports ("iperf-tcp", "ping", ...).
    pub fn label(&self) -> &'static str {
        match &self.kind {
            WorkloadKind::IperfTcp { .. } => "iperf-tcp",
            WorkloadKind::IperfUdp { .. } => "iperf-udp",
            WorkloadKind::Ping { .. } => "ping",
            WorkloadKind::Wrk2 { .. } => "wrk2",
            WorkloadKind::Curl { .. } => "curl",
            WorkloadKind::Memcached { .. } => "memcached",
        }
    }

    /// The effective measurement window of this workload.
    pub(crate) fn effective_duration(&self) -> SimDuration {
        if let Some(d) = self.duration {
            return d;
        }
        match &self.kind {
            WorkloadKind::Ping { count, interval } => interval
                .mul_f64(*count as f64)
                .saturating_add(SimDuration::from_secs(5)),
            _ => DEFAULT_DURATION,
        }
    }

    /// The activity window `(start, end)` on the scenario timeline, opening
    /// no earlier than `from`; the end saturates. Under a duration `cap`
    /// both edges clip to it. Without one, an end that saturates at
    /// [`SimTime::MAX`] does not fit the timeline and is rejected.
    pub(crate) fn window(
        &self,
        from: SimTime,
        cap: Option<SimTime>,
    ) -> Result<(SimTime, SimTime), ScenarioError> {
        let start = (SimTime::ZERO + self.start).max(from);
        let end = start.saturating_add(self.effective_duration());
        match cap {
            Some(cap) => Ok((start.min(cap), end.min(cap))),
            None if end == SimTime::MAX => Err(ScenarioError::InvalidWorkload {
                reason: format!(
                    "{} window starting at {:.3}s ends beyond the representable \
                     timeline; set a duration or a scenario duration cap",
                    self.label(),
                    start.as_secs_f64()
                ),
            }),
            None => Ok((start, end)),
        }
    }

    /// The report's `(client, server)` names: the clients comma-joined.
    pub(crate) fn endpoint_names(&self) -> (String, String) {
        (self.clients.join(","), self.server.clone())
    }
}

/// Endpoints a finalized workload moved bulk data between, for link
/// accounting.
pub(crate) struct LinkDemand {
    pub src: Addr,
    pub dst: Addr,
    pub mbps: f64,
}

/// Which workload each HTTP connection belongs to, by [`FlowId::index`].
/// Every flow of a session has a slot, so a slot is kept at 8 bytes.
#[derive(Default)]
pub(crate) struct Owners(Vec<Option<u32>>);

impl Owners {
    fn insert(&mut self, flow: FlowId, idx: usize) {
        let (Some(slot), Ok(idx)) = (flow.index(), u32::try_from(idx)) else {
            return;
        };
        if self.0.len() <= slot {
            self.0.resize(slot + 1, None);
        }
        self.0[slot] = Some(idx);
    }

    /// The workload `flow` belongs to, if it is an HTTP connection.
    pub fn get(&self, flow: FlowId) -> Option<usize> {
        let idx = (*self.0.get(flow.index()?)?)?;
        usize::try_from(idx).ok()
    }
}

/// One workload of a running session: its endpoints resolved to container
/// addresses, its activity window pinned to the scenario timeline, and its
/// live state.
pub(crate) struct LiveWorkload {
    pub workload: Workload,
    pub server: Addr,
    pub clients: Vec<Addr>,
    pub start: SimTime,
    pub end: SimTime,
    state: State,
    /// `true` once `FlowStarted` went out to the sinks.
    pub started_emitted: bool,
    /// The report and the last live progress, once the window closed.
    pub finished: Option<(FlowReport, FlowProgress)>,
}

/// Runtime handles of a workload while its window is open.
enum State {
    /// iPerf TCP: one bulk flow.
    Tcp(FlowId),
    /// iPerf UDP: one constant-rate flow.
    Udp(FlowId),
    /// Ping and memcached: one echo probe per client.
    Probes(Vec<FlowId>),
    /// wrk2 and curl.
    Http(Http),
    /// Finalized: the handles were released.
    Done,
}

/// Live state of an HTTP workload. Only two things depend on the kind: how
/// a connection re-arms after a response, and the link-demand arithmetic.
struct Http {
    /// Open connections: the client each one serves, and when its current
    /// response started.
    flows: BTreeMap<FlowId, (usize, SimTime)>,
    request: DataSize,
    requests: u64,
    bytes_per_client: Vec<u64>,
    latencies_ms: Summary,
    per_second: HashMap<u64, u64>,
}

impl Http {
    /// Opens a connection that streams one response from `server` to
    /// client `ci`, starting at `at`.
    fn connect(
        &mut self,
        rt: &mut Runtime<AnyDataplane>,
        server: Addr,
        (ci, client): (usize, Addr),
        at: SimTime,
    ) -> FlowId {
        let flow = rt.add_tcp_flow(
            server,
            client,
            TransferSize::Bytes(self.request.as_bytes()),
            TcpSenderConfig::default(),
            at,
        );
        self.flows.insert(flow, (ci, at));
        flow
    }
}

impl LiveWorkload {
    /// Registers `workload`, resolved to `(server, clients)`, with the
    /// runtime at slot `idx` for the window `(start, end)`. The runtime
    /// honours future start times, so nothing moves before the window
    /// opens — which makes this the single registration path for both
    /// up-front declaration and mid-run injection.
    pub fn register(
        rt: &mut Runtime<AnyDataplane>,
        owner: &mut Owners,
        idx: usize,
        workload: Workload,
        (server, clients): (Addr, Vec<Addr>),
        (start, end): (SimTime, SimTime),
    ) -> Self {
        let probes = |rt: &mut Runtime<AnyDataplane>, interval: SimDuration, count: u64| {
            let probe = |&client| rt.add_ping(client, server, interval, count, start);
            State::Probes(clients.iter().map(probe).collect())
        };
        let mut http = |rt: &mut Runtime<AnyDataplane>, request: DataSize, per_client: usize| {
            let mut http = Http {
                flows: BTreeMap::new(),
                request,
                requests: 0,
                bytes_per_client: vec![0; clients.len()],
                latencies_ms: Summary::new(),
                per_second: HashMap::new(),
            };
            for client in clients.iter().copied().enumerate() {
                for _ in 0..per_client {
                    owner.insert(http.connect(rt, server, client, start), idx);
                }
            }
            State::Http(http)
        };
        // Validation gives every workload a client; iperf runs from its one.
        let client = clients.first().copied();
        let state = match workload.kind {
            WorkloadKind::IperfTcp { algorithm } => client.map_or(State::Done, |client| {
                let config = TcpSenderConfig::with_algorithm(algorithm);
                State::Tcp(rt.add_tcp_flow(client, server, TransferSize::Unbounded, config, start))
            }),
            WorkloadKind::IperfUdp { rate } => client.map_or(State::Done, |client| {
                State::Udp(rt.add_udp_flow(client, server, rate, start, Some(end)))
            }),
            WorkloadKind::Ping { count, interval } => probes(rt, interval, count),
            WorkloadKind::Wrk2 {
                connections,
                request,
            } => http(rt, request, connections),
            WorkloadKind::Curl { request } => http(rt, request, 1),
            WorkloadKind::Memcached { .. } => {
                let interval = SimDuration::from_millis(100);
                let window = end.saturating_since(start);
                let count = (window.as_secs_f64() / interval.as_secs_f64()).floor() as u64;
                probes(rt, interval, count.max(1))
            }
        };
        LiveWorkload {
            workload,
            server,
            clients,
            start,
            end,
            state,
            started_emitted: false,
            finished: None,
        }
    }

    /// Handles the completion of `flow`'s current response at `at`: counts
    /// it and re-arms the connection while the window is open.
    pub fn on_completion(
        &mut self,
        rt: &mut Runtime<AnyDataplane>,
        owner: &mut Owners,
        idx: usize,
        flow: FlowId,
        at: SimTime,
    ) {
        let State::Http(http) = &mut self.state else {
            return;
        };
        let Some(&(ci, started)) = http.flows.get(&flow) else {
            return;
        };
        let bytes = http.request.as_bytes();
        http.requests += 1;
        http.bytes_per_client[ci] += bytes;
        *http.per_second.entry(at.as_secs_f64() as u64).or_default() += bytes;
        http.latencies_ms
            .record(at.saturating_since(started).as_millis_f64());
        if matches!(self.workload.kind, WorkloadKind::Curl { .. }) {
            // Connection-per-request: the next request opens a new
            // connection, and its transfer restarts in slow start.
            http.flows.remove(&flow);
            rt.stop_tcp_flow(flow);
            if at < self.end {
                let client = (ci, self.clients[ci]);
                owner.insert(http.connect(rt, self.server, client, at), idx);
            }
        } else if at < self.end {
            // Keep the connection busy with the next response.
            rt.push_tcp_bytes(flow, bytes);
            http.flows.insert(flow, (ci, at));
        }
    }

    /// Point-in-time progress at `now`; the last live view once finalized.
    pub fn progress(&self, rt: &Runtime<AnyDataplane>, now: SimTime) -> FlowProgress {
        if let Some((_, progress)) = &self.finished {
            return progress.clone();
        }
        let replies = |&probe: &FlowId| rt.ping_rtts(probe).map(|s| s.len()).unwrap_or(0);
        let (bytes, replies, requests) = match &self.state {
            State::Tcp(flow) => (rt.tcp_received_bytes(*flow), 0, 0),
            State::Udp(flow) => (rt.udp_delivered_bytes(*flow), 0, 0),
            State::Probes(probes) => (0, probes.iter().map(replies).sum(), 0),
            State::Http(http) => (http.bytes_per_client.iter().sum(), 0, http.requests),
            State::Done => (0, 0, 0),
        };
        let (client, server) = self.workload.endpoint_names();
        FlowProgress {
            workload: self.workload.label().to_string(),
            client,
            server,
            status: if now < self.start {
                FlowStatus::Pending
            } else {
                FlowStatus::Running
            },
            start_s: self.start.as_secs_f64(),
            end_s: self.end.as_secs_f64(),
            bytes,
            replies,
            requests,
        }
    }

    /// Closes the window: releases the runtime handles, appends the bulk
    /// transfers to `demands`, and records (and returns) the report.
    pub fn finalize(
        &mut self,
        rt: &mut Runtime<AnyDataplane>,
        demands: &mut Vec<LinkDemand>,
    ) -> &FlowReport {
        let progress = FlowProgress {
            status: FlowStatus::Finished,
            ..self.progress(rt, self.end)
        };
        let window = self.end.saturating_since(self.start);
        // A window truncated to nothing by a duration cap measured nothing.
        let window = if window.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            window
        };
        let mut report = FlowReport {
            workload: progress.workload.clone(),
            client: progress.client.clone(),
            server: progress.server.clone(),
            start_s: progress.start_s,
            end_s: progress.end_s,
            ..FlowReport::default()
        };
        match std::mem::replace(&mut self.state, State::Done) {
            State::Tcp(flow) => {
                let bytes = rt.tcp_received_bytes(flow);
                let mbps = DataSize::from_bytes(bytes).rate_over(window).as_mbps();
                report.goodput_mbps = Some(mbps);
                report.per_second_mbps = window_series(rt, flow, self.start, self.end);
                report.retransmissions = rt.tcp_sender(flow).map(|s| s.stats().retransmissions);
                rt.stop_tcp_flow(flow);
                let (client, dst) = (self.clients.first(), self.server);
                demands.extend(client.map(|&src| LinkDemand { src, dst, mbps }));
            }
            State::Udp(flow) => {
                let bytes = rt.udp_delivered_bytes(flow);
                let mbps = DataSize::from_bytes(bytes).rate_over(window).as_mbps();
                report.goodput_mbps = Some(mbps);
                report.per_second_mbps = window_series(rt, flow, self.start, self.end);
                let (client, dst) = (self.clients.first(), self.server);
                demands.extend(client.map(|&src| LinkDemand { src, dst, mbps }));
            }
            State::Probes(probes) => {
                // The activity window is over: probes past it must not keep
                // contending with other workloads (or skew their link shares).
                for &probe in &probes {
                    rt.stop_ping(probe);
                }
                if let WorkloadKind::Memcached { connections } = self.workload.kind {
                    let rtts: Vec<f64> = probes
                        .iter()
                        .map(|&p| {
                            rt.ping_rtts(p)
                                .map(|s| s.mean())
                                .filter(|m| m.is_finite() && *m > 0.0)
                                .unwrap_or(1.0)
                        })
                        .collect();
                    report.ops_per_second = Some(memcached_throughput(
                        &rtts,
                        connections,
                        MEMCACHED_OP_TIME_US,
                        MEMCACHED_CAPACITY_OPS,
                    ));
                } else {
                    let first = probes.first().and_then(|&probe| rt.ping_rtts(probe));
                    let stats = first.cloned().unwrap_or_default();
                    report.rtt = Some(RttStats {
                        mean_ms: stats.mean(),
                        jitter_ms: stats.std_dev(),
                        min_ms: stats.min(),
                        max_ms: stats.max(),
                        replies: stats.len(),
                        samples_ms: stats.samples().to_vec(),
                    });
                }
            }
            State::Http(http) => {
                for flow in http.flows.keys() {
                    rt.stop_tcp_flow(*flow);
                }
                let bytes: u64 = http.bytes_per_client.iter().sum();
                report.goodput_mbps = Some(DataSize::from_bytes(bytes).rate_over(window).as_mbps());
                report.per_second_mbps = per_second_vec(&http.per_second, self.start, self.end);
                let latencies = &http.latencies_ms;
                report.http = Some(HttpStats {
                    requests: http.requests,
                    latency_p50_ms: latencies.percentile(50.0),
                    latency_p90_ms: latencies.percentile(90.0),
                    latency_p99_ms: latencies.percentile(99.0),
                    samples_ms: latencies.samples().to_vec(),
                });
                let curl = matches!(self.workload.kind, WorkloadKind::Curl { .. });
                let secs = window.as_secs_f64().max(f64::EPSILON);
                for (&dst, &bytes) in self.clients.iter().zip(&http.bytes_per_client) {
                    // Each kind keeps its own arithmetic: the integer-bps
                    // rate and the float quotient differ in the last digits.
                    let mbps = if curl {
                        (bytes as f64 * 8.0) / secs / 1.0e6
                    } else {
                        DataSize::from_bytes(bytes).rate_over(window).as_mbps()
                    };
                    demands.push(LinkDemand {
                        src: self.server,
                        dst,
                        mbps,
                    });
                }
            }
            State::Done => {}
        }
        &self.finished.insert((report, progress)).0
    }
}

fn window_series(
    rt: &Runtime<AnyDataplane>,
    flow: FlowId,
    start: SimTime,
    end: SimTime,
) -> Vec<f64> {
    rt.throughput_series(flow)
        .map(|s| {
            s.points()
                .iter()
                .filter(|p| p.time > start && p.time <= end)
                .map(|p| p.value)
                .collect()
        })
        .unwrap_or_default()
}

fn per_second_vec(per_second: &HashMap<u64, u64>, start: SimTime, end: SimTime) -> Vec<f64> {
    let first = start.as_secs_f64().floor() as u64;
    let last = end.as_secs_f64().ceil() as u64;
    (first..last)
        .map(|s| {
            DataSize::from_bytes(per_second.get(&s).copied().unwrap_or(0))
                .rate_over(SimDuration::from_secs(1))
                .as_mbps()
        })
        .collect()
}
