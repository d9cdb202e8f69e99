//! The layered pass: one extra run per workload through
//! `Runtime<Probe<KollapsDataplane>>`, with every set-up step timed around
//! the same public constructors `Scenario::session()` uses.
//!
//! The pass keeps a ledger — set-up rows, the four probe lanes and the
//! runtime's residual — that must cover at least [`LEDGER_FLOOR`] of its
//! own wall time, and it must reproduce the untraced run's per-flow goodput
//! bit for bit (the caller checks that), which is what makes its
//! attribution a statement about the untraced run.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use kollaps_core::{CollapsedTopology, KollapsDataplane, Runtime, RuntimeEvent, SnapshotTimeline};
use kollaps_netmodel::packet::{Addr, FlowId};
use kollaps_sim::prelude::*;
use kollaps_topology::events::EventSchedule;
use kollaps_trace::Recorder;
use kollaps_transport::tcp::{TcpSenderConfig, TransferSize};

use crate::probe::{Probe, TickRow};
use crate::workloads::{Spec, Traffic, STEP};

/// The ledger must account for at least this share of the pass's wall time.
pub const LEDGER_FLOOR: f64 = 0.95;

/// What one layered pass measured.
#[derive(Debug, Clone)]
pub struct Layered {
    /// Per-layer metric values by `BENCHMARK.json` name (those this pass
    /// can measure on its own; see `crate::run::per_layer`).
    pub values: BTreeMap<&'static str, f64>,
    /// One row per emulation tick.
    pub rows: Vec<TickRow>,
    /// Goodput per flow report, Mb/s, by the scenario layer's own formula.
    pub goodput_mbps: Vec<f64>,
    /// HTTP requests completed (zero for non-HTTP workloads).
    pub requests: u64,
    /// Wall seconds of the whole pass (the ledger's denominator).
    pub wall_s: f64,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Live state of the `curl` groups, mirroring the scenario runner: every
/// completion closes its connection and opens the next one at the
/// completion time, handled at the following dispatch point.
struct CurlState {
    /// `(group, server, client)` of every open connection.
    open: HashMap<FlowId, (usize, Addr, Addr)>,
    requests: Vec<u64>,
}

/// Runs the layered pass of `spec`.
pub fn run(spec: &Spec) -> Layered {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let pass_started = Instant::now();

    // Set-up, step by step, exactly as `Scenario::expand` + `Backend::build`.
    let t = Instant::now();
    let schedule = match &spec.churn {
        Some(churn) => churn
            .generate(&spec.topology)
            .expect("generated churn names existing links"),
        None => EventSchedule::new(),
    };
    values.insert("dynamics.generate_us", us(t));
    values.insert("dynamics.events", schedule.len() as f64);

    let t = Instant::now();
    let timeline = SnapshotTimeline::precompute_with(&spec.topology, &schedule, 1);
    values.insert("timeline.precompute_us", us(t));
    values.insert("timeline.snapshots", timeline.len() as f64);
    values.insert("collapse.pairs", timeline.initial().pair_count() as f64);

    let t = Instant::now();
    let mut dataplane =
        KollapsDataplane::with_prepared(timeline, spec.hosts, &HashMap::new(), spec.config);
    values.insert("emulation.construct_us", us(t));
    // The recorder is what makes `phase_timing()` available from outside.
    dataplane.set_recorder(Recorder::new(1 + spec.hosts));

    let t = Instant::now();
    let addr = |dp: &KollapsDataplane, name: &str| spec.addr(dp.collapsed(), name);
    let end = SimTime::ZERO + spec.horizon;
    let mut rt = Runtime::new(Probe::new(dataplane));
    let mut flows: Vec<FlowId> = Vec::new();
    let mut curl = CurlState {
        open: HashMap::new(),
        requests: Vec::new(),
    };
    match &spec.traffic {
        Traffic::Udp { flows: pairs, rate } => {
            for (c, s) in pairs {
                let (src, dst) = (addr(&rt.dataplane.inner, c), addr(&rt.dataplane.inner, s));
                flows.push(rt.add_udp_flow(src, dst, *rate, SimTime::ZERO, Some(end)));
            }
        }
        Traffic::Tcp { flows: pairs } => {
            for (c, s) in pairs {
                let (src, dst) = (addr(&rt.dataplane.inner, c), addr(&rt.dataplane.inner, s));
                flows.push(rt.add_tcp_flow(
                    src,
                    dst,
                    TransferSize::Unbounded,
                    TcpSenderConfig::default(),
                    SimTime::ZERO,
                ));
            }
        }
        Traffic::Curl { groups, size } => {
            for (g, (s, clients)) in groups.iter().enumerate() {
                let server = addr(&rt.dataplane.inner, s);
                curl.requests.push(0);
                for c in clients {
                    let client = addr(&rt.dataplane.inner, c);
                    let flow = rt.add_tcp_flow(
                        server,
                        client,
                        TransferSize::Bytes(size.as_bytes()),
                        TcpSenderConfig::default(),
                        SimTime::ZERO,
                    );
                    curl.open.insert(flow, (g, server, client));
                }
            }
        }
    }
    let register_us = us(t);

    // The stepping loop: the session's dispatch points.
    let run_started = Instant::now();
    let mut now = SimTime::ZERO;
    while now < end {
        now = (now + STEP).min(end);
        let events = rt.run_until(now);
        if let Traffic::Curl { size, .. } = &spec.traffic {
            for event in events {
                let RuntimeEvent::TcpCompleted { flow, at } = event else {
                    continue;
                };
                let Some((g, server, client)) = curl.open.remove(&flow) else {
                    continue;
                };
                curl.requests[g] += 1;
                rt.stop_tcp_flow(flow);
                if at < end {
                    let next = rt.add_tcp_flow(
                        server,
                        client,
                        TransferSize::Bytes(size.as_bytes()),
                        TcpSenderConfig::default(),
                        at,
                    );
                    curl.open.insert(next, (g, server, client));
                }
            }
        }
    }
    let run_us = us(run_started);
    let wall_s = pass_started.elapsed().as_secs_f64() + spec.topology_build_us / 1e6;

    // Results, by the scenario layer's own goodput formula.
    let mbps = |bytes: u64| {
        DataSize::from_bytes(bytes)
            .rate_over(spec.horizon)
            .as_mbps()
    };
    let goodput_mbps = match &spec.traffic {
        Traffic::Udp { .. } => flows
            .iter()
            .map(|&f| mbps(rt.udp_delivered_bytes(f)))
            .collect(),
        Traffic::Tcp { .. } => flows
            .iter()
            .map(|&f| mbps(rt.tcp_received_bytes(f)))
            .collect(),
        Traffic::Curl { size, .. } => curl
            .requests
            .iter()
            .map(|r| mbps(r * size.as_bytes()))
            .collect(),
    };

    // The ledger.
    let lanes = rt.dataplane.lanes();
    let lane_us = |ns: u64| ns as f64 / 1e3;
    let self_us = (run_us - lane_us(lanes.total_ns())).max(0.0);
    values.insert("topology.build_us", spec.topology_build_us);
    values.insert("runtime.register_us", register_us);
    values.insert("emulation.send_us", lane_us(lanes.send_ns));
    values.insert("emulation.next_wakeup_us", lane_us(lanes.next_wakeup_ns));
    values.insert("emulation.deliver_us", lane_us(lanes.deliver_ns));
    values.insert("emulation.tick_us", lane_us(lanes.tick_ns));
    values.insert("runtime.self_us", self_us);
    let ledger_us: f64 = [
        "topology.build_us",
        "dynamics.generate_us",
        "timeline.precompute_us",
        "emulation.construct_us",
        "runtime.register_us",
        "emulation.send_us",
        "emulation.next_wakeup_us",
        "emulation.deliver_us",
        "emulation.tick_us",
        "runtime.self_us",
    ]
    .iter()
    .map(|name| values[name])
    .sum();
    values.insert("ledger.coverage_pct", 100.0 * ledger_us / (wall_s * 1e6));

    // Counts and ratios at the same boundaries.
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.insert("emulation.send_calls", lanes.send_calls as f64);
    values.insert(
        "emulation.send_backpressure_ratio",
        ratio(lanes.send_backpressure, lanes.send_calls),
    );
    values.insert("emulation.send_dropped", lanes.send_dropped as f64);
    values.insert(
        "emulation.next_wakeup_calls",
        lanes.next_wakeup_calls as f64,
    );
    values.insert("emulation.deliver_calls", lanes.deliver_calls as f64);
    values.insert("emulation.deliver_packets", lanes.deliver_packets as f64);
    values.insert(
        "emulation.deliver_empty_ratio",
        ratio(lanes.deliver_empty, lanes.deliver_calls),
    );
    values.insert(
        "emulation.wakeups_per_packet",
        ratio(lanes.next_wakeup_calls, lanes.deliver_packets),
    );
    values.insert("emulation.tick_calls", lanes.tick_calls as f64);
    values.insert(
        "runtime.self_ns_per_packet",
        self_us * 1e3 / lanes.deliver_packets.max(1) as f64,
    );

    // Inside the tick, from the dataplane's own public accounting.
    let dp = &rt.dataplane.inner;
    let mut phases_us = 0.0;
    for (phase, stats) in dp.phase_timing().unwrap_or_default() {
        let name = match phase {
            "collect" => "tick.collect_us",
            "publish" => "tick.publish_us",
            "synchronize" => "tick.synchronize_us",
            "drain" => "tick.drain_us",
            "enforce" => "tick.enforce_us",
            other => panic!("unknown loop phase `{other}`"),
        };
        values.insert(name, stats.total_micros as f64);
        phases_us += stats.total_micros as f64;
    }
    values.insert(
        "tick.other_us",
        (lane_us(lanes.tick_ns) - phases_us).max(0.0),
    );
    let allocator = dp.allocator_stats();
    values.insert("sharing.alloc_us", dp.allocation_micros() as f64);
    values.insert("sharing.calls", allocator.calls as f64);
    values.insert("sharing.fast_hits", allocator.fast_hits as f64);
    values.insert(
        "sharing.components_recomputed",
        allocator.components_recomputed as f64,
    );
    values.insert(
        "sharing.components_reused",
        allocator.components_reused as f64,
    );
    let dynamics = dp.dynamics();
    values.insert("dynamics.events_applied", dynamics.events_applied as f64);
    values.insert(
        "dynamics.chains_touched",
        dynamics.chains_touched_total as f64,
    );
    values.insert("dynamics.mean_swap_cost", dynamics.mean_swap_cost());
    let metadata_bytes = dp.metadata_accounting().total_network_bytes();
    values.insert("metadata.bytes", metadata_bytes as f64);
    values.insert(
        "metadata.bytes_per_tick",
        ratio(metadata_bytes, lanes.tick_calls),
    );
    let convergence = dp.convergence();
    values.insert("convergence.mean_gap", convergence.mean_gap());
    values.insert("convergence.max_gap", convergence.max_gap);

    Layered {
        values,
        rows: rt.dataplane.rows().to_vec(),
        goodput_mbps,
        requests: curl.requests.iter().sum(),
        wall_s,
    }
}

/// `CollapsedTopology::build` on its own: the all-pairs collapse that the
/// timeline precompute starts with (a sub-row of `timeline.precompute_us`,
/// not a ledger row). Returns the collapsed view and its wall microseconds.
pub fn collapse(spec: &Spec) -> (CollapsedTopology, f64) {
    let t = Instant::now();
    let collapsed = CollapsedTopology::build_with_threads(&spec.topology, 1);
    (collapsed, us(t))
}
