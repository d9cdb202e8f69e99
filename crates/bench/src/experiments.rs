//! The experiment implementations, one function per paper table/figure.
//!
//! Everything that drives traffic through a network under test is expressed
//! with the [`Scenario`] builder: topology + backend + named workloads in,
//! structured [`kollaps_scenario::Report`] out. The `Row` tables printed
//! here are thin views over those reports; the analytic experiments
//! (Figures 4 and 8-11) consume the collapsed properties and application
//! models directly.

use kollaps_baselines::maxinet::MaxinetConfig;
use kollaps_baselines::TrickleConfig;
use kollaps_core::sharing::{allocate, FlowDemand};
use kollaps_core::CollapsedTopology;
use kollaps_metadata::codec::{FlowUsage, MetadataMessage};
use kollaps_scenario::{Backend, Scenario, ScenarioError, Workload};
use kollaps_sim::prelude::*;
use kollaps_sim::stats::{deviation_percent, mean_squared_error, relative_error_percent};
use kollaps_topology::generators::{self, ScaleFreeParams};
use kollaps_topology::geo;
use kollaps_topology::graph::{PathProperties, TopologyGraph};
use kollaps_topology::model::{LinkProperties, Topology};
use kollaps_transport::tcp::CongestionAlgorithm;
use kollaps_workloads::{
    bft_latencies, cassandra_curve, memcached_throughput, BftSystem, CassandraConfig,
};

use crate::record::{BenchRecord, BenchReport, TOLERANCE_DETERMINISTIC};

/// A generic result row: a label plus (paper, measured) value pairs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. "128 Kb/s" or "us-east-2").
    pub label: String,
    /// Named values: (column, paper value, measured value). A NaN paper
    /// value means the paper does not report a number for that cell.
    pub values: Vec<(String, f64, f64)>,
}

/// Prints a result table: one line per row, `column: paper=x measured=y`
/// cells (NaN paper values render as `n/a`).
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    for row in rows {
        print!("{:<22}", row.label);
        for (name, paper, measured) in &row.values {
            if paper.is_nan() {
                print!(" | {name}: paper=n/a measured={measured:.3}");
            } else {
                print!(" | {name}: paper={paper:.3} measured={measured:.3}");
            }
        }
        println!();
    }
}

/// Runs one iPerf flow between the `client`/`server` pair of a
/// point-to-point topology on `backend` and returns the measured goodput in
/// Mb/s — `NaN` when the backend cannot emulate the topology (Table 2's
/// "N/A" cells).
fn p2p_goodput(topology: Topology, backend: Backend, duration: SimDuration) -> f64 {
    let result = Scenario::from_topology(topology)
        .named("p2p-iperf")
        .backend(backend)
        .workload(Workload::iperf_tcp("client", "server").duration(duration))
        .run();
    match result {
        Ok(report) => report.flows[0].goodput_mbps.unwrap_or(f64::NAN),
        Err(ScenarioError::UnsupportedBackend { .. }) => f64::NAN,
        Err(e) => panic!("p2p scenario failed: {e}"),
    }
}

/// **Table 2** — bandwidth shaping accuracy on a point-to-point topology.
pub fn run_table2(seconds: u64) -> Vec<Row> {
    // (label, bandwidth, paper Kollaps %, paper Mininet %, paper trickle tuned %).
    let cases: Vec<(&str, Bandwidth, f64, f64, f64)> = vec![
        ("128 Kb/s", Bandwidth::from_kbps(128), -5.0, -4.0, 2.0),
        ("512 Kb/s", Bandwidth::from_kbps(512), -5.0, -5.0, 2.0),
        ("128 Mb/s", Bandwidth::from_mbps(128), -5.0, -5.0, 2.0),
        ("512 Mb/s", Bandwidth::from_mbps(512), -5.0, -5.0, 1.0),
        ("1 Gb/s", Bandwidth::from_gbps(1), -4.0, -7.0, 0.0),
        ("2 Gb/s", Bandwidth::from_gbps(2), -4.0, f64::NAN, -1.5),
    ];
    let mut rows = Vec::new();
    for (label, bw, paper_kollaps, paper_mininet, paper_trickle) in cases {
        let secs = if bw >= Bandwidth::from_gbps(1) {
            seconds.min(2)
        } else {
            seconds
        };
        let duration = SimDuration::from_secs(secs);
        let shaped = |_: ()| {
            let (topo, _, _) =
                generators::point_to_point(bw, SimDuration::from_millis(5), SimDuration::ZERO);
            topo
        };
        // Kollaps and Mininet shape the actual link rate; Mininet reports
        // UnsupportedBackend (→ NaN) above its 1 Gb/s ceiling.
        let kollaps = p2p_goodput(shaped(()), Backend::kollaps(), duration);
        let kollaps_err = relative_error_percent(kollaps, bw.as_mbps());
        let mininet = p2p_goodput(shaped(()), Backend::mininet(), duration);
        let mininet_err = relative_error_percent(mininet, bw.as_mbps());
        // Trickle shapes in userspace on an otherwise unconstrained 10 Gb/s
        // network; the tuned (small-buffer) variant is the accurate one.
        let (unconstrained, _, _) = generators::point_to_point(
            Bandwidth::from_gbps(10),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let trickle = p2p_goodput(
            unconstrained,
            Backend::trickle(TrickleConfig::tuned(bw)),
            duration,
        );
        let trickle_err = relative_error_percent(trickle, bw.as_mbps());
        rows.push(Row {
            label: label.to_string(),
            values: vec![
                ("kollaps %err".into(), paper_kollaps, kollaps_err),
                ("mininet %err".into(), paper_mininet, mininet_err),
                ("trickle(tuned) %err".into(), paper_trickle, trickle_err),
            ],
        });
    }
    print_rows("Table 2: bandwidth shaping accuracy", &rows);
    rows
}

/// **Table 3** — jitter shaping accuracy for the AWS region latencies.
pub fn run_table3(pings: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut observed = Vec::new();
    let mut emulated = Vec::new();
    for &(region, latency_ms, jitter_ms) in geo::TABLE3_FROM_US_EAST_1 {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_gbps(1),
            SimDuration::from_millis_f64(latency_ms),
            SimDuration::from_millis_f64(jitter_ms),
        );
        let report = Scenario::from_topology(topo)
            .named(region)
            .backend(Backend::kollaps())
            .workload(
                Workload::ping("client", "server")
                    .count(pings)
                    .interval(SimDuration::from_millis(10)),
            )
            .run()
            .expect("table3 scenario");
        let rtt = report.flows[0].rtt.as_ref().expect("ping report");
        // The per-link jitter composes over both directions of the ping, so
        // the RTT jitter is sqrt(2) larger; report the one-way equivalent
        // like the paper's table does.
        let measured_jitter = rtt.jitter_ms / std::f64::consts::SQRT_2;
        observed.push(jitter_ms);
        emulated.push(measured_jitter);
        rows.push(Row {
            label: region.to_string(),
            values: vec![
                ("latency ms".into(), latency_ms, rtt.mean_ms / 2.0),
                ("jitter ms (EC2)".into(), jitter_ms, measured_jitter),
            ],
        });
    }
    let mse = mean_squared_error(&emulated, &observed);
    rows.push(Row {
        label: "MSE(jitter)".to_string(),
        values: vec![("paper 0.2029".into(), 0.2029, mse)],
    });
    print_rows("Table 3: jitter shaping accuracy", &rows);
    rows
}

/// Rebuilds a sampled multi-hop path as a standalone chain topology with
/// the same per-hop latencies and bandwidths, so each backend can emulate
/// the path in isolation (no cross traffic exists in the Table 4 probes).
fn chain_of(hops: &[(SimDuration, Bandwidth)]) -> Topology {
    let mut t = Topology::new();
    let src = t.add_service("src", 0, "ping");
    let dst = t.add_service("dst", 0, "ping");
    let mut prev = src;
    for (i, &(latency, bandwidth)) in hops.iter().enumerate() {
        let next = if i + 1 == hops.len() {
            dst
        } else {
            t.add_bridge(&format!("hop-{i}"))
        };
        t.add_bidirectional_link(prev, next, LinkProperties::new(latency, bandwidth), "chain");
        prev = next;
    }
    t
}

/// **Table 4** — RTT accuracy on large scale-free topologies.
///
/// `sizes` are the element counts (the paper uses 1000/2000/4000);
/// `sample_pairs` random node pairs are probed per topology. Each sampled
/// path is re-emulated as a chain scenario per system: Kollaps over 4 hosts
/// (container networking + the cross-host physical hop), Mininet with its
/// per-switch software forwarding, Maxinet with its controller round trip
/// (whose service time grows with the emulated topology size) and
/// cross-worker tunnelling.
pub fn run_table4(sizes: &[usize], sample_pairs: usize) -> Vec<Row> {
    let paper: std::collections::HashMap<usize, (f64, f64, f64)> = [
        (1000, (0.0261, 0.0079, 28.0779)),
        (2000, (0.0384, f64::NAN, 347.5303)),
        (4000, (0.0721, f64::NAN, f64::NAN)),
    ]
    .into_iter()
    .collect();
    let mut rows = Vec::new();
    for &size in sizes {
        let mut rng = SimRng::new(size as u64);
        let params = ScaleFreeParams {
            total_elements: size,
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
        let graph = TopologyGraph::new(&topo);
        let maxinet_config = MaxinetConfig {
            // The POX controller saturates as the emulated network grows, so
            // its per-flow service time rises superlinearly with topology
            // size (the paper's MSE jumps 28 → 347 from 1000 to 2000
            // elements; worst-case RTT errors of 11 ms / 40 ms).
            controller_rtt: SimDuration::from_millis_f64(8.0 * (size as f64 / 1000.0).powi(2)),
            ..MaxinetConfig::default()
        };
        let mut kollaps_sq = Vec::new();
        let mut mininet_sq = Vec::new();
        let mut maxinet_sq = Vec::new();
        for _ in 0..sample_pairs {
            let a = nodes[rng.gen_index(nodes.len())];
            let b = nodes[rng.gen_index(nodes.len())];
            if a == b {
                continue;
            }
            let Some(path) = graph.shortest_path_tree(a).path_to(b) else {
                continue;
            };
            let props = PathProperties::compose(&topo, &path).expect("fresh path");
            let theoretical_ms = props.rtt().as_millis_f64();
            let hops: Vec<(SimDuration, Bandwidth)> = path
                .iter()
                .map(|l| {
                    let p = topo.link(*l).expect("path link").properties;
                    (p.latency, p.bandwidth)
                })
                .collect();
            let chain = chain_of(&hops);
            let measure = |backend: Backend| -> f64 {
                let report = Scenario::from_topology(chain.clone())
                    .named("table4-probe")
                    .backend(backend)
                    .workload(
                        Workload::ping("src", "dst")
                            .count(2)
                            .interval(SimDuration::from_millis(50))
                            .duration(SimDuration::from_secs(1)),
                    )
                    .run()
                    .expect("table4 probe scenario");
                report.flows[0].rtt.as_ref().expect("ping report").mean_ms
            };
            kollaps_sq.push((measure(Backend::kollaps_on(4)), theoretical_ms));
            mininet_sq.push((measure(Backend::mininet()), theoretical_ms));
            maxinet_sq.push((
                measure(Backend::maxinet_with(maxinet_config)),
                theoretical_ms,
            ));
        }
        let mse = |v: &[(f64, f64)]| {
            let (obs, th): (Vec<f64>, Vec<f64>) = v.iter().copied().unzip();
            mean_squared_error(&obs, &th)
        };
        let (pk, pm, px) = paper
            .get(&size)
            .copied()
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        rows.push(Row {
            label: format!("{size} elements"),
            values: vec![
                ("kollaps MSE".into(), pk, mse(&kollaps_sq)),
                ("mininet MSE".into(), pm, mse(&mininet_sq)),
                ("maxinet MSE".into(), px, mse(&maxinet_sq)),
            ],
        });
    }
    print_rows("Table 4: large-scale topology RTT MSE", &rows);
    rows
}

/// **Figure 3** — metadata traffic for dumbbell topologies over 1-4 hosts.
pub fn run_fig3(seconds: u64) -> Vec<Row> {
    let configs = [(20usize, 10usize), (40, 20), (80, 40), (160, 80)];
    let mut rows = Vec::new();
    for (containers, flows) in configs {
        let pairs = containers / 2;
        let (topo, _, _) = generators::dumbbell(
            pairs,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let mut values = Vec::new();
        for hosts in [1usize, 2, 4] {
            let workloads = (0..flows.min(pairs)).map(|i| {
                Workload::iperf_udp(
                    &format!("client-{i}"),
                    &format!("server-{i}"),
                    Bandwidth::from_mbps(50),
                )
                .duration(SimDuration::from_secs(seconds))
            });
            let report = Scenario::from_topology(topo.clone())
                .named("fig3-metadata")
                .backend(Backend::kollaps_on(hosts))
                .workloads(workloads)
                .run()
                .expect("fig3 scenario");
            // KB/s on the physical network, like the paper's axis.
            let kbps = report.metadata_bytes.unwrap_or(0) as f64 / seconds.max(1) as f64 / 1_000.0;
            let paper = match hosts {
                1 => 0.0,
                _ => f64::NAN,
            };
            values.push((format!("{hosts} hosts KB/s"), paper, kbps));
        }
        rows.push(Row {
            label: format!("c={containers} f={flows}"),
            values,
        });
    }
    print_rows(
        "Figure 3: metadata network traffic (paper: 0 on 1 host, <= ~493 KB/s at c=160/4 hosts)",
        &rows,
    );
    rows
}

/// **Figure 4** — memcached aggregate throughput and metadata vs hosts.
pub fn run_fig4() -> Vec<Row> {
    // 4 regions; each server handles two local clients and one remote.
    let regions = geo::MEMCACHED_REGIONS;
    let local_rtt = 2.0 * 0.6 + 0.5;
    let mut client_rtts = Vec::new();
    for (i, _) in regions.iter().enumerate() {
        // Two local clients.
        client_rtts.push(local_rtt);
        client_rtts.push(local_rtt);
        // One remote client from the next region.
        let peer = regions[(i + 1) % regions.len()];
        client_rtts.push(2.0 * geo::one_way_latency_ms(regions[i], peer));
    }
    let mut rows = Vec::new();
    for &connections in &[1usize, 10] {
        let throughput = memcached_throughput(&client_rtts, connections, 80.0, 1.0e9);
        let mut values = vec![(
            "agg ops/s (same on 1-16 hosts)".to_string(),
            f64::NAN,
            throughput,
        )];
        // Metadata per host grows with host count but stays in the tens of
        // KB/s (paper Figure 4 right).
        for hosts in [1usize, 2, 4, 8, 16] {
            let per_host_kbs = if hosts == 1 {
                0.0
            } else {
                // One ~100-byte message per host per 50 ms loop to each peer.
                let msg = 3.0 + 12.0 * 9.0;
                msg * (hosts as f64 - 1.0) * 20.0 / 1000.0
            };
            values.push((format!("metadata KB/s @{hosts}h"), f64::NAN, per_host_kbs));
        }
        rows.push(Row {
            label: format!("{connections} conn/client"),
            values,
        });
    }
    print_rows(
        "Figure 4: memcached throughput is host-count independent; metadata stays < 30 KB/s",
        &rows,
    );
    rows
}

/// **Figure 5** — deviation from bare metal for long-lived flows
/// (iPerf, Cubic and Reno) on Kollaps vs Mininet.
pub fn run_fig5(seconds: u64) -> Vec<Row> {
    let bw = Bandwidth::from_gbps(1);
    let lat = SimDuration::from_millis(1);
    let duration = SimDuration::from_secs(seconds);
    let mut rows = Vec::new();
    for algo in [CongestionAlgorithm::Cubic, CongestionAlgorithm::Reno] {
        let measure = |backend: Backend| -> f64 {
            let (topo, _, _) = generators::point_to_point(bw, lat, SimDuration::ZERO);
            let report = Scenario::from_topology(topo)
                .named("fig5-long-lived")
                .backend(backend)
                .workload(
                    Workload::iperf_tcp("client", "server")
                        .algorithm(algo)
                        .duration(duration),
                )
                .run()
                .expect("fig5 scenario");
            report.flows[0].goodput_mbps.unwrap_or(f64::NAN)
        };
        let bare = measure(Backend::ground_truth());
        let kollaps = measure(Backend::kollaps());
        let mininet = measure(Backend::mininet());
        rows.push(Row {
            label: format!("{algo:?} long-lived"),
            values: vec![
                (
                    "kollaps dev% (paper <10)".into(),
                    f64::NAN,
                    deviation_percent(kollaps, bare),
                ),
                (
                    "mininet dev% (paper <10)".into(),
                    f64::NAN,
                    deviation_percent(mininet, bare),
                ),
            ],
        });
    }
    print_rows("Figure 5: long-lived flow deviation from bare metal", &rows);
    rows
}

/// **Figure 6** — HTTP throughput with 1/2/4/8 connection-per-request
/// clients on a 100 Mb/s link.
pub fn run_fig6(seconds: u64) -> Vec<Row> {
    let bw = Bandwidth::from_mbps(100);
    let lat = SimDuration::from_millis(2);
    let duration = SimDuration::from_secs(seconds);
    let request = DataSize::from_kib(64);
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let names: Vec<String> = (1..=clients).map(|i| format!("node-{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let measure = |backend: Backend| -> f64 {
            let (topo, _) = generators::star(clients + 1, bw, lat);
            let report = Scenario::from_topology(topo)
                .named("fig6-curl")
                .backend(backend)
                .workload(
                    Workload::curl("node-0", &name_refs)
                        .request_size(request)
                        .duration(duration),
                )
                .run()
                .expect("fig6 scenario");
            report.flows[0].goodput_mbps.unwrap_or(f64::NAN)
        };
        rows.push(Row {
            label: format!("{clients} curl clients"),
            values: vec![
                (
                    "baremetal Mb/s".into(),
                    f64::NAN,
                    measure(Backend::ground_truth()),
                ),
                ("kollaps Mb/s".into(), f64::NAN, measure(Backend::kollaps())),
                ("mininet Mb/s".into(), f64::NAN, measure(Backend::mininet())),
            ],
        });
    }
    print_rows(
        "Figure 6: HTTP throughput vs number of connection-per-request clients",
        &rows,
    );
    rows
}

/// **Figure 7** — mixed long- and short-lived flows: iPerf runs throughout,
/// wrk2 joins for the middle third of the experiment.
pub fn run_fig7(phase_seconds: u64) -> Vec<Row> {
    let bw = Bandwidth::from_mbps(100);
    let lat = SimDuration::from_millis(2);
    let total = 3 * phase_seconds;
    let run = |backend: Backend| -> (f64, f64, f64) {
        let (topo, _) = generators::star(3, bw, lat);
        let report = Scenario::from_topology(topo)
            .named("fig7-mixed")
            .backend(backend)
            // Host 1 runs an iPerf client towards host 3 the whole time...
            .workload(
                Workload::iperf_tcp("node-0", "node-2").duration(SimDuration::from_secs(total)),
            )
            // ...and wrk2 hammers host 1 from host 2 in the middle third.
            .workload(
                Workload::wrk2("node-0", "node-1")
                    .connections(20)
                    .request_size(DataSize::from_kib(64))
                    .start(SimDuration::from_secs(phase_seconds))
                    .duration(SimDuration::from_secs(phase_seconds)),
            )
            .run()
            .expect("fig7 scenario");
        let series = &report.flows[0].per_second_mbps;
        let phase = phase_seconds as usize;
        let mean = |lo: usize, hi: usize| -> f64 {
            let slice = &series[lo.min(series.len())..hi.min(series.len())];
            if slice.is_empty() {
                0.0
            } else {
                slice.iter().sum::<f64>() / slice.len() as f64
            }
        };
        (
            mean(0, phase),
            mean(phase, 2 * phase),
            mean(2 * phase, 3 * phase),
        )
    };
    let (k_pre, k_mid, k_post) = run(Backend::kollaps());
    let (b_pre, b_mid, b_post) = run(Backend::ground_truth());
    let rows = vec![
        Row {
            label: "iperf before wrk2".into(),
            values: vec![(
                "dev% (paper <5)".into(),
                f64::NAN,
                deviation_percent(k_pre, b_pre),
            )],
        },
        Row {
            label: "iperf during wrk2".into(),
            values: vec![(
                "dev% (paper <5)".into(),
                f64::NAN,
                deviation_percent(k_mid, b_mid),
            )],
        },
        Row {
            label: "iperf after wrk2".into(),
            values: vec![(
                "dev% (paper <5)".into(),
                f64::NAN,
                deviation_percent(k_post, b_post),
            )],
        },
    ];
    print_rows("Figure 7: mixed long- and short-lived flows", &rows);
    rows
}

/// **Figure 8** — decentralized bandwidth throttling: the analytic shares of
/// the RTT-aware Min-Max model as clients join and leave.
pub fn run_fig8() -> Vec<Row> {
    // Expected values straight from the paper's narrative.
    let paper: [(usize, Vec<f64>); 5] = [
        (2, vec![23.08, 26.92]),
        (3, vec![18.45, 21.55, 10.0]),
        (4, vec![18.45, 21.55, 10.0, 50.0]),
        (5, vec![16.89, 19.75, 10.0, 23.74, 29.62]),
        (6, vec![15.04, 17.55, 10.0, 21.06, 26.33, 10.0]),
    ];
    let (topo, clients, servers) = generators::figure8();
    let collapsed = CollapsedTopology::build(&topo);
    let mut rows = Vec::new();
    for (n, expected) in paper {
        let flows: Vec<FlowDemand> = (0..n)
            .map(|i| {
                let path = collapsed.path(clients[i], servers[i]).unwrap();
                FlowDemand {
                    id: i as u64,
                    links: path.links.clone(),
                    rtt: collapsed.rtt(clients[i], servers[i]).unwrap(),
                    demand: path.max_bandwidth,
                }
            })
            .collect();
        let alloc = allocate(&flows, collapsed.link_capacities());
        let values = expected
            .iter()
            .enumerate()
            .map(|(i, &paper_mbps)| {
                (
                    format!("C{}", i + 1),
                    paper_mbps,
                    alloc.of(i as u64).as_mbps(),
                )
            })
            .collect();
        rows.push(Row {
            label: format!("{n} active clients"),
            values,
        });
    }
    print_rows(
        "Figure 8: decentralized bandwidth throttling (Mb/s per client)",
        &rows,
    );
    rows
}

/// **Figure 9** — reproduction of the BFT-SMaRt / Wheat geo-replication
/// experiment: 50th/90th percentile client latency per region.
pub fn run_fig9() -> Vec<Row> {
    let regions = geo::WHEAT_REGIONS;
    let rtts: Vec<Vec<f64>> = regions
        .iter()
        .map(|&a| {
            regions
                .iter()
                .map(|&b| 2.0 * geo::one_way_latency_ms(a, b))
                .collect()
        })
        .collect();
    // Virginia (index 4) hosts the leader in the original deployment.
    let bft = bft_latencies(&rtts, 1.5, 4, BftSystem::BftSmart, 17);
    let wheat = bft_latencies(&rtts, 1.5, 4, BftSystem::Wheat, 17);
    let mut rows = Vec::new();
    for (i, region) in regions.iter().enumerate() {
        rows.push(Row {
            label: region.0.to_string(),
            values: vec![
                ("BFT-SMaRt p50 ms".into(), f64::NAN, bft[i].0),
                ("BFT-SMaRt p90 ms".into(), f64::NAN, bft[i].1),
                ("Wheat p50 ms".into(), f64::NAN, wheat[i].0),
                ("Wheat p90 ms".into(), f64::NAN, wheat[i].1),
            ],
        });
    }
    print_rows(
        "Figure 9: BFT-SMaRt vs Wheat client latency per region (Wheat <= BFT-SMaRt, paper max diff 7.3%)",
        &rows,
    );
    rows
}

/// **Figure 10** — geo-replicated Cassandra throughput/latency curve.
pub fn run_fig10() -> Vec<Row> {
    let cfg = CassandraConfig::frankfurt_sydney();
    let targets: Vec<f64> = (1..=10).map(|i| i as f64 * 500.0).collect();
    let curve = cassandra_curve(&cfg, &targets, 11);
    let rows: Vec<Row> = curve
        .iter()
        .map(|p| Row {
            label: format!("target {:.0} ops/s", p.target_ops),
            values: vec![
                ("achieved ops/s".into(), f64::NAN, p.achieved_ops),
                ("latency ms".into(), f64::NAN, p.latency_ms),
            ],
        })
        .collect();
    print_rows(
        "Figure 10: Cassandra on Kollaps (paper: EC2 and Kollaps curves match; knee near 5000 ops/s, ~150-400 ms)",
        &rows,
    );
    rows
}

/// **Figure 11** — what-if: halving the inter-region latency.
pub fn run_fig11() -> Vec<Row> {
    let base = CassandraConfig::frankfurt_sydney();
    let half = base.halved_latency();
    let targets: Vec<f64> = (1..=10).map(|i| i as f64 * 500.0).collect();
    let before = cassandra_curve(&base, &targets, 13);
    let after = cassandra_curve(&half, &targets, 13);
    let rows: Vec<Row> = targets
        .iter()
        .enumerate()
        .map(|(i, &t)| Row {
            label: format!("target {t:.0} ops/s"),
            values: vec![
                ("read ms (orig)".into(), f64::NAN, before[i].read_latency_ms),
                (
                    "update ms (orig)".into(),
                    f64::NAN,
                    before[i].update_latency_ms,
                ),
                (
                    "read ms (halved)".into(),
                    f64::NAN,
                    after[i].read_latency_ms,
                ),
                (
                    "update ms (halved)".into(),
                    f64::NAN,
                    after[i].update_latency_ms,
                ),
            ],
        })
        .collect();
    print_rows(
        "Figure 11: what-if halved latency (paper: request latencies drop by about half)",
        &rows,
    );
    rows
}

/// **Accuracy vs staleness** — the trade-off Figures 3/4 are about, made
/// measurable: how far the decentralized per-host enforcement drifts from
/// the omniscient allocation as the emulation loop slows down and the
/// metadata delay grows.
///
/// Four client/server pairs on a dumbbell are split across two physical
/// hosts so that every flow competes with flows managed by the *other*
/// Emulation Manager; the flows join staggered, so each join forces the
/// remote manager to re-share the bottleneck from received metadata, and
/// the report's convergence metric records the worst relative gap.
///
/// Returns the perf-trajectory records for `BENCH_staleness.json`: the gaps
/// are deterministic simulation outputs, so they gate tightly — an
/// enforcement change that worsens convergence at any staleness point fails
/// the build.
pub fn run_staleness(seconds: u64) -> BenchReport {
    let (topo, _, _) = generators::dumbbell(
        4,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let mut records = BenchReport::new("staleness");
    for loop_ms in [10u64, 50, 100] {
        for delay_ms in [0u64, 10, 50] {
            let config = kollaps_core::emulation::EmulationConfig {
                loop_interval: SimDuration::from_millis(loop_ms),
                metadata_delay: SimDuration::from_millis(delay_ms),
                ..Default::default()
            };
            let workloads = (0..4).map(|i| {
                Workload::iperf_udp(
                    &format!("client-{i}"),
                    &format!("server-{i}"),
                    Bandwidth::from_mbps(30),
                )
                .start(SimDuration::from_millis(i * 700))
                .duration(SimDuration::from_secs(seconds))
            });
            let mut scenario = Scenario::from_topology(topo.clone())
                .named("accuracy-vs-staleness")
                .backend(Backend::kollaps_with(2, config));
            // Alternate whole pairs between the two hosts (client-i and
            // server-i stay together): flows 0/2 live on host 0 and 1/3 on
            // host 1, so on the shared trunk every flow competes with two
            // remote flows whose usage arrives only via the (delayed) bus,
            // plus one local one.
            for i in 0..4u32 {
                scenario = scenario
                    .place(&format!("client-{i}"), i % 2)
                    .place(&format!("server-{i}"), i % 2);
            }
            let report = scenario
                .workloads(workloads)
                .run()
                .expect("staleness scenario");
            let convergence = report.convergence.expect("kollaps convergence");
            let gap = |name: &str, gap: f64| {
                BenchRecord::new(name, gap * 100.0, "percent")
                    .axis("loop_ms", loop_ms)
                    .axis("delay_ms", delay_ms)
                    .lower_is_better(TOLERANCE_DETERMINISTIC)
            };
            records.push(gap("mean_gap", convergence.mean_gap));
            records.push(gap("max_gap", convergence.max_gap));
        }
    }
    records
}

/// Size in bytes of the metadata message for a given flow count (the
/// Figure 3 discussion: 160 flows still fit one datagram).
pub fn metadata_message_size(flows: usize, links_per_flow: usize) -> usize {
    let mut msg = MetadataMessage::new();
    for i in 0..flows {
        msg.flows.push(FlowUsage::new(
            Bandwidth::from_mbps(50),
            (0..links_per_flow)
                .map(|j| (i + j) as u16 % 250)
                .collect::<Vec<u16>>(),
        ));
    }
    msg.encoded_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::rng::SimRng;

    #[test]
    fn fig8_matches_paper_values() {
        let rows = run_fig8();
        for row in &rows {
            for (name, paper, measured) in &row.values {
                assert!(
                    (paper - measured).abs() < 0.15,
                    "{}/{name}: paper {paper} vs measured {measured}",
                    row.label
                );
            }
        }
    }

    #[test]
    fn table3_mse_is_small() {
        let rows = run_table3(200);
        let (_, paper, measured) = &rows.last().unwrap().values[0];
        assert!(*measured < *paper * 3.0 + 0.3, "MSE {measured}");
    }

    #[test]
    fn metadata_message_fits_datagram_at_fig3_scale() {
        assert!(metadata_message_size(160, 4) <= 1472);
    }

    #[test]
    fn table4_probe_chain_mirrors_the_sampled_path() {
        let mut rng = SimRng::new(7);
        let params = ScaleFreeParams {
            total_elements: 120,
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
        let graph = TopologyGraph::new(&topo);
        let path = graph.shortest_path_tree(nodes[0]).path_to(nodes[1]);
        let path = path.expect("connected");
        let props = PathProperties::compose(&topo, &path).unwrap();
        let hops: Vec<(SimDuration, Bandwidth)> = path
            .iter()
            .map(|l| {
                let p = topo.link(*l).unwrap().properties;
                (p.latency, p.bandwidth)
            })
            .collect();
        let chain = chain_of(&hops);
        let chain_graph = TopologyGraph::new(&chain);
        let src = chain.node_by_name("src").unwrap();
        let dst = chain.node_by_name("dst").unwrap();
        let chain_path = chain_graph.shortest_path_tree(src).path_to(dst).unwrap();
        let chain_props = PathProperties::compose(&chain, &chain_path).unwrap();
        assert_eq!(chain_props.latency, props.latency);
        assert_eq!(chain_props.max_bandwidth, props.max_bandwidth);
        assert_eq!(chain_path.len(), path.len());
    }

    #[test]
    fn fig10_and_fig11_shapes() {
        let f10 = run_fig10();
        assert!(f10.last().unwrap().values[1].2 > f10[0].values[1].2);
        let f11 = run_fig11();
        let first = &f11[0];
        let orig_update = first.values[1].2;
        let half_update = first.values[3].2;
        assert!(half_update < orig_update * 0.65);
    }

    #[test]
    fn fig9_wheat_never_slower() {
        let rows = run_fig9();
        for row in rows {
            let bft50 = row.values[0].2;
            let wheat50 = row.values[2].2;
            assert!(wheat50 <= bft50 * 1.05, "{}", row.label);
        }
    }
}
