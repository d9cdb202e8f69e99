//! The four workloads: seeded input generation.
//!
//! A workload is plain data derived from `(name, seed, scale)`: a topology,
//! an optional churn generator, a traffic set named by service, the
//! deployment size and the virtual horizon. The program under test only
//! ever sees these generated inputs — through [`Spec::scenario`] on the
//! end-to-end passes and through the same public constructors on the
//! layered pass. The *why* of each workload lives in `BENCHMARK.json` and
//! the README.

use kollaps_core::{CollapsedTopology, EmulationConfig};
use kollaps_netmodel::packet::Addr;
use kollaps_scenario::{Backend, Churn, Scenario, Workload};
use kollaps_sim::prelude::*;
use kollaps_topology::generators::{self, ScaleFreeParams};
use kollaps_topology::model::Topology;

use crate::kernel::XorShift;

/// Workload names, in the round-robin order of a full run.
pub const WORKLOADS: [&str; 4] = ["udp_fanout", "tcp_bulk", "short_flows", "churn_mesh"];

/// Seed used when none is given; `expected/<workload>.json` is pinned to it.
pub const DEFAULT_SEED: u64 = 1;

/// The session's event-dispatch interval (the scenario layer's default):
/// a `curl` client issues one request per dispatch point.
pub const STEP: SimDuration = SimDuration::from_millis(100);

/// Stream the structure of `churn_mesh` is drawn from, whatever the seed.
const MESH_STRUCTURE_SEED: u64 = 1;

/// What the workload sends.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Constant-bit-rate UDP flows `(client, server)` at `rate`.
    Udp {
        /// Endpoint names per flow.
        flows: Vec<(String, String)>,
        /// Application rate of every flow.
        rate: Bandwidth,
    },
    /// Unbounded bulk TCP flows `(client, server)`.
    Tcp {
        /// Endpoint names per flow.
        flows: Vec<(String, String)>,
    },
    /// Connection-per-request HTTP: one `(server, clients)` group per
    /// server, every client fetching `size` bytes over a fresh connection.
    Curl {
        /// `(server, clients)` per group.
        groups: Vec<(String, Vec<String>)>,
        /// Response size.
        size: DataSize,
    },
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// The emulated topology.
    pub topology: Topology,
    /// Dynamic-event generator, if the workload has churn.
    pub churn: Option<Churn>,
    /// The traffic set.
    pub traffic: Traffic,
    /// Physical hosts the containers are spread over.
    pub hosts: usize,
    /// Virtual seconds emulated.
    pub horizon: SimDuration,
    /// Emulation knobs: defaults, one thread, the workload seed.
    pub config: EmulationConfig,
    /// Wall microseconds the topology generator took (a ledger row).
    pub topology_build_us: f64,
}

/// `n` distinct indices out of `0..len`, in seeded order.
fn pick(rng: &mut XorShift, len: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut all);
    all.truncate(n);
    all
}

fn dumbbell(pairs: usize, edge_mbps: u64, trunk_mbps: u64, edge_ms: u64) -> (Topology, f64) {
    let started = std::time::Instant::now();
    let (topology, _, _) = generators::dumbbell(
        pairs,
        Bandwidth::from_mbps(edge_mbps),
        Bandwidth::from_mbps(trunk_mbps),
        SimDuration::from_millis(edge_ms),
        SimDuration::from_millis(10),
    );
    (topology, started.elapsed().as_secs_f64() * 1e6)
}

impl Spec {
    /// Generates workload `name` from `seed`. `scale` divides the virtual
    /// horizon (1 for measurements, 10 for `--smoke` and the self-tests);
    /// topology and flow set never shrink.
    pub fn generate(name: &str, seed: u64, scale: u64) -> Option<Spec> {
        let mut rng = XorShift::new(seed ^ 0x5EED_0000);
        let horizon = |secs: u64| SimDuration::from_millis(secs * 1_000 / scale.max(1));
        let client = |i: usize| format!("client-{i}");
        let server = |i: usize| format!("server-{i}");
        let (name, (topology, topology_build_us), churn, traffic, hosts, horizon) = match name {
            "udp_fanout" => {
                let flows = (0..150)
                    .flat_map(|c| {
                        pick(&mut rng, 150, 8)
                            .into_iter()
                            .map(move |s| (client(c), server(s)))
                    })
                    .collect();
                let rate = Bandwidth::from_kbps(240);
                (
                    "udp_fanout",
                    dumbbell(150, 100, 1_000, 1),
                    None,
                    Traffic::Udp { flows, rate },
                    4,
                    horizon(2),
                )
            }
            "tcp_bulk" => {
                let flows = pick(&mut rng, 32, 32)
                    .into_iter()
                    .enumerate()
                    .map(|(c, s)| (client(c), server(s)))
                    .collect();
                (
                    "tcp_bulk",
                    dumbbell(32, 100, 200, 2),
                    None,
                    Traffic::Tcp { flows },
                    2,
                    horizon(30),
                )
            }
            "short_flows" => {
                let groups = (0..64)
                    .map(|s| {
                        let clients = pick(&mut rng, 64, 4).into_iter().map(client).collect();
                        (server(s), clients)
                    })
                    .collect();
                let size = DataSize::from_kib(16);
                (
                    "short_flows",
                    dumbbell(64, 100, 500, 2),
                    None,
                    Traffic::Curl { groups, size },
                    4,
                    horizon(20),
                )
            }
            "churn_mesh" => {
                // The mesh's structure — graph, flapped links, endpoint
                // pairs and their declaration order — comes from a fixed
                // stream: on this emulator the cost of a run swings 2x with
                // which paths the flows take and even with the order they
                // are declared in (README, anomalies), so a structure that
                // followed the seed would bury every comparison in input
                // variance. The seed decides each flow's direction and
                // feeds the churn and emulation seeds.
                let mut structure = XorShift::new(MESH_STRUCTURE_SEED);
                let started = std::time::Instant::now();
                let params = ScaleFreeParams {
                    total_elements: 150,
                    ..ScaleFreeParams::default()
                };
                let (topology, nodes, _) =
                    generators::barabasi_albert(&params, &mut SimRng::new(MESH_STRUCTURE_SEED));
                let topology_build_us = started.elapsed().as_secs_f64() * 1e6;
                let name_of = |id| {
                    topology
                        .node(id)
                        .map(|n| n.kind.display_name())
                        .unwrap_or_default()
                };
                // Core (switch-switch) links, one entry per undirected pair.
                let mut core: Vec<(String, String)> = topology
                    .links()
                    .iter()
                    .filter(|l| l.network == "core" && l.from < l.to)
                    .map(|l| (name_of(l.from), name_of(l.to)))
                    .collect();
                structure.shuffle(&mut core);
                core.truncate(8);
                let flapped: Vec<(&str, &str)> =
                    core.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                let horizon = horizon(5);
                let churn = Churn::poisson_flaps(&flapped)
                    .mean_uptime(SimDuration::from_millis(400))
                    .mean_downtime(SimDuration::from_millis(100))
                    .horizon(horizon)
                    .seed(seed);
                let flows = (0..50)
                    .map(|_| {
                        let pair = pick(&mut structure, nodes.len(), 2);
                        let (a, b) = (name_of(nodes[pair[0]]), name_of(nodes[pair[1]]));
                        if rng.next_u64() & 1 == 1 {
                            (b, a)
                        } else {
                            (a, b)
                        }
                    })
                    .collect();
                let rate = Bandwidth::from_mbps(2);
                (
                    "churn_mesh",
                    (topology, topology_build_us),
                    Some(churn),
                    Traffic::Udp { flows, rate },
                    4,
                    horizon,
                )
            }
            _ => return None,
        };
        Some(Spec {
            name,
            seed,
            topology,
            churn,
            traffic,
            hosts,
            horizon,
            config: EmulationConfig {
                seed,
                threads: 1,
                ..EmulationConfig::default()
            },
            topology_build_us,
        })
    }

    /// The scenario the end-to-end passes run: tracing and sampling off,
    /// one thread, the in-process Kollaps backend.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::from_topology(self.topology.clone())
            .named(self.name)
            .backend(Backend::kollaps_with(self.hosts, self.config))
            .threads(1)
            .duration(self.horizon);
        if let Some(churn) = &self.churn {
            scenario = scenario.churn(churn.clone());
        }
        match &self.traffic {
            Traffic::Udp { flows, rate } => scenario.workloads(
                flows
                    .iter()
                    .map(|(c, s)| Workload::iperf_udp(c, s, *rate).duration(self.horizon)),
            ),
            Traffic::Tcp { flows } => scenario.workloads(
                flows
                    .iter()
                    .map(|(c, s)| Workload::iperf_tcp(c, s).duration(self.horizon)),
            ),
            Traffic::Curl { groups, size } => scenario.workloads(groups.iter().map(|(s, cs)| {
                let clients: Vec<&str> = cs.iter().map(String::as_str).collect();
                Workload::curl(s, &clients)
                    .request_size(*size)
                    .duration(self.horizon)
            })),
        }
    }

    /// Container address of service `name` in `collapsed`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a service of the topology; generated
    /// workloads only name services.
    pub fn addr(&self, collapsed: &CollapsedTopology, name: &str) -> Addr {
        self.topology
            .node_by_name(name)
            .and_then(|node| collapsed.address_of(node))
            .unwrap_or_else(|| panic!("workload endpoint `{name}` is not a service"))
    }

    /// Operations attempted: one per flow, or one per HTTP request slot
    /// (clients × horizon ÷ step interval).
    pub fn attempted(&self) -> u64 {
        match &self.traffic {
            Traffic::Udp { flows, .. } | Traffic::Tcp { flows } => flows.len() as u64,
            Traffic::Curl { groups, .. } => {
                let clients: u64 = groups.iter().map(|(_, c)| c.len() as u64).sum();
                clients * self.steps()
            }
        }
    }

    /// Dispatch points in the horizon.
    pub fn steps(&self) -> u64 {
        self.horizon.as_nanos() / STEP.as_nanos()
    }
}
