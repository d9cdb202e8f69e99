//! # kollaps-scenario
//!
//! The unified scenario API: **one builder from topology to
//! machine-readable report**.
//!
//! The paper's central usability claim (§3) is that an experimenter writes a
//! single declarative description — topology + deployment + dynamic events —
//! and Kollaps does the rest. This crate is that entry point for the
//! reproduction: a [`Scenario`] composes
//!
//! * a **topology source** — experiment-DSL text
//!   ([`Scenario::from_dsl`]), ModelNet XML ([`Scenario::from_xml`]), or a
//!   programmatic [`Topology`] from `kollaps_topology::generators`
//!   ([`Scenario::from_topology`]);
//! * a **backend** — the Kollaps collapsed emulation or any of the
//!   full-state baselines, behind one [`Backend`] selection;
//! * **workloads** — data-driven [`Workload`] specs (iPerf TCP/UDP, ping,
//!   wrk2, curl, memcached) that reference services *by name* and carry
//!   their own start/stop times;
//! * **dynamic events** — an [`EventSchedule`] applied mid-run by the
//!   emulation manager;
//!
//! validates the whole composition into a typed [`ScenarioError`] (unknown
//! node names — all of them, collected in one pass — zero-bandwidth links,
//! unsupported backend/topology combinations, ...) and, on
//! [`Scenario::run`], returns a structured [`Report`] — per-flow
//! goodput/RTT/request summaries plus per-link offered load — serializable
//! to JSON via the vendored `serde_json` shim.
//!
//! Execution itself is **session-based**: [`Scenario::session`] returns a
//! live [`Session`] with a steppable clock ([`Session::step`],
//! [`Session::run_until`]), live accessors read between steps
//! ([`Session::flow_progress`], [`Session::link_loads`],
//! [`Session::convergence`]), streaming telemetry ([`Sink`],
//! [`TelemetryEvent`]) and mid-run steering
//! ([`Session::inject_workload`], [`Session::inject_event`],
//! [`Session::inject_churn`] — the precomputed snapshot timeline is
//! extended incrementally). [`Scenario::run`] is a thin wrapper:
//! `session()?.finish()`, byte-identical by property test. [`Campaign`]
//! runs parameter sweeps (metadata delay, seeds, churn rate, custom axes)
//! concurrently with structurally shared timeline precompute and collects
//! a [`CampaignReport`].
//!
//! ```
//! use kollaps_scenario::{Backend, Scenario, Workload};
//! use kollaps_sim::prelude::*;
//!
//! let description = r#"
//! experiment:
//!   services:
//!     name: client
//!     name: server
//!   links:
//!     orig: client
//!     dest: server
//!     latency: 10
//!     up: 20Mbps
//!     down: 20Mbps
//! "#;
//! let report = Scenario::from_dsl(description)
//!     .backend(Backend::kollaps())
//!     .workload(Workload::ping("client", "server").count(5))
//!     .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(2)))
//!     .run()
//!     .expect("valid scenario");
//! assert_eq!(report.flows.len(), 2);
//! println!("{}", report.to_json_string());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod campaign;
mod error;
mod report;
mod session;
mod spec;
mod telemetry;
mod workload;

pub use backend::Backend;
pub use campaign::{Campaign, CampaignAggregates, CampaignReport, VariantReport};
pub use error::ScenarioError;
pub use kollaps_dynamics::Churn;
pub use kollaps_trace::Recorder;
pub use report::{
    ConvergenceReport, DynamicsReport, FlowClassReport, FlowReport, HostMetadata, HttpStats,
    LinkReport, PercentileStats, PhaseTimingReport, Report, RttStats, SCHEMA_VERSION,
};
pub use session::{Session, SessionError};
pub use spec::SPEC_VERSION;
pub use telemetry::{Aggregator, FlowProgress, FlowStatus, Sink, TelemetryEvent};
pub use workload::{Workload, DEFAULT_DURATION};

use std::collections::HashMap;

use kollaps_core::collapse::Addressable;
use kollaps_core::emulation::place_containers;
use kollaps_core::timeline::SnapshotTimeline;
use kollaps_netmodel::packet::Addr;
use kollaps_sim::prelude::*;
use kollaps_topology::dsl::parse_experiment;
use kollaps_topology::events::{DynamicEvent, EventSchedule};
use kollaps_topology::model::{NodeId, Topology};
use kollaps_topology::xml::parse_modelnet_xml;

use session::SessionInit;
use workload::WorkloadKind;

#[derive(Clone)]
enum TopologySource {
    Dsl(String),
    Xml(String),
    Topology(Box<Topology>),
}

/// The scenario builder. See the [crate-level documentation](crate) for an
/// end-to-end example.
///
/// A scenario is plain data and `Clone`: a [`Campaign`] clones one base
/// scenario per parameter variant.
#[derive(Clone)]
pub struct Scenario {
    name: String,
    source: TopologySource,
    backend: Backend,
    schedule: EventSchedule,
    churn: Vec<Churn>,
    workloads: Vec<Workload>,
    duration: Option<SimDuration>,
    hosts: Option<usize>,
    metadata_delay: Option<SimDuration>,
    placement: Vec<(String, u32)>,
    step_interval: Option<SimDuration>,
    distributed: bool,
    trace: bool,
}

impl Scenario {
    fn new(source: TopologySource) -> Self {
        Scenario {
            name: "scenario".to_string(),
            source,
            backend: Backend::kollaps(),
            schedule: EventSchedule::new(),
            churn: Vec::new(),
            workloads: Vec::new(),
            duration: None,
            hosts: None,
            metadata_delay: None,
            placement: Vec::new(),
            step_interval: None,
            distributed: false,
            trace: false,
        }
    }

    /// A scenario whose topology (and dynamic schedule) come from
    /// experiment-DSL text (the paper's Listing 1/2 syntax). Parse errors
    /// surface as [`ScenarioError::Parse`] from [`Scenario::run`].
    pub fn from_dsl(text: &str) -> Self {
        Scenario::new(TopologySource::Dsl(text.to_string()))
    }

    /// A scenario whose topology comes from ModelNet XML. Parse errors
    /// surface as [`ScenarioError::Xml`] from [`Scenario::run`].
    pub fn from_xml(text: &str) -> Self {
        Scenario::new(TopologySource::Xml(text.to_string()))
    }

    /// A scenario over a programmatic topology (e.g. one of
    /// `kollaps_topology::generators`).
    pub fn from_topology(topology: Topology) -> Self {
        Scenario::new(TopologySource::Topology(Box::new(topology)))
    }

    /// Names the scenario (appears in the report).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Selects the network under test. Defaults to the Kollaps emulation on
    /// a single host.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Spreads the containers over `n` physical hosts (Kollaps backend
    /// only). Each host runs its own Emulation Manager, so with more than
    /// one host the enforcement depends on the metadata actually received
    /// over the (delayed) physical network.
    ///
    /// ```
    /// use kollaps_scenario::{Scenario, Workload};
    /// use kollaps_topology::generators;
    /// use kollaps_sim::prelude::*;
    ///
    /// let (topo, _, _) = generators::dumbbell(
    ///     2,
    ///     Bandwidth::from_mbps(100),
    ///     Bandwidth::from_mbps(50),
    ///     SimDuration::from_millis(1),
    ///     SimDuration::from_millis(10),
    /// );
    /// let report = Scenario::from_topology(topo)
    ///     .hosts(2)
    ///     .place("client-0", 0)
    ///     .place("server-0", 1)
    ///     .metadata_delay(SimDuration::from_millis(5))
    ///     .workload(Workload::ping("client-0", "server-0").count(3))
    ///     .run()
    ///     .expect("valid scenario");
    /// assert_eq!(report.hosts, 2);
    /// assert_eq!(report.metadata_per_host.len(), 2);
    /// assert!(report.convergence.is_some());
    /// ```
    pub fn hosts(mut self, n: usize) -> Self {
        self.hosts = Some(n);
        self
    }

    /// Marks the scenario for **distributed execution** over `n_agents`
    /// real agent processes — the entry point of the `kollaps_runtime`
    /// crate's coordinator. Implies [`Scenario::hosts`]`(n_agents)`: each
    /// agent hosts one Emulation Manager. Running the scenario in-process
    /// (via [`Scenario::run`]) stays valid and produces the run the
    /// distributed one must match at zero injected delay/loss.
    pub fn distributed(mut self, n_agents: usize) -> Self {
        self.distributed = true;
        self.hosts = Some(n_agents.max(1));
        self
    }

    /// `true` when [`Scenario::distributed`] marked this scenario for
    /// execution by real agent processes.
    pub fn is_distributed(&self) -> bool {
        self.distributed
    }

    /// How many containers each of the [`Scenario::host_count`] hosts
    /// emulates: the expanded topology's services placed by
    /// [`place_containers`], pins honoured. The pins are validated exactly
    /// as [`Scenario::run`] validates them, with the same typed errors, and
    /// no session is built. The distributed runtime's coordinator checks
    /// every agent's attached cores against this count.
    pub fn containers_per_host(&self) -> Result<Vec<usize>, ScenarioError> {
        let hosts = self.checked_host_count()?;
        let (topology, _) = self.expand()?;
        let pinned = resolve_placement(&topology, &self.placement, hosts)?;
        let mut counts = vec![0; hosts];
        for host in place_containers(topology.service_ids(), hosts, &pinned) {
            counts[host.0 as usize] += 1;
        }
        Ok(counts)
    }

    /// Number of physical hosts (= distributed agents) the scenario
    /// deploys onto.
    pub fn host_count(&self) -> usize {
        self.hosts.unwrap_or_else(|| self.backend.hosts()).max(1)
    }

    /// [`Scenario::host_count`], refused above one host per container
    /// address: every host keeps per-host state, so a count nobody could
    /// deploy must fail typed, not in the allocator.
    pub(crate) fn checked_host_count(&self) -> Result<usize, ScenarioError> {
        let hosts = self.host_count();
        let limit = Addr::CONTAINERS as usize;
        if hosts > limit {
            return Err(ScenarioError::TooManyHosts { hosts, limit });
        }
        Ok(hosts)
    }

    /// Pins a service's container to a physical host index (`0..hosts`);
    /// services not pinned are placed round-robin. Kollaps backend only.
    /// Unknown names, out-of-range host indices and conflicting pins are
    /// reported as typed errors by [`Scenario::run`].
    pub fn place(mut self, service: &str, host: u32) -> Self {
        self.placement.push((service.to_string(), host));
        self
    }

    /// Sets the one-way delay of metadata messages on the physical network
    /// (Kollaps backend only). Together with multiple [`Scenario::hosts`]
    /// this is the accuracy-vs-staleness knob: managers enforce from what
    /// they have received, so a larger delay means a later reaction to
    /// remote flows.
    pub fn metadata_delay(mut self, delay: SimDuration) -> Self {
        self.metadata_delay = Some(delay);
        self
    }

    /// Retired, ignored; kept only because `benchmark/` names it — delete
    /// with the next `benchmark`-archetype issue.
    #[doc(hidden)]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Adds one dynamic event to the schedule.
    pub fn event(mut self, event: DynamicEvent) -> Self {
        self.schedule.push(event);
        self
    }

    /// Merges a whole event schedule (on top of any events already present,
    /// e.g. from a `dynamic:` section of the DSL source).
    pub fn schedule(mut self, schedule: EventSchedule) -> Self {
        self.schedule.merge(&schedule);
        self
    }

    /// Adds a churn generator: a declarative source of dynamic events
    /// (Poisson link flapping, staggered node churn, partition/heal,
    /// bandwidth ramps, trace replay — see [`Churn`]). The spec is
    /// validated against the topology when the scenario runs; its events
    /// merge into the schedule like hand-written ones, flow through the
    /// same offline snapshot precompute, and surface in
    /// [`Report::dynamics`].
    ///
    /// ```
    /// use kollaps_scenario::{Churn, Scenario, Workload};
    /// use kollaps_sim::prelude::*;
    /// use kollaps_topology::generators;
    ///
    /// let (topo, _, _) = generators::dumbbell(
    ///     2,
    ///     Bandwidth::from_mbps(100),
    ///     Bandwidth::from_mbps(50),
    ///     SimDuration::from_millis(1),
    ///     SimDuration::from_millis(10),
    /// );
    /// let report = Scenario::from_topology(topo)
    ///     .churn(
    ///         Churn::poisson_flaps(&[("client-1", "bridge-left")])
    ///             .mean_uptime(SimDuration::from_secs(2))
    ///             .mean_downtime(SimDuration::from_millis(300))
    ///             .horizon(SimDuration::from_secs(8))
    ///             .seed(7),
    ///     )
    ///     .workload(
    ///         Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(20))
    ///             .duration(SimDuration::from_secs(8)),
    ///     )
    ///     .run()
    ///     .expect("valid scenario");
    /// let dynamics = report.dynamics.expect("churn ran");
    /// assert!(dynamics.events_applied > 0);
    /// ```
    pub fn churn(mut self, churn: Churn) -> Self {
        self.churn.push(churn);
        self
    }

    /// Adds a workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds several workloads.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Caps the total emulated time. Without a cap the scenario runs until
    /// the last workload window closes; with one, later windows are
    /// truncated.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Sets the wall-clock slice between the session's event-dispatch
    /// rounds (completion re-arming, window finalization, telemetry).
    /// Defaults to 100 ms; a zero interval is rejected with
    /// [`ScenarioError::InvalidStepInterval`].
    pub fn step_interval(mut self, interval: SimDuration) -> Self {
        self.step_interval = Some(interval);
        self
    }

    /// Enables the flight recorder (Kollaps backend only): the emulation
    /// core records per-tick phase spans, per-worker spans, allocation
    /// spans and counters into bounded in-memory ring buffers, readable
    /// through [`Session::tracer`] and exportable as Chrome trace-event
    /// JSON (`kollaps_trace::chrome_trace_string`). Tracing is wall-clock
    /// observability only: the emulated results are byte-identical with it
    /// on or off (pinned by a property test), and the report additionally
    /// carries a [`Report::phase_timing`] breakdown. Off by default.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Expands the topology source and folds the declared schedule and
    /// churn generators into one sorted event schedule — the first phase
    /// of building a session, shared with [`Campaign`] (which compares
    /// expansions across variants to share one timeline precompute).
    pub(crate) fn expand(&self) -> Result<(Topology, EventSchedule), ScenarioError> {
        let (topology, mut schedule) = match &self.source {
            TopologySource::Dsl(text) => {
                let experiment = parse_experiment(text)?;
                (experiment.topology, experiment.schedule)
            }
            TopologySource::Xml(text) => (parse_modelnet_xml(text)?, EventSchedule::new()),
            TopologySource::Topology(topology) => ((**topology).clone(), EventSchedule::new()),
        };
        schedule.merge(&self.schedule);
        // Churn generators expand against the concrete topology; their
        // events merge into the same schedule as hand-written ones.
        for churn in &self.churn {
            schedule.merge(&churn.generate(&topology)?);
        }
        Ok((topology, schedule))
    }

    /// Validates the composition, builds the selected backend and returns
    /// a live [`Session`] over it — stopped at `t = 0`, nothing run yet.
    /// Drive it with [`Session::step`]/[`Session::run_until`], observe it
    /// through accessors and [`Sink`]s, steer it with the `inject_*`
    /// calls, and close it with [`Session::finish`].
    pub fn session(self) -> Result<Session, ScenarioError> {
        let (topology, schedule) = self.expand()?;
        self.into_session(topology, schedule, None)
    }

    /// Validates the composition, runs the whole timeline and returns the
    /// structured [`Report`]. A thin wrapper over the session engine:
    /// `self.session()?.finish()`.
    pub fn run(self) -> Result<Report, ScenarioError> {
        Ok(self.session()?.finish())
    }

    /// The shared tail of [`Scenario::session`]: validation and
    /// construction over an already-expanded topology and schedule, with
    /// an optional pre-precomputed snapshot timeline (campaign variants
    /// share one).
    pub(crate) fn into_session(
        self,
        topology: Topology,
        schedule: EventSchedule,
        prepared: Option<&SnapshotTimeline>,
    ) -> Result<Session, ScenarioError> {
        validate_topology(&topology)?;
        if self.workloads.is_empty() {
            return Err(ScenarioError::EmptyWorkload);
        }
        validate_workloads(&topology, &self.workloads)?;
        let step = match self.step_interval {
            Some(interval) if interval.is_zero() => {
                return Err(ScenarioError::InvalidStepInterval {
                    knob: "step_interval",
                })
            }
            Some(interval) => interval,
            None => session::DEFAULT_STEP,
        };

        // Apply the deployment knobs (hosts / placement / metadata delay).
        // They configure the per-host Emulation Managers, so they only mean
        // something on the Kollaps backend.
        let host_count = self.checked_host_count()?;
        let mut backend = self.backend;
        let knobs_used = self.hosts.is_some()
            || self.metadata_delay.is_some()
            || self.trace
            || !self.placement.is_empty();
        match &mut backend {
            Backend::Kollaps { hosts, config } => {
                // A zero loop interval re-arms the tick at the instant it
                // fires, forever.
                if config.loop_interval.is_zero() {
                    return Err(ScenarioError::InvalidStepInterval {
                        knob: "loop_interval",
                    });
                }
                *hosts = host_count;
                if let Some(delay) = self.metadata_delay {
                    config.metadata_delay = delay;
                }
            }
            other => {
                if knobs_used {
                    return Err(ScenarioError::UnsupportedBackend {
                        backend: other.name().to_string(),
                        reason: "hosts/placement/metadata_delay/trace configure \
                                 per-host emulation managers, which only the Kollaps backend \
                                 runs"
                            .to_string(),
                    });
                }
            }
        }
        let placement_by_node = resolve_placement(&topology, &self.placement, backend.hosts())?;
        backend.validate(&topology, &schedule)?;

        // Total timeline: the last workload window, unless capped.
        let total_end = match self.duration {
            Some(cap) => SimTime::ZERO + cap,
            None => self.workloads.iter().try_fold(SimTime::ZERO, |end, w| {
                Ok::<_, ScenarioError>(end.max(w.window(SimTime::ZERO, None)?.1))
            })?,
        };

        let backend_name = backend.name().to_string();
        let hosts = backend.hosts();
        let mut dataplane = backend.build(topology.clone(), schedule, &placement_by_node, prepared);
        // The flight recorder: lane 0 for the dataplane/session control
        // path, one lane per host's emulation manager workers.
        let recorder = if self.trace {
            kollaps_trace::Recorder::new(1 + hosts)
        } else {
            kollaps_trace::Recorder::disabled()
        };
        if recorder.is_enabled() {
            if let Some(dp) = dataplane.kollaps_mut() {
                dp.set_recorder(recorder.clone());
            }
        }
        Session::new(SessionInit {
            scenario_name: self.name,
            backend_name,
            hosts,
            topology,
            dataplane,
            workloads: self.workloads,
            total_end,
            duration_capped: self.duration.is_some(),
            step,
            recorder,
        })
    }
}

/// Validates workloads against the topology. Every endpoint name the
/// topology does not declare is reported in one error: deduplicated, in
/// first-reference order (each workload's clients, then its server).
pub(crate) fn validate_workloads(
    topology: &Topology,
    workloads: &[Workload],
) -> Result<(), ScenarioError> {
    let mut unknown: Vec<String> = Vec::new();
    for workload in workloads {
        for name in workload.clients.iter().chain([&workload.server]) {
            if topology.node_by_name(name).is_none() && !unknown.contains(name) {
                unknown.push(name.clone());
            }
        }
    }
    if !unknown.is_empty() {
        return Err(ScenarioError::UnknownNodes { names: unknown });
    }
    workloads
        .iter()
        .try_for_each(|workload| validate_workload(topology, workload))
}

fn validate_topology(topology: &Topology) -> Result<(), ScenarioError> {
    let services = topology.service_ids().len();
    let limit = Addr::CONTAINERS as usize;
    if services > limit {
        return Err(ScenarioError::TooManyServices { services, limit });
    }
    for link in topology.links() {
        if link.properties.bandwidth.is_zero() {
            let name = |id: NodeId| {
                topology
                    .node(id)
                    .map(|n| n.kind.display_name())
                    .unwrap_or_else(|| format!("#{id}"))
            };
            return Err(ScenarioError::ZeroBandwidthLink {
                orig: name(link.from),
                dest: name(link.to),
            });
        }
    }
    Ok(())
}

/// Resolves the [`Scenario::place`] pins to service nodes on a `hosts`-host
/// deployment: an unknown name, a node that is no service, a host index out
/// of range and one service pinned to two hosts are typed errors.
fn resolve_placement(
    topology: &Topology,
    placement: &[(String, u32)],
    hosts: usize,
) -> Result<HashMap<NodeId, u32>, ScenarioError> {
    let mut by_node = HashMap::new();
    for (name, host) in placement {
        let node = service_node(topology, name)?;
        if *host as usize >= hosts {
            return Err(ScenarioError::InvalidPlacement {
                name: name.clone(),
                reason: format!("host index {host} out of range for a {hosts}-host deployment"),
            });
        }
        if let Some(previous) = by_node.insert(node, *host) {
            if previous != *host {
                return Err(ScenarioError::InvalidPlacement {
                    name: name.clone(),
                    reason: format!("pinned to both host {previous} and host {host}"),
                });
            }
        }
    }
    Ok(by_node)
}

fn service_node(topology: &Topology, name: &str) -> Result<NodeId, ScenarioError> {
    let node = topology
        .node_by_name(name)
        .ok_or_else(|| ScenarioError::UnknownNode {
            name: name.to_string(),
        })?;
    let is_service = topology
        .node(node)
        .map(|n| n.kind.is_service())
        .unwrap_or(false);
    if !is_service {
        return Err(ScenarioError::NotAService {
            name: name.to_string(),
        });
    }
    Ok(node)
}

fn validate_workload(topology: &Topology, workload: &Workload) -> Result<(), ScenarioError> {
    let invalid = |reason: &str| ScenarioError::InvalidWorkload {
        reason: reason.to_string(),
    };
    if workload.effective_duration().is_zero() {
        return Err(invalid("workload duration is zero"));
    }
    if workload.clients.is_empty() {
        let label = workload.label();
        return Err(invalid(&format!("{label} needs at least one client")));
    }
    let check_pair = |a: &str, b: &str| -> Result<(), ScenarioError> {
        service_node(topology, a)?;
        service_node(topology, b)?;
        if a == b {
            return Err(invalid(&format!("both endpoints are `{a}`")));
        }
        Ok(())
    };
    for client in &workload.clients {
        check_pair(client, &workload.server)?;
    }
    let reason = match workload.kind {
        WorkloadKind::IperfUdp { rate } if rate.is_zero() => "UDP rate is zero",
        WorkloadKind::Ping { count: 0, .. } => "ping count is zero",
        // A probe re-arms at `now + interval`: a zero interval never lets
        // virtual time advance.
        WorkloadKind::Ping { interval, .. } if interval.is_zero() => "ping interval is zero",
        WorkloadKind::Wrk2 { connections: 0, .. } => "wrk2 needs at least one connection",
        WorkloadKind::Memcached { connections: 0 } => "memcached needs at least one connection",
        // `TcpSender` rounds an empty transfer up to one full segment, which
        // the report would count as zero bytes.
        WorkloadKind::Wrk2 { request, .. } | WorkloadKind::Curl { request }
            if request.is_zero() =>
        {
            "HTTP request size is zero"
        }
        _ => return Ok(()),
    };
    Err(invalid(reason))
}

/// The container addresses of a workload's server and clients.
fn resolve_workload(
    topology: &Topology,
    dataplane: &backend::AnyDataplane,
    workload: &Workload,
) -> Result<(Addr, Vec<Addr>), ScenarioError> {
    let addr_of = |name: &String| -> Result<Addr, ScenarioError> {
        let node = service_node(topology, name)?;
        dataplane
            .address_of_node(node)
            .ok_or_else(|| ScenarioError::UnknownNode { name: name.clone() })
    };
    let clients = workload
        .clients
        .iter()
        .map(addr_of)
        .collect::<Result<_, _>>()?;
    Ok((addr_of(&workload.server)?, clients))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_topology::generators;

    fn p2p(mbps: u64) -> Topology {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(mbps),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
        );
        topo
    }

    #[test]
    fn iperf_scenario_measures_the_shaped_rate() {
        let report = Scenario::from_topology(p2p(20))
            .named("p2p-iperf")
            .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(10)))
            .run()
            .expect("valid scenario");
        assert_eq!(report.backend, "kollaps");
        assert_eq!(report.flows.len(), 1);
        let flow = &report.flows[0];
        assert_eq!(flow.workload, "iperf-tcp");
        assert_eq!(
            (flow.client.as_str(), flow.server.as_str()),
            ("client", "server")
        );
        let mbps = flow.goodput_mbps.unwrap();
        assert!((16.0..=20.5).contains(&mbps), "goodput {mbps}");
        assert!(flow.retransmissions.is_some());
        assert!(!flow.per_second_mbps.is_empty());
        // The p2p links carry the flow: offered load is reported against
        // their capacity.
        assert!(!report.links.is_empty());
        let max_util = report
            .links
            .iter()
            .map(|l| l.utilization)
            .fold(0.0, f64::max);
        assert!((0.5..=1.1).contains(&max_util), "utilization {max_util}");
    }

    #[test]
    fn ping_scenario_reports_rtt_and_jitter() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(78),
            SimDuration::from_millis_f64(1.2),
        );
        let report = Scenario::from_topology(topo)
            .workload(
                Workload::ping("client", "server")
                    .count(500)
                    .interval(SimDuration::from_millis(20)),
            )
            .run()
            .expect("valid scenario");
        let rtt = report.flows[0].rtt.as_ref().unwrap();
        assert_eq!(rtt.replies, 500);
        // RTT ≈ 2 × 78 ms; the two directions' jitter composes as
        // √2 × 1.2 ms ≈ 1.7 ms.
        assert!((rtt.mean_ms - 156.0).abs() < 2.0, "rtt {}", rtt.mean_ms);
        assert!(
            (rtt.jitter_ms - 1.7).abs() < 0.5,
            "jitter {}",
            rtt.jitter_ms
        );
        assert!(rtt.min_ms <= rtt.mean_ms && rtt.max_ms >= rtt.mean_ms);
    }

    #[test]
    fn overlapping_workloads_share_one_timeline() {
        let report = Scenario::from_topology(p2p(50))
            .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(6)))
            .workload(
                Workload::ping("client", "server")
                    .count(10)
                    .interval(SimDuration::from_millis(200))
                    .start(SimDuration::from_secs(1))
                    .duration(SimDuration::from_secs(4)),
            )
            .run()
            .expect("valid scenario");
        assert_eq!(report.flows.len(), 2);
        let ping = report.flows_of("ping").next().unwrap();
        let rtt = ping.rtt.as_ref().unwrap();
        // The probes share the saturated link with the bulk flow: some are
        // lost to egress backpressure, and the survivors see queueing delay
        // on top of the 20 ms propagation RTT.
        assert!(rtt.replies >= 3, "replies {}", rtt.replies);
        assert!(rtt.mean_ms >= 20.0, "rtt {}", rtt.mean_ms);
        assert!((report.duration_s - 6.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_starts_are_honoured() {
        let report = Scenario::from_topology(p2p(100))
            .workload(
                Workload::ping("client", "server")
                    .count(3)
                    .interval(SimDuration::from_millis(100))
                    .start(SimDuration::from_secs(2))
                    .duration(SimDuration::from_secs(2)),
            )
            .run()
            .unwrap();
        let flow = &report.flows[0];
        assert!((flow.start_s - 2.0).abs() < 1e-9);
        assert!((flow.end_s - 4.0).abs() < 1e-9);
        assert_eq!(flow.rtt.as_ref().unwrap().replies, 3);
    }

    #[test]
    fn wrk2_and_curl_report_requests() {
        let report = Scenario::from_topology(p2p(100))
            .workload(
                Workload::wrk2("server", "client")
                    .connections(4)
                    .duration(SimDuration::from_secs(5)),
            )
            .run()
            .unwrap();
        let wrk2 = &report.flows[0];
        let http = wrk2.http.as_ref().unwrap();
        assert!(http.requests > 10, "requests {}", http.requests);
        assert!(http.latency_p90_ms >= http.latency_p50_ms);
        assert!(wrk2.goodput_mbps.unwrap() > 10.0);

        let report = Scenario::from_topology(p2p(100))
            .workload(Workload::curl("server", &["client"]).duration(SimDuration::from_secs(5)))
            .run()
            .unwrap();
        let curl = &report.flows[0];
        assert!(curl.http.as_ref().unwrap().requests > 5);
    }

    #[test]
    fn memcached_reports_closed_loop_throughput() {
        let report = Scenario::from_topology(p2p(100))
            .workload(
                Workload::memcached("server", &["client"])
                    .connections(10)
                    .duration(SimDuration::from_secs(3)),
            )
            .run()
            .unwrap();
        let ops = report.flows[0].ops_per_second.unwrap();
        // RTT ≈ 20 ms → ≈ 10 / 0.02 ≈ 500 ops/s.
        assert!((300.0..=700.0).contains(&ops), "ops {ops}");
    }

    #[test]
    fn duration_cap_truncates_windows() {
        let report = Scenario::from_topology(p2p(100))
            .duration(SimDuration::from_secs(2))
            .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(30)))
            .run()
            .unwrap();
        assert!((report.duration_s - 2.0).abs() < 1e-9);
        assert!((report.flows[0].end_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = Scenario::from_topology(p2p(10))
            .named("json-smoke")
            .workload(
                Workload::ping("client", "server")
                    .count(2)
                    .duration(SimDuration::from_secs(1)),
            )
            .run()
            .unwrap();
        let json = report.to_json();
        assert_eq!(
            json.get("scenario").and_then(|v| v.as_str()),
            Some("json-smoke")
        );
        assert_eq!(
            json.get("backend").and_then(|v| v.as_str()),
            Some("kollaps")
        );
        let flows = json.get("flows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(flows.len(), 1);
        let text = report.to_json_string();
        assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
        assert!(text.contains("\"rtt\":{\"mean_ms\":"), "{text}");
    }

    #[test]
    fn dsl_source_round_trips() {
        let description = "experiment:\n  services:\n    name: a\n    name: b\n  links:\n    orig: a\n    dest: b\n    latency: 5\n    up: 10Mbps\n    down: 10Mbps\n";
        let report = Scenario::from_dsl(description)
            .workload(
                Workload::ping("a", "b")
                    .count(4)
                    .duration(SimDuration::from_secs(2)),
            )
            .run()
            .unwrap();
        let rtt = report.flows[0].rtt.as_ref().unwrap();
        assert!((rtt.mean_ms - 10.0).abs() < 1.0, "rtt {}", rtt.mean_ms);
    }

    #[test]
    fn deployment_knobs_shape_the_report() {
        let report = Scenario::from_topology(p2p(50))
            .hosts(2)
            .place("client", 0)
            .place("server", 1)
            .metadata_delay(SimDuration::from_millis(5))
            .workload(
                Workload::iperf_udp("client", "server", Bandwidth::from_mbps(20))
                    .duration(SimDuration::from_secs(3)),
            )
            .run()
            .expect("valid scenario");
        assert_eq!(report.hosts, 2);
        assert_eq!(report.metadata_per_host.len(), 2);
        // The client's host publishes flow entries, so it sends more than
        // the idle server host's heartbeats; both exchange something.
        assert!(report.metadata_per_host.iter().all(|h| h.sent_bytes > 0));
        assert!(
            report.metadata_per_host[0].sent_bytes > report.metadata_per_host[1].sent_bytes,
            "flow publisher must outweigh heartbeats: {:?}",
            report.metadata_per_host
        );
        let convergence = report.convergence.expect("kollaps reports convergence");
        assert!(convergence.max_gap >= convergence.last_gap);
        assert!(convergence.max_gap >= convergence.mean_gap);
        let json = report.to_json();
        assert!(json.get("metadata_per_host").is_some());
        assert!(json.get("convergence").is_some());
    }

    #[test]
    fn deployment_knobs_require_the_kollaps_backend() {
        let err = Scenario::from_topology(p2p(50))
            .backend(Backend::ground_truth())
            .hosts(2)
            .workload(Workload::ping("client", "server").count(1))
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedBackend { .. }),
            "{err}"
        );
    }

    #[test]
    fn placement_is_validated() {
        let base = || {
            Scenario::from_topology(p2p(50))
                .hosts(2)
                .workload(Workload::ping("client", "server").count(1))
        };
        let err = base().place("nonexistent", 0).run().unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownNode { .. }), "{err}");
        let err = base().place("client", 7).run().unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidPlacement { .. }),
            "{err}"
        );
        let err = base()
            .place("client", 0)
            .place("client", 1)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidPlacement { .. }),
            "{err}"
        );
        // A consistent duplicate pin is fine.
        base()
            .place("client", 1)
            .place("client", 1)
            .run()
            .expect("consistent pins are valid");
    }

    #[test]
    fn containers_per_host_is_the_session_placement() {
        let (topo, _, _) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let services = [
            "client-0", "server-0", "client-1", "server-1", "client-2", "server-2",
        ];
        for hosts in 1..=5u32 {
            // Unpinned, two clients pinned onto the last host (round-robin
            // puts them on hosts 0 and 2), and every service pinned (all but
            // one onto the last host).
            let pin_sets: [Vec<(&str, u32)>; 3] = [
                Vec::new(),
                vec![("client-0", hosts - 1), ("client-1", hosts - 1)],
                services
                    .iter()
                    .enumerate()
                    .map(|(i, &name)| (name, if i == 0 { 0 } else { hosts - 1 }))
                    .collect(),
            ];
            for pins in pin_sets {
                let scenario = pins.iter().fold(
                    Scenario::from_topology(topo.clone())
                        .hosts(hosts as usize)
                        .workload(Workload::ping("client-0", "server-0").count(1)),
                    |scenario, &(name, host)| scenario.place(name, host),
                );
                let counts = scenario.containers_per_host().expect("valid placement");
                let session = scenario.session().expect("valid scenario");
                let expected: Vec<usize> = (0..hosts)
                    .map(|h| {
                        session.kollaps().expect("kollaps host").managers()[h as usize]
                            .container_count()
                    })
                    .collect();
                assert_eq!(counts, expected, "{hosts} hosts, pins {pins:?}");
                assert_eq!(counts.iter().sum::<usize>(), services.len());
            }
        }
    }

    #[test]
    fn churn_knob_generates_events_and_reports_dynamics() {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let report = Scenario::from_topology(topo)
            .named("churn-smoke")
            .churn(
                Churn::partition(&["bridge-left"], &["bridge-right"])
                    .start(SimDuration::from_secs(2))
                    .heal_after(Some(SimDuration::from_secs(2))),
            )
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(20))
                    .duration(SimDuration::from_secs(6)),
            )
            .run()
            .expect("valid scenario");
        let dynamics = report.dynamics.expect("dynamic scenario reports dynamics");
        assert_eq!(dynamics.snapshots_precomputed, 2);
        assert_eq!(dynamics.snapshots_applied, 2);
        assert_eq!(dynamics.events_applied, 2);
        assert!(dynamics.max_swap_cost > 0);
        assert!(dynamics.mean_swap_cost <= dynamics.pair_count as f64);
        // The partition cuts goodput to ~2/3 of the uninterrupted run.
        let mbps = report.flows[0].goodput_mbps.unwrap();
        assert!((10.0..=16.0).contains(&mbps), "goodput {mbps}");
        let json = report.to_json();
        let dyn_json = json.get("dynamics").expect("dynamics in JSON");
        assert_eq!(
            dyn_json.get("events_applied").and_then(|v| v.as_u64()),
            Some(2)
        );
        // Static scenarios stay clean: no dynamics block.
        let static_report = Scenario::from_topology(p2p(20))
            .workload(Workload::ping("client", "server").count(2))
            .run()
            .unwrap();
        assert!(static_report.dynamics.is_none());
        assert!(static_report.to_json().get("dynamics").unwrap().is_null());
    }

    #[test]
    fn churn_specs_are_validated_as_typed_errors() {
        let err = Scenario::from_topology(p2p(20))
            .churn(Churn::poisson_flaps(&[("ghost", "server")]))
            .workload(Workload::ping("client", "server").count(1))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, ScenarioError::InvalidChurn { reason } if reason.contains("ghost")),
            "{err}"
        );
        let err = Scenario::from_topology(p2p(20))
            .churn(Churn::trace("not json"))
            .workload(Workload::ping("client", "server").count(1))
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidChurn { .. }), "{err}");
    }

    #[test]
    fn trace_churn_replays_through_the_scenario() {
        let trace = r#"{ "events": [
            { "at_ms": 4000, "action": "set_link", "orig": "client", "dest": "server",
              "latency_ms": 60 },
            { "at_ms": 2000, "action": "set_link", "orig": "client", "dest": "server",
              "latency_ms": 30 }
        ] }"#;
        let report = Scenario::from_topology(p2p(100))
            .churn(Churn::trace(trace))
            .workload(
                Workload::ping("client", "server")
                    .count(60)
                    .interval(SimDuration::from_millis(100))
                    .duration(SimDuration::from_secs(6)),
            )
            .run()
            .expect("valid scenario");
        let rtt = report.flows[0].rtt.as_ref().unwrap();
        // Phases: 20 ms → 60 ms → 120 ms RTT; the samples must span them.
        assert!(rtt.min_ms < 25.0, "min {}", rtt.min_ms);
        assert!(rtt.max_ms > 100.0, "max {}", rtt.max_ms);
        assert_eq!(report.dynamics.unwrap().snapshots_applied, 2);
    }

    #[test]
    fn backends_are_selectable() {
        for backend in [
            Backend::ground_truth(),
            Backend::mininet(),
            Backend::maxinet(),
        ] {
            let name = backend.name();
            let report = Scenario::from_topology(p2p(50))
                .backend(backend)
                .workload(
                    Workload::ping("client", "server")
                        .count(3)
                        .duration(SimDuration::from_secs(2)),
                )
                .run()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.backend, name);
            assert!(report.flows[0].rtt.as_ref().unwrap().replies > 0, "{name}");
        }
    }
}

/// The iPerf workloads, measured end to end through the builder.
#[cfg(test)]
mod iperf {
    #[cfg(test)]
    mod tests {
        use crate::*;
        use kollaps_topology::generators;
        use kollaps_transport::tcp::CongestionAlgorithm;

        fn p2p(mbps: u64, latency: SimDuration) -> Topology {
            let bandwidth = Bandwidth::from_mbps(mbps);
            generators::point_to_point(bandwidth, latency, SimDuration::ZERO).0
        }

        #[test]
        fn tcp_iperf_measures_the_shaped_rate() {
            let report = Scenario::from_topology(p2p(20, SimDuration::from_millis(10)))
                .workload(
                    Workload::iperf_tcp("client", "server")
                        .algorithm(CongestionAlgorithm::Cubic)
                        .duration(SimDuration::from_secs(10)),
                )
                .run()
                .expect("valid scenario");
            let flow = &report.flows[0];
            let mbps = flow.goodput_mbps.unwrap();
            assert!((16.0..=20.5).contains(&mbps), "measured {mbps}");
            assert!(!flow.per_second_mbps.is_empty());
        }

        #[test]
        fn udp_iperf_measures_delivery() {
            // A constant-bit-rate flow below the shaped rate is delivered
            // whole.
            let report = Scenario::from_topology(p2p(50, SimDuration::from_millis(2)))
                .workload(
                    Workload::iperf_udp("client", "server", Bandwidth::from_mbps(10))
                        .duration(SimDuration::from_secs(5)),
                )
                .run()
                .expect("valid scenario");
            let mbps = report.flows[0].goodput_mbps.unwrap();
            assert!((9.0..=10.5).contains(&mbps), "measured {mbps}");
        }
    }
}

/// The HTTP-style workloads (curl, wrk2), measured end to end through the
/// builder.
#[cfg(test)]
mod http {
    #[cfg(test)]
    mod tests {
        use crate::*;
        use kollaps_topology::generators;

        /// One `curl` run from `clients` against `node-0` of a 5-node,
        /// 100 Mb/s star: the flow's report.
        fn curl(clients: &[&str], duration: SimDuration) -> FlowReport {
            let (star, _) =
                generators::star(5, Bandwidth::from_mbps(100), SimDuration::from_millis(2));
            let report = Scenario::from_topology(star)
                .workload(Workload::curl("node-0", clients).duration(duration))
                .run()
                .expect("valid scenario");
            report.flows[0].clone()
        }

        #[test]
        fn curl_clients_complete_requests() {
            let flow = curl(&["node-1"], SimDuration::from_secs(10));
            let http = flow.http.as_ref().unwrap();
            assert!(http.requests > 20, "only {} requests", http.requests);
            assert!(flow.goodput_mbps.unwrap() > 1.0);
            assert_eq!(http.samples_ms.len(), http.requests as usize);
            assert_eq!(flow.per_second_mbps.len(), 10);
        }

        #[test]
        fn more_curl_clients_mean_more_throughput() {
            // Connection-per-request clients are RTT-bound, not link-bound:
            // four clients fetch well over twice what one does.
            let duration = SimDuration::from_secs(10);
            let one = curl(&["node-1"], duration).goodput_mbps.unwrap();
            let four = curl(&["node-1", "node-2", "node-3", "node-4"], duration)
                .goodput_mbps
                .unwrap();
            assert!(
                four > 2.0 * one,
                "1 client {one:.1} Mb/s, 4 clients {four:.1} Mb/s"
            );
        }

        #[test]
        fn wrk2_keeps_connections_busy() {
            let (topo, _, _) = generators::point_to_point(
                Bandwidth::from_mbps(50),
                SimDuration::from_millis(5),
                SimDuration::ZERO,
            );
            let report = Scenario::from_topology(topo)
                .workload(
                    Workload::wrk2("server", "client")
                        .connections(10)
                        .request_size(DataSize::from_kib(64))
                        .duration(SimDuration::from_secs(10)),
                )
                .run()
                .expect("valid scenario");
            let flow = &report.flows[0];
            let requests = flow.http.as_ref().unwrap().requests;
            assert!(requests > 50, "requests {requests}");
            // The aggregate rate approaches the 50 Mb/s link.
            let mbps = flow.goodput_mbps.unwrap();
            assert!(mbps > 25.0, "throughput {mbps}");
        }
    }
}
