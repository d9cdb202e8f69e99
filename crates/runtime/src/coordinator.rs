//! The `kollaps-coordinator`: spawns agents, walks them through the
//! bootstrap handshake, and merges their partial reports.
//!
//! # Control-plane sequence
//!
//! All control traffic is framed JSON over TCP ([`crate::wire`]); metadata
//! rides UDP between the agents directly ([`crate::socket_bus`]).
//!
//! 1. Each agent connects and sends `hello { host, udp_port }`.
//! 2. The coordinator sends `sync { nonce }`; the agent echoes
//!    `sync_ack { nonce }` — a clock-sync/liveness probe whose round-trip
//!    time is recorded per agent.
//! 3. The coordinator sends `spec { spec, peers, loss,
//!    barrier_timeout_ms }` carrying the scenario wire codec
//!    ([`Scenario::to_spec`]) and the UDP peer directory; the agent builds
//!    its session replica and answers `manager_up { host }`. Once every
//!    agent has, each host's [`BootstrapPhase`] moves from
//!    `BootstrapperScheduled` to `ManagerLaunched`.
//! 4. The coordinator sends `attach`; the agent reports
//!    `cores_attached { host, cores }`, one Emulation Core per container
//!    its manager emulates. Each count must equal the scenario's own
//!    placement ([`Scenario::containers_per_host`]), pinned or not; then
//!    every host reaches `CoresAttached`.
//! 5. `start` releases the barrier: every agent runs its session to the
//!    end in UDP lockstep, streaming periodic `health { host, at_ms, ... }`
//!    frames (cumulative barrier/loss/UDP counters plus per-chunk
//!    wall-clock lag), and finally ships
//!    `report { host, report, gaps, ... }` — carrying its Chrome-trace
//!    flight-recorder dump when the scenario enabled tracing.
//! 6. The coordinator merges the partial reports — per-host health series
//!    and socket-bus counters included — merges any per-agent traces into
//!    one multi-process Chrome trace, sends `bye`, and joins the agents.
//!    The convergence block is folded from the agents' gap series by
//!    [`ConvergenceStats::from_host_series`], the fold an in-process
//!    dataplane reads its own block through, so both are bit-identical.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kollaps_core::emulation::ConvergenceStats;
use kollaps_scenario::{ConvergenceReport, HostMetadata, Scenario, ScenarioError, Workload};
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;
use serde_json::{FieldError, Value};

use crate::agent::{self, AgentError, Counters};
use crate::wire::{self, WireError};

/// How agents are brought up.
#[derive(Debug, Clone)]
pub enum Launch {
    /// Run each agent on a thread inside this process. The sockets are
    /// exactly as real as in process mode; only the address space is
    /// shared. Default for tests and examples.
    Threads,
    /// Spawn the `kollaps-agent` binary at this path, one process per
    /// host.
    Processes(PathBuf),
}

/// Knobs for a distributed run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// How agents are launched.
    pub launch: Launch,
    /// Probability that an agent drops an incoming metadata datagram
    /// (injected loss on the emulated physical network).
    pub loss_probability: f64,
    /// How long an agent waits on the per-tick metadata barrier before
    /// declaring a peer dead.
    pub barrier_timeout: Duration,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            launch: Launch::Threads,
            loss_probability: 0.0,
            barrier_timeout: Duration::from_secs(5),
        }
    }
}

/// Where one host stands in the bootstrap handshake (paper §4.3: under
/// Docker Swarm a bootstrapper container launches the privileged Emulation
/// Manager, which then attaches one Emulation Core per local container).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapPhase {
    /// The agent is up but has not built its Emulation Manager yet.
    BootstrapperScheduled,
    /// The agent answered `manager_up`: its session replica is built.
    ManagerLaunched,
    /// The agent attached as many Emulation Cores as the placement puts
    /// containers on its host.
    CoresAttached,
}

/// Everything that can abort a distributed run.
#[derive(Debug)]
pub enum CoordinatorError {
    /// A control socket failed.
    Io(std::io::Error),
    /// An agent sent a malformed or unexpected control message.
    Wire(WireError),
    /// The scenario could not be encoded for distribution.
    Scenario(ScenarioError),
    /// An agent violated the handshake, died, or reported inconsistent
    /// state.
    Protocol(String),
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::Io(e) => write!(f, "coordinator i/o: {e}"),
            CoordinatorError::Wire(e) => write!(f, "coordinator control plane: {e}"),
            CoordinatorError::Scenario(e) => write!(f, "coordinator scenario: {e}"),
            CoordinatorError::Protocol(reason) => write!(f, "coordinator protocol: {reason}"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

impl From<std::io::Error> for CoordinatorError {
    fn from(e: std::io::Error) -> Self {
        CoordinatorError::Io(e)
    }
}

impl From<WireError> for CoordinatorError {
    fn from(e: WireError) -> Self {
        CoordinatorError::Wire(e)
    }
}

impl From<FieldError> for CoordinatorError {
    fn from(e: FieldError) -> Self {
        CoordinatorError::Wire(e.into())
    }
}

impl From<ScenarioError> for CoordinatorError {
    fn from(e: ScenarioError) -> Self {
        CoordinatorError::Scenario(e)
    }
}

/// Per-agent facts collected over the control plane.
#[derive(Debug, Clone)]
pub struct AgentStats {
    /// The host this agent emulated.
    pub host: u32,
    /// Real bytes this agent's authoritative manager sent over UDP.
    pub sent_bytes: u64,
    /// Real bytes it received over UDP (after injected loss).
    pub received_bytes: u64,
    /// Wall-clock microseconds it spent blocked in the metadata barrier.
    pub barrier_wait_micros: u64,
    /// Barrier rounds it completed.
    pub barriers: u64,
    /// Datagrams dropped by the injected-loss knob.
    pub lost_datagrams: u64,
    /// Barrier rounds that hit the wall-clock timeout.
    pub barrier_timeouts: u64,
    /// Control-plane round-trip time measured during the sync handshake.
    pub control_rtt_micros: u64,
    /// Emulation Cores (emulated containers) the agent attached.
    pub cores: u64,
}

/// The result of a distributed run.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// The merged schema-version-4 report: agent 0's partial report with
    /// the metadata accounting replaced by real per-agent socket byte
    /// counts, the convergence block folded from the agents' gap series by
    /// [`ConvergenceStats::from_host_series`] (agent 0's own block stands
    /// when no iteration was scored), per-host `health` series streamed
    /// while the run was live, and a `socket_bus` block of per-agent
    /// barrier/loss counters.
    pub report: Value,
    /// The bootstrap phase of every host, one row per handshake step:
    /// every host `BootstrapperScheduled`, then `ManagerLaunched` once all
    /// managers are up, then `CoresAttached` once all cores are checked.
    pub bootstrap_trace: Vec<Vec<BootstrapPhase>>,
    /// Per-agent control-plane and socket statistics, ordered by host.
    pub agents: Vec<AgentStats>,
    /// Every agent's flight recorder merged into one multi-process Chrome
    /// trace ([`kollaps_trace::merge_chrome_traces`]) — `Some` only when
    /// the scenario enabled [`Scenario::trace`].
    pub trace: Option<Value>,
}

/// One connected agent from the coordinator's point of view.
struct AgentLink {
    host: u32,
    stream: TcpStream,
    udp_port: u16,
    control_rtt_micros: u64,
}

enum AgentHandle {
    Thread(JoinHandle<Result<(), AgentError>>),
    Process(Child),
}

/// Replaces (or appends) a top-level field of a JSON object report.
fn set_field(report: &mut Value, key: &str, value: Value) {
    if let Value::Object(fields) = report {
        for (k, v) in fields.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
        fields.push((key.to_string(), value));
    }
}

// One decoder per frame an agent sends (the sequence is in the module
// docs); each reads every field through the shim's field reader.

/// `hello { host, udp_port }`.
fn hello(frame: &Value) -> Result<(u32, u16), FieldError> {
    Ok((frame.field("host")?, frame.field("udp_port")?))
}

/// `sync_ack { nonce }`.
fn sync_ack(frame: &Value) -> Result<u64, FieldError> {
    frame.field("nonce")
}

/// `manager_up { host }`.
fn manager_up(frame: &Value) -> Result<u32, FieldError> {
    frame.field("host")
}

/// `cores_attached { host, cores }`.
fn cores_attached(frame: &Value) -> Result<(u32, u64), FieldError> {
    Ok((frame.field("host")?, frame.field("cores")?))
}

/// `health { host, at_ms, step_wall_micros, <counters> }`: the host and
/// its sample row of the merged report's `health` block.
fn health(frame: &Value) -> Result<(usize, Value), FieldError> {
    let host = frame.field("host")?;
    let mut row = Vec::new();
    for key in ["at_ms", "step_wall_micros"] {
        row.push((key, Value::from(frame.field::<u64>(key)?)));
    }
    row.extend(Counters::decode(frame)?.fields());
    Ok((host, Value::from_iter(row)))
}

/// `report { host, report, gaps, <counters>, trace? }`: an agent's partial
/// report. [`ConvergenceStats::from_host_series`] lines the hosts' gap
/// series up by index, so `gaps` must be an array of finite numbers: a
/// skipped entry would shift every later sample of the host.
struct AgentReport<'a> {
    host: u32,
    body: &'a Value,
    gaps: Vec<f64>,
    counters: Counters,
    trace: Option<&'a [Value]>,
}

fn agent_report(frame: &Value) -> Result<AgentReport<'_>, FieldError> {
    Ok(AgentReport {
        host: frame.field("host")?,
        body: frame.field("report")?,
        gaps: frame.field("gaps")?,
        counters: Counters::decode(frame)?,
        trace: frame.opt_field("trace")?,
    })
}

fn launch_agents(
    launch: &Launch,
    control_addr: &str,
    hosts: u32,
) -> Result<Vec<AgentHandle>, CoordinatorError> {
    let mut handles = Vec::new();
    for host in 0..hosts {
        match launch {
            Launch::Threads => {
                let addr = control_addr.to_string();
                handles.push(AgentHandle::Thread(std::thread::spawn(move || {
                    agent::run(&addr, host)
                })));
            }
            Launch::Processes(bin) => {
                let child = Command::new(bin)
                    .arg(control_addr)
                    .arg(host.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| {
                        CoordinatorError::Protocol(format!(
                            "failed to spawn agent binary {}: {e}",
                            bin.display()
                        ))
                    })?;
                handles.push(AgentHandle::Process(child));
            }
        }
    }
    Ok(handles)
}

fn join_agents(handles: Vec<AgentHandle>) -> Result<(), CoordinatorError> {
    for handle in handles {
        match handle {
            AgentHandle::Thread(h) => match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(CoordinatorError::Protocol(format!("agent failed: {e}"))),
                Err(_) => {
                    return Err(CoordinatorError::Protocol(
                        "agent thread panicked".to_string(),
                    ))
                }
            },
            AgentHandle::Process(mut child) => {
                let status = child.wait()?;
                if !status.success() {
                    return Err(CoordinatorError::Protocol(format!(
                        "agent process exited with {status}"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Runs `scenario` distributed across one agent per host and returns the
/// merged report.
///
/// The scenario must target the Kollaps backend; its host count decides the
/// number of agents. Its placement is resolved before any agent is
/// launched, so an invalid pin fails here as a typed
/// [`CoordinatorError::Scenario`]; every agent's attached cores are then
/// checked against that placement during the handshake.
pub fn run(
    scenario: &Scenario,
    options: &RunOptions,
) -> Result<DistributedOutcome, CoordinatorError> {
    if !(0.0..=1.0).contains(&options.loss_probability) {
        return Err(CoordinatorError::Protocol(format!(
            "loss probability {} is outside [0, 1]",
            options.loss_probability
        )));
    }
    let spec = scenario.to_spec()?;
    let hosts = scenario.host_count() as u32;
    let containers = scenario.containers_per_host()?;
    let mut bootstrap_trace = vec![vec![BootstrapPhase::BootstrapperScheduled; hosts as usize]];

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let control_addr = listener.local_addr()?.to_string();
    let handles = launch_agents(&options.launch, &control_addr, hosts)?;

    let outcome = (|| -> Result<DistributedOutcome, CoordinatorError> {
        // Accept one hello per host, in whatever order agents come up.
        let mut links: HashMap<u32, AgentLink> = HashMap::new();
        for _ in 0..hosts {
            let (mut stream, _) = listener.accept()?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            let (host, udp_port) = hello(&wire::recv_expect(&mut stream, "hello")?)?;
            if host >= hosts || links.contains_key(&host) {
                return Err(CoordinatorError::Protocol(format!(
                    "unexpected hello from host {host}"
                )));
            }
            links.insert(
                host,
                AgentLink {
                    host,
                    stream,
                    udp_port,
                    control_rtt_micros: 0,
                },
            );
        }
        let mut links: Vec<AgentLink> = {
            let mut v: Vec<AgentLink> = links.into_values().collect();
            v.sort_by_key(|l| l.host);
            v
        };

        // Clock sync / liveness probe: one nonce round-trip per agent.
        for (i, link) in links.iter_mut().enumerate() {
            let nonce = 0xC0DE_0000 + i as u64;
            let sent_at = Instant::now();
            wire::send(
                &mut link.stream,
                &wire::msg("sync", vec![("nonce", nonce.into())]),
            )?;
            let ack = wire::recv_expect(&mut link.stream, "sync_ack")?;
            if sync_ack(&ack)? != nonce {
                return Err(CoordinatorError::Protocol(format!(
                    "host {} echoed the wrong sync nonce",
                    link.host
                )));
            }
            link.control_rtt_micros = sent_at.elapsed().as_micros() as u64;
        }

        // Distribute the scenario plus the UDP peer directory.
        let peers = links
            .iter()
            .map(|l| Value::from(vec![u64::from(l.host), u64::from(l.udp_port)]))
            .collect();
        let peers = Value::Array(peers);
        for link in links.iter_mut() {
            wire::send(
                &mut link.stream,
                &wire::msg(
                    "spec",
                    vec![
                        ("spec", spec.clone()),
                        ("peers", peers.clone()),
                        ("loss", options.loss_probability.into()),
                        (
                            "barrier_timeout_ms",
                            (options.barrier_timeout.as_millis() as u64).into(),
                        ),
                    ],
                ),
            )?;
        }
        for link in links.iter_mut() {
            let up = wire::recv_expect(&mut link.stream, "manager_up")?;
            if manager_up(&up)? != link.host {
                return Err(CoordinatorError::Protocol(format!(
                    "host {} answered manager_up for another host",
                    link.host
                )));
            }
        }
        bootstrap_trace.push(vec![BootstrapPhase::ManagerLaunched; hosts as usize]);

        // Attach the per-container Emulation Cores.
        let mut cores = vec![0u64; hosts as usize];
        for link in links.iter_mut() {
            wire::send(&mut link.stream, &wire::msg("attach", vec![]))?;
        }
        for link in links.iter_mut() {
            let (host, n) =
                cores_attached(&wire::recv_expect(&mut link.stream, "cores_attached")?)?;
            if host != link.host {
                return Err(CoordinatorError::Protocol(format!(
                    "host {} answered cores_attached for another host",
                    link.host
                )));
            }
            let expected = containers[link.host as usize];
            if n != expected as u64 {
                return Err(CoordinatorError::Protocol(format!(
                    "host {} attached {n} cores, the placement puts {expected} containers there",
                    link.host
                )));
            }
            cores[link.host as usize] = n;
        }
        bootstrap_trace.push(vec![BootstrapPhase::CoresAttached; hosts as usize]);

        // Start barrier: release every agent, then collect reports.
        for link in links.iter_mut() {
            wire::send(&mut link.stream, &wire::msg("start", vec![]))?;
        }
        let mut partials: Vec<Value> = Vec::new();
        let mut series: Vec<Vec<f64>> = Vec::new();
        let mut agents: Vec<AgentStats> = Vec::new();
        let mut samples: Vec<Vec<Value>> = (0..hosts).map(|_| Vec::new()).collect();
        let mut traces: Vec<(String, Value)> = Vec::new();
        for link in links.iter_mut() {
            // The emulation itself runs between start and report; give it
            // far more slack than the control handshake.
            link.stream
                .set_read_timeout(Some(Duration::from_secs(300)))?;
            // Agents stream `health` frames while running; drain them into
            // the per-host series until the final `report` arrives. Frames
            // from agents read later just queue in their TCP buffers.
            let report = loop {
                let message = wire::recv(&mut link.stream)?;
                match wire::msg_type(&message) {
                    Some("health") => {
                        let (host, row) = health(&message)?;
                        let Some(series) = samples.get_mut(host) else {
                            return Err(CoordinatorError::Protocol(format!(
                                "health frame from unknown host {host}"
                            )));
                        };
                        series.push(row);
                    }
                    Some("report") => break message,
                    Some(t) => {
                        return Err(CoordinatorError::Protocol(format!(
                            "host {} sent `{t}` while a report was expected",
                            link.host
                        )))
                    }
                    None => {
                        return Err(CoordinatorError::Protocol(
                            "control message without a type".to_string(),
                        ))
                    }
                }
            };
            let report = agent_report(&report)?;
            if report.host != link.host {
                return Err(CoordinatorError::Protocol(format!(
                    "host {} reported for another host",
                    link.host
                )));
            }
            let c = report.counters;
            agents.push(AgentStats {
                host: link.host,
                sent_bytes: c.sent,
                received_bytes: c.received,
                barrier_wait_micros: c.barrier_wait_micros,
                barriers: c.barriers,
                lost_datagrams: c.lost_datagrams,
                barrier_timeouts: c.barrier_timeouts,
                control_rtt_micros: link.control_rtt_micros,
                cores: cores[link.host as usize],
            });
            series.push(report.gaps);
            if let Some(trace) = report.trace {
                traces.push((format!("agent-{}", link.host), Value::Array(trace.to_vec())));
            }
            partials.push(report.body.clone());
        }
        for link in links.iter_mut() {
            wire::send(&mut link.stream, &wire::msg("bye", vec![]))?;
        }

        // Merge: agent 0's replica report is the base (all replicas are
        // deterministic copies); the metadata accounting and convergence
        // block are replaced with the real distributed measurements.
        let mut merged = partials
            .first()
            .cloned()
            .ok_or_else(|| CoordinatorError::Protocol("no partial reports".to_string()))?;
        set_field(&mut merged, "backend", Value::from("kollaps-distributed"));
        let total_sent: u64 = agents.iter().map(|a| a.sent_bytes).sum();
        set_field(&mut merged, "metadata_bytes", Value::from(total_sent));
        let rows = agents
            .iter()
            .map(|a| {
                HostMetadata {
                    host: a.host,
                    sent_bytes: a.sent_bytes,
                    received_bytes: a.received_bytes,
                }
                .to_json()
            })
            .collect();
        set_field(&mut merged, "metadata_per_host", Value::Array(rows));
        let convergence = ConvergenceStats::from_host_series(&series);
        if convergence.samples > 0 {
            let block = ConvergenceReport::from(convergence).to_json();
            set_field(&mut merged, "convergence", block);
        }
        // Live telemetry only the distributed runtime can produce: the
        // per-host health series streamed while the run was in flight and
        // the final per-agent socket-bus counters.
        set_field(
            &mut merged,
            "health",
            Value::Array(
                samples
                    .into_iter()
                    .enumerate()
                    .map(|(host, rows)| {
                        Value::from_iter([
                            ("host", Value::from(host as u64)),
                            ("samples", Value::Array(rows)),
                        ])
                    })
                    .collect(),
            ),
        );
        set_field(
            &mut merged,
            "socket_bus",
            Value::Array(
                agents
                    .iter()
                    .map(|a| {
                        Value::from_iter([
                            ("host", Value::from(u64::from(a.host))),
                            ("barrier_wait_micros", Value::from(a.barrier_wait_micros)),
                            ("barriers", Value::from(a.barriers)),
                            ("barrier_timeouts", Value::from(a.barrier_timeouts)),
                            ("lost_datagrams", Value::from(a.lost_datagrams)),
                        ])
                    })
                    .collect(),
            ),
        );
        let trace = (!traces.is_empty()).then(|| kollaps_trace::merge_chrome_traces(&traces));

        Ok(DistributedOutcome {
            report: merged,
            bootstrap_trace,
            agents,
            trace,
        })
    })();

    match outcome {
        Ok(outcome) => {
            join_agents(handles)?;
            Ok(outcome)
        }
        Err(e) => {
            // Best effort: reap whatever is still running so a failed run
            // does not leak processes; the original error wins.
            for handle in handles {
                match handle {
                    AgentHandle::Thread(_) => {}
                    AgentHandle::Process(mut child) => {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
            }
            Err(e)
        }
    }
}

/// The staggered-join scenario the distributed smoke tests and benches
/// run: four UDP flow pairs on a dumbbell joining 700 ms apart, pinned
/// pairwise onto two hosts so every flow competes with flows managed by
/// the *other* Emulation Manager. Mirrors the in-process staleness
/// experiment's workload so distributed results are directly comparable.
pub fn staggered_join_scenario(seconds: u64) -> Scenario {
    let (topology, _, _) = kollaps_topology::generators::dumbbell(
        4,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let mut scenario = Scenario::from_topology(topology)
        .named("distributed-staggered-join")
        .distributed(2);
    for i in 0..4u64 {
        scenario = scenario
            .workload(
                Workload::iperf_udp(
                    &format!("client-{i}"),
                    &format!("server-{i}"),
                    Bandwidth::from_mbps(30),
                )
                .start(SimDuration::from_millis(i * 700))
                .duration(SimDuration::from_secs(seconds)),
            )
            .place(&format!("client-{i}"), (i % 2) as u32)
            .place(&format!("server-{i}"), (i % 2) as u32);
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Vec<(&'static str, Value)> {
        Counters::default().fields().to_vec()
    }

    /// A valid `report` frame of host 0 with the given gap series.
    fn report_with_gaps(gaps: Value) -> Value {
        let mut fields = vec![
            ("host", 0u64.into()),
            (
                "report",
                Value::from_iter([("schema_version", 4u64.into())]),
            ),
            ("gaps", gaps),
        ];
        fields.extend(counters());
        wire::msg("report", fields)
    }

    #[test]
    fn gap_series_must_be_an_array_of_finite_numbers() {
        let gaps = Value::Array(vec![0.5.into(), 1u64.into(), 0.0.into()]);
        let frame = report_with_gaps(gaps);
        assert_eq!(agent_report(&frame).unwrap().gaps, [0.5, 1.0, 0.0]);
        for bad in [
            report_with_gaps(Value::Array(vec![0.5.into(), Value::Null, 0.25.into()])),
            report_with_gaps(Value::Array(vec![0.5.into(), "0.25".into()])),
            report_with_gaps(Value::Array(vec![f64::NAN.into()])),
            report_with_gaps(0.5.into()),
            report_with_gaps(Value::Null),
        ] {
            let err = CoordinatorError::from(agent_report(&bad).err().unwrap());
            assert!(
                matches!(&err, CoordinatorError::Wire(WireError::Protocol(reason))
                    if reason.contains("gaps")),
                "{bad}: {err}"
            );
        }
    }

    /// Every frame an agent sends, with each field missing, of the wrong
    /// kind, negative or (for the 32- and 16-bit fields) 2³², decodes to a
    /// typed error naming that field, and none panics.
    #[test]
    fn malformed_agent_frames_are_typed_errors() {
        type Decode = fn(&Value) -> Result<(), FieldError>;
        let host = || ("host", Value::from(0u64));
        let mut health_fields = vec![host(), ("at_ms", 250u64.into())];
        health_fields.push(("step_wall_micros", 9u64.into()));
        health_fields.extend(counters());
        let frames: [(Value, Decode, &[&str]); 6] = [
            (
                wire::msg("hello", vec![host(), ("udp_port", 4000u64.into())]),
                |f| hello(f).map(drop),
                &["host", "udp_port"],
            ),
            (
                wire::msg("sync_ack", vec![("nonce", 7u64.into())]),
                |f| sync_ack(f).map(drop),
                &[],
            ),
            (
                wire::msg("manager_up", vec![host()]),
                |f| manager_up(f).map(drop),
                &["host"],
            ),
            (
                wire::msg("cores_attached", vec![host(), ("cores", 4u64.into())]),
                |f| cores_attached(f).map(drop),
                &["host"],
            ),
            (
                wire::msg("health", health_fields),
                |f| health(f).map(drop),
                &[],
            ),
            (
                report_with_gaps(Value::Array(vec![0.5.into()])),
                |f| agent_report(f).map(drop),
                &["host"],
            ),
        ];
        for (frame, decode, narrow) in frames {
            assert_eq!(decode(&frame), Ok(()), "{frame}");
            let Value::Object(fields) = &frame else {
                unreachable!()
            };
            for at in 1..fields.len() {
                let key = fields[at].0.as_str();
                let mut missing = fields.clone();
                missing.remove(at);
                let mut bad = vec![missing];
                let swap = match fields[at].1 {
                    Value::String(_) => 1u64.into(),
                    _ => "x".into(),
                };
                let wide = narrow.contains(&key).then(|| (1u64 << 32).into());
                for value in [Some(swap), Some((-1.0).into()), wide]
                    .into_iter()
                    .flatten()
                {
                    let mut fields = fields.clone();
                    fields[at].1 = value;
                    bad.push(fields);
                }
                for fields in bad {
                    let bad = Value::Object(fields);
                    let err = decode(&bad).unwrap_err();
                    assert_eq!(err.key, key, "{bad}: {err}");
                }
            }
        }
    }

    #[test]
    fn merged_convergence_lines_hosts_up_by_sample() {
        let merged = ConvergenceStats::from_host_series(&[vec![0.1, 0.4, 0.2], vec![0.3, 0.1]]);
        assert_eq!(
            ConvergenceReport::from(merged),
            ConvergenceReport {
                last_gap: 0.2,
                max_gap: 0.4,
                mean_gap: (0.3 + 0.4 + 0.2) / 3.0,
            }
        );
        assert_eq!(ConvergenceStats::from_host_series(&[]).samples, 0);
        assert_eq!(
            ConvergenceStats::from_host_series(&[Vec::new(), Vec::new()]).samples,
            0
        );
    }

    #[test]
    fn a_loss_probability_outside_the_unit_interval_is_rejected_before_launch() {
        // The agent binary does not exist: the run fails on the option
        // before it gets as far as spawning one.
        let launch = Launch::Processes(PathBuf::from("/nonexistent/kollaps-agent"));
        for loss in [1.5, -0.25, f64::NAN, f64::INFINITY] {
            let options = RunOptions {
                launch: launch.clone(),
                loss_probability: loss,
                ..RunOptions::default()
            };
            let err = run(&staggered_join_scenario(1), &options).unwrap_err();
            let CoordinatorError::Protocol(reason) = err else {
                panic!("loss {loss}: {err}");
            };
            assert!(reason.contains("loss probability"), "{reason}");
        }
    }
}
