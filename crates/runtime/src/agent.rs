//! The `kollaps-agent`: one process per emulated physical host.
//!
//! An agent connects to the coordinator's TCP control socket, receives the
//! scenario spec, rebuilds the deterministic session replica locally, swaps
//! the modeled metadata bus for a [`SocketBus`] bound to a real loopback
//! UDP socket, and drives the emulation to completion in lockstep with its
//! peers. While running it steps the session in bounded virtual-time
//! chunks and streams a `health` frame after each — cumulative barrier
//! wait/round/timeout counters, injected-loss drops, real UDP byte counts
//! and the chunk's wall-clock lag — so the coordinator observes agent
//! liveness live instead of waiting silently for the final report. At the
//! end it ships its partial report — including the real socket byte
//! counts, its host's convergence-gap series and (when the scenario
//! enabled tracing) its flight recorder as Chrome trace events — back to
//! the coordinator.
//!
//! The control-plane message sequence is documented on [`crate::coordinator`].

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use kollaps_metadata::bus::HostId;
use kollaps_scenario::{HostMetadata, Scenario, ScenarioError, Session, SessionError};
use kollaps_sim::time::SimDuration;
use serde_json::{FieldError, Value};

use crate::socket_bus::{SocketBus, SocketBusStats};
use crate::wire::{self, WireError};

/// How long the agent waits on the control socket before giving up on the
/// coordinator. Generous: the coordinator may legitimately stay quiet while
/// other agents catch up.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything that can abort an agent.
#[derive(Debug)]
pub enum AgentError {
    /// The control or metadata socket failed.
    Io(std::io::Error),
    /// The control plane sent a malformed or unexpected message.
    Wire(WireError),
    /// The scenario spec could not be decoded or instantiated.
    Scenario(ScenarioError),
    /// The rebuilt session rejected a distributed hook.
    Session(SessionError),
    /// The coordinator violated the handshake sequence.
    Protocol(String),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::Io(e) => write!(f, "agent i/o: {e}"),
            AgentError::Wire(e) => write!(f, "agent control plane: {e}"),
            AgentError::Scenario(e) => write!(f, "agent scenario: {e}"),
            AgentError::Session(e) => write!(f, "agent session: {e}"),
            AgentError::Protocol(reason) => write!(f, "agent protocol: {reason}"),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<std::io::Error> for AgentError {
    fn from(e: std::io::Error) -> Self {
        AgentError::Io(e)
    }
}

impl From<WireError> for AgentError {
    fn from(e: WireError) -> Self {
        AgentError::Wire(e)
    }
}

impl From<ScenarioError> for AgentError {
    fn from(e: ScenarioError) -> Self {
        AgentError::Scenario(e)
    }
}

impl From<FieldError> for AgentError {
    fn from(e: FieldError) -> Self {
        AgentError::Protocol(e.to_string())
    }
}

impl From<SessionError> for AgentError {
    fn from(e: SessionError) -> Self {
        AgentError::Session(e)
    }
}

/// The session replica plus the shared socket counters, built on `spec`.
struct Prepared {
    session: Session,
    stats: Arc<SocketBusStats>,
}

fn prepare(message: &Value, me: u32, udp: UdpSocket) -> Result<Prepared, AgentError> {
    let spec: &Value = message.field("spec")?;
    let scenario = Scenario::from_spec(spec)?;
    let n_hosts = scenario.host_count();
    if me as usize >= n_hosts {
        return Err(AgentError::Protocol(format!(
            "assigned host {me} but the scenario has only {n_hosts} hosts"
        )));
    }
    // The socket bus mirrors the scenario's one-way metadata delay onto
    // real deliveries.
    let config: &Value = spec.field("config")?;
    let metadata_delay = SimDuration::from_nanos(config.field("metadata_delay_ns")?);
    let loss = loss(message)?;
    let barrier_timeout = Duration::from_millis(message.field("barrier_timeout_ms")?);
    let peers = peers(message, me)?;
    let mut session = scenario.session()?;
    let stats = Arc::new(SocketBusStats::default());
    let bus = SocketBus::new(
        (0..n_hosts as u32).map(HostId).collect(),
        HostId(me),
        udp,
        peers,
        metadata_delay,
        loss,
        barrier_timeout,
        Arc::clone(&stats),
    )?;
    session.install_metadata_bus(Box::new(bus))?;
    Ok(Prepared { session, stats })
}

/// The injected datagram loss of a `spec` message: a finite probability in
/// `[0, 1]`. Anything above 1 would silently drop every datagram.
fn loss(message: &Value) -> Result<f64, AgentError> {
    let loss: f64 = message.field("loss")?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(AgentError::Protocol(format!(
            "field `loss` is {loss}, not a probability in [0, 1]"
        )));
    }
    Ok(loss)
}

/// The UDP peer directory of a `spec` message: every other host's metadata
/// socket on loopback, from `[host, port]` pairs of a `u32` and a `u16`.
fn peers(message: &Value, me: u32) -> Result<HashMap<HostId, SocketAddr>, AgentError> {
    let pairs: Vec<(u32, u16)> = message.field("peers")?;
    Ok(pairs
        .into_iter()
        .filter(|&(host, _)| host != me)
        .map(|(host, port)| (HostId(host), SocketAddr::from(([127, 0, 0, 1], port))))
        .collect())
}

/// Virtual time between the health frames an agent streams while running.
fn health_interval() -> SimDuration {
    SimDuration::from_millis(250)
}

/// The cumulative counters an agent ships in every `health` frame and again
/// in its final `report`: its socket bus's barrier and loss counters and
/// the real metadata bytes its host sent and received. One encoder and one
/// decoder serve both frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) barrier_wait_micros: u64,
    pub(crate) barriers: u64,
    pub(crate) barrier_timeouts: u64,
    pub(crate) lost_datagrams: u64,
    pub(crate) sent: u64,
    pub(crate) received: u64,
}

impl Counters {
    /// The counters of host `me` now: `hosts` is its session's (or final
    /// report's) per-host metadata accounting.
    fn read(stats: &SocketBusStats, me: u32, hosts: &[HostMetadata]) -> Self {
        let (sent, received) = hosts
            .iter()
            .find(|row| row.host == me)
            .map_or((0, 0), |row| (row.sent_bytes, row.received_bytes));
        Counters {
            barrier_wait_micros: stats.barrier_wait_micros.load(Ordering::Relaxed),
            barriers: stats.barriers.load(Ordering::Relaxed),
            barrier_timeouts: stats.barrier_timeouts.load(Ordering::Relaxed),
            lost_datagrams: stats.lost_datagrams.load(Ordering::Relaxed),
            sent,
            received,
        }
    }

    /// The frame fields, in the order the merged report's health rows list
    /// them.
    pub(crate) fn fields(self) -> [(&'static str, Value); 6] {
        [
            ("barrier_wait_micros", self.barrier_wait_micros.into()),
            ("barriers", self.barriers.into()),
            ("barrier_timeouts", self.barrier_timeouts.into()),
            ("lost_datagrams", self.lost_datagrams.into()),
            ("sent", self.sent.into()),
            ("received", self.received.into()),
        ]
    }

    /// The counters a `health` or `report` frame carries.
    pub(crate) fn decode(frame: &Value) -> Result<Self, FieldError> {
        Ok(Counters {
            barrier_wait_micros: frame.field("barrier_wait_micros")?,
            barriers: frame.field("barriers")?,
            barrier_timeouts: frame.field("barrier_timeouts")?,
            lost_datagrams: frame.field("lost_datagrams")?,
            sent: frame.field("sent")?,
            received: frame.field("received")?,
        })
    }
}

/// Runs the session to its end — in bounded chunks, streaming a `health`
/// frame over the control socket after each — and builds the `report`
/// control message.
fn execute(prepared: Prepared, me: u32, control: &mut TcpStream) -> Result<Value, AgentError> {
    let Prepared { mut session, stats } = prepared;
    let end = session.end();
    let tracer = session.tracer().clone();
    let chunk = health_interval();
    while session.clock() < end {
        let target = (session.clock() + chunk).min(end);
        let wall = std::time::Instant::now();
        session.run_until(target)?;
        let step_wall_micros = wall.elapsed().as_micros() as u64;
        let counters = Counters::read(&stats, me, &session.metadata_per_host());
        let mut fields = vec![
            ("host", me.into()),
            ("at_ms", target.as_millis().into()),
            ("step_wall_micros", step_wall_micros.into()),
        ];
        fields.extend(counters.fields());
        wire::send(control, &wire::msg("health", fields))?;
    }
    let gaps = session
        .kollaps()
        .and_then(|dp| dp.host_gap_series().get(me as usize))
        .cloned()
        .unwrap_or_default();
    let report = session.finish();
    let counters = Counters::read(&stats, me, &report.metadata_per_host);
    let mut fields: Vec<(&str, Value)> = vec![
        ("host", me.into()),
        ("report", report.to_json()),
        ("gaps", gaps.into()),
    ];
    fields.extend(counters.fields());
    // With tracing enabled the agent's whole flight recorder rides along,
    // pre-exported as Chrome trace events tagged with this host's id (the
    // coordinator re-tags pids when merging).
    if tracer.is_enabled() {
        fields.push(("trace", kollaps_trace::chrome_trace(&tracer, u64::from(me))));
    }
    Ok(wire::msg("report", fields))
}

/// Runs one agent to completion: connect to `coordinator`, emulate host
/// `me`, report, exit. This is the whole body of the `kollaps-agent` binary
/// and is equally callable on a thread for in-process distributed tests.
pub fn run(coordinator: &str, me: u32) -> Result<(), AgentError> {
    let udp = UdpSocket::bind("127.0.0.1:0")?;
    let udp_port = udp.local_addr()?.port();
    let mut control = TcpStream::connect(coordinator)?;
    control.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    control.set_nodelay(true)?;
    wire::send(
        &mut control,
        &wire::msg(
            "hello",
            vec![
                ("host", me.into()),
                ("udp_port", u64::from(udp_port).into()),
            ],
        ),
    )?;
    let mut udp = Some(udp);
    let mut prepared = None;
    loop {
        let message = wire::recv(&mut control)?;
        match wire::msg_type(&message) {
            Some("sync") => {
                let nonce: u64 = message.field("nonce")?;
                wire::send(
                    &mut control,
                    &wire::msg("sync_ack", vec![("nonce", nonce.into())]),
                )?;
            }
            Some("spec") => {
                let socket = udp
                    .take()
                    .ok_or_else(|| AgentError::Protocol("received a second spec".to_string()))?;
                prepared = Some(prepare(&message, me, socket)?);
                wire::send(
                    &mut control,
                    &wire::msg("manager_up", vec![("host", me.into())]),
                )?;
            }
            Some("attach") => {
                let cores = prepared
                    .as_ref()
                    .and_then(|p| p.session.kollaps()?.managers().get(me as usize))
                    .map(|manager| manager.container_count())
                    .ok_or_else(|| AgentError::Protocol("attach before spec".to_string()))?;
                wire::send(
                    &mut control,
                    &wire::msg(
                        "cores_attached",
                        vec![("host", me.into()), ("cores", cores.into())],
                    ),
                )?;
            }
            Some("start") => {
                let ready = prepared
                    .take()
                    .ok_or_else(|| AgentError::Protocol("start before spec".to_string()))?;
                let report = execute(ready, me, &mut control)?;
                wire::send(&mut control, &report)?;
            }
            Some("bye") => return Ok(()),
            Some(t) => {
                return Err(AgentError::Protocol(format!(
                    "unexpected control message `{t}`"
                )))
            }
            None => {
                return Err(AgentError::Protocol(
                    "control message without a type".to_string(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with_peers(entries: Vec<Value>) -> Value {
        wire::msg("spec", vec![("peers", Value::Array(entries))])
    }

    fn pair(host: u64, port: u64) -> Value {
        Value::Array(vec![host.into(), port.into()])
    }

    #[test]
    fn peer_directory_skips_the_own_host() {
        let message = spec_with_peers(vec![pair(0, 4000), pair(1, 4001), pair(2, 4002)]);
        let peers = peers(&message, 1).unwrap();
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[&HostId(2)], SocketAddr::from(([127, 0, 0, 1], 4002)));
        assert!(!peers.contains_key(&HostId(1)));
    }

    #[test]
    fn peer_entries_out_of_range_are_rejected() {
        for entry in [
            pair(1 << 32, 4000),
            pair(1, 70_000),
            Value::Array(vec![1u64.into()]),
            Value::from("1:4000"),
        ] {
            let message = spec_with_peers(vec![pair(0, 4000), entry]);
            let err = peers(&message, 0).unwrap_err();
            assert!(matches!(err, AgentError::Protocol(_)), "{err}");
        }
    }

    fn spec_message(field: &str, value: Value) -> Value {
        wire::msg("spec", vec![(field, value)])
    }

    #[test]
    fn loss_must_be_a_probability() {
        for p in [0.0, 0.25, 1.0] {
            assert_eq!(loss(&spec_message("loss", p.into())).unwrap(), p);
        }
        assert_eq!(loss(&spec_message("loss", 1u64.into())).unwrap(), 1.0);
        for bad in [
            Value::from(1.5),
            Value::from(-0.1),
            Value::from(f64::INFINITY),
            Value::from(f64::NAN),
            Value::from("0.1"),
            Value::Null,
        ] {
            let err = loss(&spec_message("loss", bad.clone())).unwrap_err();
            assert!(matches!(err, AgentError::Protocol(_)), "{bad}: {err}");
        }
        let err = loss(&spec_message("peers", Value::Array(Vec::new()))).unwrap_err();
        assert!(matches!(err, AgentError::Protocol(_)), "{err}");
    }

    /// The `spec` message the coordinator sends host 0 of the two-host
    /// staggered-join scenario.
    fn valid_spec_message() -> Value {
        let spec = crate::coordinator::staggered_join_scenario(1)
            .to_spec()
            .unwrap();
        wire::msg(
            "spec",
            vec![
                ("spec", spec),
                ("peers", Value::Array(vec![pair(0, 4000), pair(1, 4001)])),
                ("loss", 0.0.into()),
                ("barrier_timeout_ms", 5000u64.into()),
            ],
        )
    }

    /// `message` with the field at `path` set to `value`, or removed.
    fn with(mut message: Value, path: &[&str], value: Option<Value>) -> Value {
        let (last, parents) = path.split_last().unwrap();
        let mut object = &mut message;
        for key in parents {
            let Value::Object(fields) = object else {
                unreachable!()
            };
            object = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let Value::Object(fields) = object else {
            unreachable!()
        };
        let at = fields.iter().position(|(k, _)| k == last).unwrap();
        match value {
            Some(value) => fields[at].1 = value,
            None => drop(fields.remove(at)),
        }
        message
    }

    fn prepare_err(message: &Value) -> AgentError {
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        match prepare(message, 0, udp) {
            Ok(_) => panic!("{message} prepared"),
            Err(e) => e,
        }
    }

    #[test]
    fn barrier_timeout_is_required() {
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        assert!(prepare(&valid_spec_message(), 0, udp).is_ok());
        for bad in [Some(Value::from(2.5)), Some(Value::from("5000")), None] {
            let message = with(valid_spec_message(), &["barrier_timeout_ms"], bad);
            let err = prepare_err(&message);
            assert!(matches!(err, AgentError::Protocol(_)), "{message}: {err}");
        }
    }

    /// The delay lives in the scenario spec, which the agent decodes
    /// before it reads anything else of the message.
    #[test]
    fn metadata_delay_is_required() {
        for bad in [Some(Value::from(-1.0)), Some(Value::Null), None] {
            let path = ["spec", "config", "metadata_delay_ns"];
            let message = with(valid_spec_message(), &path, bad);
            let err = prepare_err(&message);
            assert!(
                matches!(&err, AgentError::Scenario(ScenarioError::Spec { reason })
                    if reason.contains("metadata_delay_ns")),
                "{message}: {err}"
            );
        }
    }

    /// Every field of the `spec` message missing, of the wrong kind or out
    /// of range is a typed error, and none panics.
    #[test]
    fn malformed_spec_messages_are_typed_errors() {
        let mut cases: Vec<(Vec<&str>, Option<Value>)> = Vec::new();
        for key in ["spec", "peers", "loss", "barrier_timeout_ms"] {
            cases.push((vec![key], None));
            cases.push((vec![key], Some("x".into())));
        }
        cases.extend([
            (vec!["spec"], Some(Value::Array(Vec::new()))),
            (vec!["spec", "hosts"], Some((1u64 << 32).into())),
            (vec!["spec", "spec_version"], Some(2u64.into())),
            (vec!["peers"], Some(Value::Array(vec![pair(1 << 32, 4000)]))),
            (vec!["peers"], Some(Value::Array(vec![pair(1, 70_000)]))),
            (vec!["peers"], Some(Value::Array(vec![1u64.into()]))),
            (vec!["loss"], Some(1.5.into())),
            (vec!["loss"], Some((-0.5).into())),
            (vec!["barrier_timeout_ms"], Some((-1.0).into())),
            (vec!["barrier_timeout_ms"], Some(Value::Number(1e20))),
        ]);
        for (path, value) in cases {
            let message = with(valid_spec_message(), &path, value);
            let err = prepare_err(&message);
            assert!(
                matches!(err, AgentError::Protocol(_) | AgentError::Scenario(_)),
                "{message}: {err}"
            );
        }
    }
}
