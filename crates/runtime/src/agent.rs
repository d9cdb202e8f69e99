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
use kollaps_scenario::{Scenario, ScenarioError, Session, SessionError};
use kollaps_sim::time::SimDuration;
use serde_json::Value;

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
    let spec = message
        .get("spec")
        .ok_or_else(|| AgentError::Protocol("spec message without a spec".to_string()))?;
    let scenario = Scenario::from_spec(spec)?;
    let n_hosts = scenario.host_count();
    if me as usize >= n_hosts {
        return Err(AgentError::Protocol(format!(
            "assigned host {me} but the scenario has only {n_hosts} hosts"
        )));
    }
    let metadata_delay = metadata_delay(spec)?;
    let loss = loss(message)?;
    let barrier_timeout = barrier_timeout(message)?;
    let peers = peers(message, me)?;
    let mut session = scenario.session()?;
    session.record_host_gaps()?;
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

/// The scenario's one-way metadata delay, which the socket bus mirrors onto
/// real deliveries: `config.metadata_delay_ns` of the spec, required like
/// [`Scenario::from_spec`] requires it.
fn metadata_delay(spec: &Value) -> Result<SimDuration, AgentError> {
    spec.get("config")
        .and_then(|config| config.get("metadata_delay_ns"))
        .and_then(wire::int::<u64>)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| {
            AgentError::Protocol(
                "spec field `config.metadata_delay_ns` is missing or not a u64".to_string(),
            )
        })
}

/// The injected datagram loss of a `spec` message: a finite probability in
/// `[0, 1]`. Anything above 1 would silently drop every datagram.
fn loss(message: &Value) -> Result<f64, AgentError> {
    message
        .get("loss")
        .and_then(Value::as_f64)
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| {
            AgentError::Protocol(
                "field `loss` is missing or not a probability in [0, 1]".to_string(),
            )
        })
}

/// How long the metadata barrier of a `spec` message waits for a peer.
fn barrier_timeout(message: &Value) -> Result<Duration, AgentError> {
    message
        .get("barrier_timeout_ms")
        .and_then(wire::int::<u64>)
        .map(Duration::from_millis)
        .ok_or_else(|| {
            AgentError::Protocol("field `barrier_timeout_ms` is missing or not a u64".to_string())
        })
}

/// The UDP peer directory of a `spec` message: every other host's metadata
/// socket on loopback. An entry that is not a `[host, port]` pair of a `u32`
/// and a `u16` is a protocol error.
fn peers(message: &Value, me: u32) -> Result<HashMap<HostId, SocketAddr>, AgentError> {
    let list = message.get("peers").and_then(|v| v.as_array());
    let mut peers = HashMap::new();
    for entry in list.into_iter().flatten() {
        let pair = entry.as_array().unwrap_or_default();
        let (Some(host), Some(port)) = (
            pair.first().and_then(wire::int::<u32>),
            pair.get(1).and_then(wire::int::<u16>),
        ) else {
            return Err(AgentError::Protocol(format!(
                "peer entry {entry} is not a [host, port] pair of a u32 and a u16"
            )));
        };
        if host != me {
            peers.insert(HostId(host), SocketAddr::from(([127, 0, 0, 1], port)));
        }
    }
    Ok(peers)
}

/// Virtual time between the health frames an agent streams while running.
fn health_interval() -> SimDuration {
    SimDuration::from_millis(250)
}

/// One cumulative `health` control frame at virtual time `at`.
fn health_frame(
    me: u32,
    at_ms: u64,
    step_wall_micros: u64,
    stats: &SocketBusStats,
    sent: u64,
    received: u64,
) -> Value {
    wire::msg(
        "health",
        vec![
            ("host", me.into()),
            ("at_ms", at_ms.into()),
            ("step_wall_micros", step_wall_micros.into()),
            (
                "barrier_wait_micros",
                stats.barrier_wait_micros.load(Ordering::Relaxed).into(),
            ),
            ("barriers", stats.barriers.load(Ordering::Relaxed).into()),
            (
                "barrier_timeouts",
                stats.barrier_timeouts.load(Ordering::Relaxed).into(),
            ),
            (
                "lost_datagrams",
                stats.lost_datagrams.load(Ordering::Relaxed).into(),
            ),
            ("sent", sent.into()),
            ("received", received.into()),
        ],
    )
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
        let (sent, received) = session
            .metadata_per_host()
            .into_iter()
            .find(|row| row.host == me)
            .map(|row| (row.sent_bytes, row.received_bytes))
            .unwrap_or((0, 0));
        wire::send(
            control,
            &health_frame(
                me,
                target.as_millis(),
                step_wall_micros,
                &stats,
                sent,
                received,
            ),
        )?;
    }
    let gaps = session
        .host_gap_series()
        .into_iter()
        .nth(me as usize)
        .unwrap_or_default();
    let report = session.finish();
    let (sent, received) = report
        .metadata_per_host
        .iter()
        .find(|row| row.host == me)
        .map(|row| (row.sent_bytes, row.received_bytes))
        .unwrap_or((0, 0));
    let mut fields: Vec<(&str, Value)> = vec![
        ("host", me.into()),
        ("report", report.to_json()),
        (
            "gaps",
            Value::Array(gaps.into_iter().map(Value::from).collect()),
        ),
        ("sent", sent.into()),
        ("received", received.into()),
        (
            "barrier_wait_micros",
            stats.barrier_wait_micros.load(Ordering::Relaxed).into(),
        ),
        ("barriers", stats.barriers.load(Ordering::Relaxed).into()),
        (
            "lost_datagrams",
            stats.lost_datagrams.load(Ordering::Relaxed).into(),
        ),
        (
            "barrier_timeouts",
            stats.barrier_timeouts.load(Ordering::Relaxed).into(),
        ),
    ];
    // With tracing enabled the agent's whole flight recorder rides along,
    // pre-exported as Chrome trace events tagged with this host's id (the
    // coordinator re-tags pids when merging).
    if tracer.is_enabled() {
        fields.push((
            "trace",
            kollaps_trace::chrome_trace(&tracer.events(), u64::from(me)),
        ));
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
                let nonce: u64 = wire::field(&message, "nonce")?;
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
                    .and_then(|p| p.session.containers_on_host(me))
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

    #[test]
    fn barrier_timeout_is_required() {
        let message = spec_message("barrier_timeout_ms", 250u64.into());
        assert_eq!(
            barrier_timeout(&message).unwrap(),
            Duration::from_millis(250)
        );
        for bad in [
            spec_message("barrier_timeout_ms", Value::from(2.5)),
            spec_message("barrier_timeout_ms", Value::from("5000")),
            spec_message("loss", 0u64.into()),
        ] {
            let err = barrier_timeout(&bad).unwrap_err();
            assert!(matches!(err, AgentError::Protocol(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn metadata_delay_is_required() {
        let config = |delay: Value| {
            Value::from_iter([("config", Value::from_iter([("metadata_delay_ns", delay)]))])
        };
        assert_eq!(
            metadata_delay(&config(7u64.into())).unwrap(),
            SimDuration::from_nanos(7)
        );
        for bad in [
            config(Value::from(-1.0)),
            config(Value::Null),
            Value::from_iter([("config", Value::from_iter([("seed", Value::from(1u64))]))]),
            Value::from_iter([("name", Value::from("no config"))]),
        ] {
            let err = metadata_delay(&bad).unwrap_err();
            assert!(matches!(err, AgentError::Protocol(_)), "{bad}: {err}");
        }
    }
}
