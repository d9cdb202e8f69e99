//! The scenario **wire spec**: a self-contained JSON form of a scenario
//! that the distributed runtime ships to its agent processes.
//!
//! Agents must rebuild a byte-identical deterministic session from the
//! spec alone, so [`Scenario::to_spec`] serializes the *expanded*
//! composition: the topology source is resolved, churn generators are
//! folded into the sorted event schedule (their seeds already consumed),
//! and the `hosts`/`metadata_delay` deployment overrides are applied onto
//! the embedded [`EmulationConfig`]. Decoding replays the topology
//! builders in node/link-id order — ids are dense and monotonic, so the
//! rebuilt [`Topology`] is equal to the expanded one — and reconstructs a
//! plain [`Scenario`] whose `run()` is indistinguishable from the
//! original's. The snapshot timeline is *not* shipped: agents recompute it
//! deterministically from the same topology and schedule.

use serde_json::{self, FieldError, Value};

use kollaps_core::emulation::EmulationConfig;
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::{Bandwidth, DataSize};
use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule, LinkChange};
use kollaps_topology::model::{LinkProperties, NodeId, NodeKind, Topology};
use kollaps_transport::tcp::CongestionAlgorithm;

use crate::workload::{Workload, WorkloadKind};
use crate::{Backend, Scenario, ScenarioError, TopologySource};

/// Version tag carried by every spec; decoding rejects anything else.
pub const SPEC_VERSION: u64 = 1;

fn spec_err(reason: impl Into<String>) -> ScenarioError {
    ScenarioError::Spec {
        reason: reason.into(),
    }
}

fn encode_change(change: &LinkChange) -> Value {
    Value::from_iter([
        ("latency_ns", change.latency.map(|d| d.as_nanos()).into()),
        ("jitter_ns", change.jitter.map(|d| d.as_nanos()).into()),
        ("up_bps", change.up.map(|b| b.as_bps()).into()),
        ("down_bps", change.down.map(|b| b.as_bps()).into()),
        ("loss", change.loss.into()),
    ])
}

fn decode_change(value: &Value) -> Result<LinkChange, ScenarioError> {
    Ok(LinkChange {
        latency: value.opt_field("latency_ns")?.map(SimDuration::from_nanos),
        jitter: value.opt_field("jitter_ns")?.map(SimDuration::from_nanos),
        up: value.opt_field("up_bps")?.map(Bandwidth::from_bps),
        down: value.opt_field("down_bps")?.map(Bandwidth::from_bps),
        loss: value.opt_field("loss")?,
    })
}

fn encode_event(event: &DynamicEvent) -> Value {
    let mut fields: Vec<(&str, Value)> = vec![("at_ns", event.at.as_nanos().into())];
    match &event.action {
        DynamicAction::SetLinkProperties { orig, dest, change } => {
            fields.push(("action", "set_link".into()));
            fields.push(("orig", orig.as_str().into()));
            fields.push(("dest", dest.as_str().into()));
            fields.push(("change", encode_change(change)));
        }
        DynamicAction::LinkJoin { orig, dest, change } => {
            fields.push(("action", "link_join".into()));
            fields.push(("orig", orig.as_str().into()));
            fields.push(("dest", dest.as_str().into()));
            fields.push(("change", encode_change(change)));
        }
        DynamicAction::LinkLeave { orig, dest } => {
            fields.push(("action", "link_leave".into()));
            fields.push(("orig", orig.as_str().into()));
            fields.push(("dest", dest.as_str().into()));
        }
        DynamicAction::NodeLeave { name } => {
            fields.push(("action", "node_leave".into()));
            fields.push(("name", name.as_str().into()));
        }
        DynamicAction::NodeJoin { name } => {
            fields.push(("action", "node_join".into()));
            fields.push(("name", name.as_str().into()));
        }
    }
    Value::from_iter(fields)
}

fn decode_event(value: &Value) -> Result<DynamicEvent, ScenarioError> {
    let at = SimDuration::from_nanos(value.field("at_ns")?);
    let name = |key| value.field::<&str>(key).map(str::to_string);
    let action = match value.field("action")? {
        "set_link" => DynamicAction::SetLinkProperties {
            orig: name("orig")?,
            dest: name("dest")?,
            change: decode_change(value.field("change")?)?,
        },
        "link_join" => DynamicAction::LinkJoin {
            orig: name("orig")?,
            dest: name("dest")?,
            change: decode_change(value.field("change")?)?,
        },
        "link_leave" => DynamicAction::LinkLeave {
            orig: name("orig")?,
            dest: name("dest")?,
        },
        "node_leave" => DynamicAction::NodeLeave {
            name: name("name")?,
        },
        "node_join" => DynamicAction::NodeJoin {
            name: name("name")?,
        },
        other => return Err(spec_err(format!("unknown event action `{other}`"))),
    };
    Ok(DynamicEvent { at, action })
}

fn algorithm_name(algorithm: CongestionAlgorithm) -> &'static str {
    match algorithm {
        CongestionAlgorithm::Reno => "reno",
        CongestionAlgorithm::Cubic => "cubic",
    }
}

fn encode_workload(workload: &Workload) -> Value {
    let server = || workload.server.as_str().into();
    // Validation gives every workload a client.
    let client = || workload.clients.first().map_or("", String::as_str).into();
    let clients = || Value::Array(workload.clients.iter().map(|c| c.as_str().into()).collect());
    let mut fields: Vec<(&str, Value)> = match &workload.kind {
        WorkloadKind::IperfTcp { algorithm } => vec![
            ("kind", "iperf_tcp".into()),
            ("client", client()),
            ("server", server()),
            ("algorithm", algorithm_name(*algorithm).into()),
        ],
        WorkloadKind::IperfUdp { rate } => vec![
            ("kind", "iperf_udp".into()),
            ("client", client()),
            ("server", server()),
            ("rate_bps", rate.as_bps().into()),
        ],
        WorkloadKind::Ping { count, interval } => vec![
            ("kind", "ping".into()),
            ("src", client()),
            ("dst", server()),
            ("count", (*count).into()),
            ("interval_ns", interval.as_nanos().into()),
        ],
        WorkloadKind::Wrk2 {
            connections,
            request,
        } => vec![
            ("kind", "wrk2".into()),
            ("server", server()),
            ("client", client()),
            ("connections", (*connections).into()),
            ("request_bytes", request.as_bytes().into()),
        ],
        WorkloadKind::Curl { request } => vec![
            ("kind", "curl".into()),
            ("server", server()),
            ("clients", clients()),
            ("request_bytes", request.as_bytes().into()),
        ],
        WorkloadKind::Memcached { connections } => vec![
            ("kind", "memcached".into()),
            ("server", server()),
            ("clients", clients()),
            ("connections", (*connections).into()),
        ],
    };
    fields.push(("start_ns", workload.start.as_nanos().into()));
    fields.push((
        "duration_ns",
        workload.duration.map(|d| d.as_nanos()).into(),
    ));
    Value::from_iter(fields)
}

fn decode_workload(value: &Value) -> Result<Workload, ScenarioError> {
    let name = |key| value.field::<&str>(key).map(str::to_string);
    let one = |key| name(key).map(|n| vec![n]);
    let list = |key| -> Result<Vec<String>, FieldError> {
        Ok(value
            .field::<Vec<&str>>(key)?
            .iter()
            .map(|c| c.to_string())
            .collect())
    };
    let request = || value.field("request_bytes").map(DataSize::from_bytes);
    let connections = || value.field::<usize>("connections");
    let (clients, server, kind) = match value.field("kind")? {
        "iperf_tcp" => {
            let algorithm = match value.field("algorithm")? {
                "reno" => CongestionAlgorithm::Reno,
                "cubic" => CongestionAlgorithm::Cubic,
                other => return Err(spec_err(format!("unknown congestion algorithm `{other}`"))),
            };
            let kind = WorkloadKind::IperfTcp { algorithm };
            (one("client")?, name("server")?, kind)
        }
        "iperf_udp" => {
            let rate = Bandwidth::from_bps(value.field("rate_bps")?);
            let kind = WorkloadKind::IperfUdp { rate };
            (one("client")?, name("server")?, kind)
        }
        "ping" => {
            let kind = WorkloadKind::Ping {
                count: value.field("count")?,
                interval: SimDuration::from_nanos(value.field("interval_ns")?),
            };
            (one("src")?, name("dst")?, kind)
        }
        "wrk2" => {
            let kind = WorkloadKind::Wrk2 {
                connections: connections()?,
                request: request()?,
            };
            (one("client")?, name("server")?, kind)
        }
        "curl" => {
            let kind = WorkloadKind::Curl {
                request: request()?,
            };
            (list("clients")?, name("server")?, kind)
        }
        "memcached" => {
            let kind = WorkloadKind::Memcached {
                connections: connections()?,
            };
            (list("clients")?, name("server")?, kind)
        }
        other => return Err(spec_err(format!("unknown workload kind `{other}`"))),
    };
    Ok(Workload {
        kind,
        server,
        clients,
        start: SimDuration::from_nanos(value.field("start_ns")?),
        duration: value.opt_field("duration_ns")?.map(SimDuration::from_nanos),
    })
}

fn decode_topology(spec: &Value) -> Result<Topology, ScenarioError> {
    let mut topology = Topology::new();
    let mut names = std::collections::HashSet::new();
    for node in spec.field::<&[Value]>("nodes")? {
        match node.field("kind")? {
            "service" => {
                let service: &str = node.field("service")?;
                let replica: u32 = node.field("replica")?;
                if !names.insert(format!("{service}.{replica}")) {
                    return Err(spec_err(format!("duplicate node `{service}.{replica}`")));
                }
                topology.add_service(service, replica, node.field("image")?);
            }
            "bridge" => {
                let name: &str = node.field("name")?;
                if !names.insert(name.to_string()) {
                    return Err(spec_err(format!("duplicate node `{name}`")));
                }
                topology.add_bridge(name);
            }
            other => return Err(spec_err(format!("unknown node kind `{other}`"))),
        }
    }
    let n_nodes = topology.nodes().len() as u64;
    for link in spec.field::<&[Value]>("links")? {
        let from: u64 = link.field("from")?;
        let to: u64 = link.field("to")?;
        if from >= n_nodes || to >= n_nodes {
            return Err(spec_err(format!("link endpoint {from}->{to} out of range")));
        }
        let properties = LinkProperties {
            latency: SimDuration::from_nanos(link.field("latency_ns")?),
            jitter: SimDuration::from_nanos(link.field("jitter_ns")?),
            bandwidth: Bandwidth::from_bps(link.field("bandwidth_bps")?),
            loss: link.field("loss")?,
        };
        topology.add_link(
            NodeId(from as u32),
            NodeId(to as u32),
            properties,
            link.field("network")?,
        );
    }
    Ok(topology)
}

impl Scenario {
    /// Serializes the scenario into its versioned wire spec. Only the
    /// Kollaps backend is serializable — the spec exists so distributed
    /// agents can rebuild emulation managers, which the baseline backends
    /// do not run.
    pub fn to_spec(&self) -> Result<Value, ScenarioError> {
        let (topology, schedule) = self.expand()?;
        let (hosts, config) = match &self.backend {
            Backend::Kollaps { config, .. } => {
                let hosts = self.checked_host_count()?;
                let mut config = *config;
                if let Some(delay) = self.metadata_delay {
                    config.metadata_delay = delay;
                }
                (hosts, config)
            }
            other => {
                return Err(ScenarioError::UnsupportedBackend {
                    backend: other.name().to_string(),
                    reason: "only the Kollaps backend can be serialized for \
                             distributed execution"
                        .to_string(),
                })
            }
        };
        let nodes: Vec<Value> = topology
            .nodes()
            .iter()
            .map(|node| match &node.kind {
                NodeKind::Service {
                    service,
                    replica,
                    image,
                } => Value::from_iter([
                    ("kind", "service".into()),
                    ("service", service.as_str().into()),
                    ("replica", (*replica).into()),
                    ("image", image.as_str().into()),
                ]),
                NodeKind::Bridge { name } => {
                    Value::from_iter([("kind", "bridge".into()), ("name", name.as_str().into())])
                }
            })
            .collect();
        let links: Vec<Value> = topology
            .links()
            .iter()
            .map(|link| {
                Value::from_iter([
                    ("from", link.from.0.into()),
                    ("to", link.to.0.into()),
                    ("latency_ns", link.properties.latency.as_nanos().into()),
                    ("jitter_ns", link.properties.jitter.as_nanos().into()),
                    ("bandwidth_bps", link.properties.bandwidth.as_bps().into()),
                    ("loss", link.properties.loss.into()),
                    ("network", link.network.as_str().into()),
                ])
            })
            .collect();
        Ok(Value::from_iter([
            ("spec_version", SPEC_VERSION.into()),
            ("name", self.name.as_str().into()),
            ("distributed", self.distributed.into()),
            // Additive field: older decoders ignore it, older specs omit it
            // (tracing defaults off), and tracing only affects wall clock —
            // results are byte-identical — so no version bump.
            ("trace", self.trace.into()),
            ("hosts", hosts.into()),
            (
                "config",
                Value::from_iter([
                    ("loop_interval_ns", config.loop_interval.as_nanos().into()),
                    (
                        "cross_host_delay_ns",
                        config.cross_host_delay.as_nanos().into(),
                    ),
                    (
                        "container_overhead_ns",
                        config.container_overhead.as_nanos().into(),
                    ),
                    ("metadata_delay_ns", config.metadata_delay.as_nanos().into()),
                    ("seed", config.seed.into()),
                ]),
            ),
            ("nodes", Value::Array(nodes)),
            ("links", Value::Array(links)),
            (
                "schedule",
                Value::Array(schedule.events().iter().map(encode_event).collect()),
            ),
            (
                "placement",
                Value::Array(
                    self.placement
                        .iter()
                        .map(|(name, host)| {
                            Value::Array(vec![name.as_str().into(), (*host).into()])
                        })
                        .collect(),
                ),
            ),
            (
                "workloads",
                Value::Array(self.workloads.iter().map(encode_workload).collect()),
            ),
            ("duration_ns", self.duration.map(|d| d.as_nanos()).into()),
            (
                "step_interval_ns",
                self.step_interval.map(|d| d.as_nanos()).into(),
            ),
        ]))
    }

    /// [`Scenario::to_spec`] rendered to a JSON string.
    pub fn to_spec_string(&self) -> Result<String, ScenarioError> {
        Ok(serde_json::to_string(&self.to_spec()?))
    }

    /// Rebuilds a scenario from its wire spec. The result runs exactly
    /// like the scenario that produced the spec: same topology (node and
    /// link ids replay densely), same sorted schedule, same emulation
    /// config, workloads, placement and pacing knobs.
    pub fn from_spec(spec: &Value) -> Result<Scenario, ScenarioError> {
        let version: u64 = spec.field("spec_version")?;
        if version != SPEC_VERSION {
            return Err(spec_err(format!(
                "unsupported spec_version {version} (expected {SPEC_VERSION})"
            )));
        }
        let topology = decode_topology(spec)?;
        let config_value: &Value = spec.field("config")?;
        let nanos = |key| config_value.field(key).map(SimDuration::from_nanos);
        let config = EmulationConfig {
            loop_interval: nanos("loop_interval_ns")?,
            cross_host_delay: nanos("cross_host_delay_ns")?,
            container_overhead: nanos("container_overhead_ns")?,
            metadata_delay: nanos("metadata_delay_ns")?,
            seed: config_value.field("seed")?,
            ..EmulationConfig::default()
        };
        let events = spec
            .field::<&[Value]>("schedule")?
            .iter()
            .map(decode_event)
            .collect::<Result<Vec<_>, _>>()?;
        let mut scenario = Scenario::new(TopologySource::Topology(Box::new(topology)))
            .named(spec.field("name")?)
            .backend(Backend::kollaps_with(spec.field("hosts")?, config))
            .schedule(EventSchedule::from_events(events));
        scenario.distributed = spec.field("distributed")?;
        scenario.trace = spec.opt_field("trace")?.unwrap_or(false);
        for (name, host) in spec.field::<Vec<(&str, u32)>>("placement")? {
            scenario = scenario.place(name, host);
        }
        for workload in spec.field::<&[Value]>("workloads")? {
            scenario = scenario.workload(decode_workload(workload)?);
        }
        let opt_nanos = |key| spec.opt_field(key).map(|n| n.map(SimDuration::from_nanos));
        scenario.duration = opt_nanos("duration_ns")?;
        scenario.step_interval = opt_nanos("step_interval_ns")?;
        Ok(scenario)
    }

    /// [`Scenario::from_spec`] over a JSON string.
    pub fn from_spec_str(text: &str) -> Result<Scenario, ScenarioError> {
        let value =
            serde_json::from_str(text).map_err(|e| spec_err(format!("malformed JSON: {e:?}")))?;
        Scenario::from_spec(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Churn;
    use kollaps_topology::generators;

    fn sample_scenario() -> Scenario {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        Scenario::from_topology(topo)
            .named("spec-round-trip")
            .distributed(2)
            .place("client-0", 0)
            .place("server-0", 1)
            .place("client-1", 1)
            .place("server-1", 0)
            .metadata_delay(SimDuration::from_micros(200))
            .churn(
                Churn::poisson_flaps(&[("client-1", "bridge-left")])
                    .mean_uptime(SimDuration::from_secs(2))
                    .mean_downtime(SimDuration::from_millis(300))
                    .horizon(SimDuration::from_secs(5))
                    .seed(11),
            )
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(30))
                    .duration(SimDuration::from_secs(5)),
            )
            .workload(
                Workload::ping("client-1", "server-1")
                    .count(8)
                    .interval(SimDuration::from_millis(250))
                    .start(SimDuration::from_millis(700))
                    .duration(SimDuration::from_secs(4)),
            )
    }

    #[test]
    fn spec_round_trip_is_stable() {
        let scenario = sample_scenario();
        let text = scenario.to_spec_string().expect("serializable");
        let decoded = Scenario::from_spec_str(&text).expect("decodable");
        assert!(decoded.is_distributed());
        assert_eq!(decoded.host_count(), 2);
        // A second encode of the decoded scenario is byte-identical: the
        // spec is a fixed point (churn already folded, ids already dense).
        let text2 = decoded.to_spec_string().expect("re-serializable");
        assert_eq!(text, text2);
    }

    #[test]
    fn decoded_scenario_runs_identically() {
        // Neutralize the only wall-clock field the report carries.
        fn scrub(mut report: Value) -> String {
            if let Value::Object(fields) = &mut report {
                for (key, value) in fields.iter_mut() {
                    if key == "dynamics" {
                        if let Value::Object(dynamics) = value {
                            dynamics.retain(|(k, _)| k != "precompute_micros");
                        }
                    }
                }
            }
            serde_json::to_string(&report)
        }
        let original = sample_scenario().run().expect("original runs");
        let decoded = Scenario::from_spec_str(&sample_scenario().to_spec_string().unwrap())
            .expect("decodable")
            .run()
            .expect("decoded runs");
        assert_eq!(scrub(original.to_json()), scrub(decoded.to_json()));
    }

    /// Specs written while bandwidth sharing and congestion loss were
    /// options carry a boolean for each; both keys are ignored.
    #[test]
    fn retired_config_keys_are_ignored() {
        let text = sample_scenario().to_spec_string().expect("serializable");
        assert!(!text.contains("\"threads\""), "{text}");
        let retired = "\"bandwidth_sharing\":true,\"congestion_loss\":true,\"threads\":8,\"seed\":";
        let old = text.replacen("\"seed\":", retired, 1);
        assert_ne!(old, text);
        let decoded = Scenario::from_spec_str(&old).expect("old specs still decode");
        assert_eq!(decoded.to_spec_string().expect("re-serializable"), text);
    }

    /// Specs written while periodic sampling was an option carry a
    /// top-level `sample_interval_ns`; the key is ignored.
    #[test]
    fn retired_sample_interval_key_is_ignored() {
        let text = sample_scenario().to_spec_string().expect("serializable");
        assert!(!text.contains("sample_interval_ns"), "{text}");
        let old = format!(
            "{},\"sample_interval_ns\":25000000}}",
            text.strip_suffix('}').expect("a JSON object")
        );
        let decoded = Scenario::from_spec_str(&old).expect("old specs still decode");
        assert_eq!(decoded.to_spec_string().expect("re-serializable"), text);
    }

    fn expect_err(result: Result<Scenario, ScenarioError>) -> ScenarioError {
        match result {
            Err(e) => e,
            Ok(_) => panic!("expected a spec error"),
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        let err = expect_err(Scenario::from_spec_str("{"));
        assert!(matches!(err, ScenarioError::Spec { .. }), "{err}");
        let err = expect_err(Scenario::from_spec_str("{\"spec_version\":99}"));
        assert!(
            matches!(&err, ScenarioError::Spec { reason } if reason.contains("spec_version")),
            "{err}"
        );
        // Non-Kollaps backends have no spec form.
        let err = sample_scenario()
            .backend(Backend::ground_truth())
            .to_spec()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedBackend { .. }),
            "{err}"
        );
        // Integers beyond 32 bits are refused, not truncated: host
        // 4294967296 used to wrap to host 0 and pass placement validation.
        let text = sample_scenario().to_spec_string().expect("serializable");
        for (field, wide) in [
            ("[\"client-0\",0]", "[\"client-0\",4294967296]"),
            ("\"replica\":0", "\"replica\":4294967296"),
        ] {
            let wide = text.replacen(field, wide, 1);
            assert_ne!(wide, text, "{field} not in the spec");
            let err = expect_err(Scenario::from_spec_str(&wide));
            assert!(
                matches!(&err, ScenarioError::Spec { reason } if reason.contains("32")),
                "{err}"
            );
        }
    }
}
