//! Scenario-builder validation: every malformed composition is rejected
//! with the right typed [`ScenarioError`] before anything runs.

use kollaps::prelude::*;
use kollaps::topology::events::{DynamicAction, DynamicEvent, LinkChange};
use kollaps::topology::generators;
use kollaps::topology::model::LinkProperties;

fn p2p() -> Topology {
    let (topo, _, _) = generators::point_to_point(
        Bandwidth::from_mbps(100),
        SimDuration::from_millis(5),
        SimDuration::ZERO,
    );
    topo
}

#[test]
fn unknown_node_name_is_rejected() {
    let err = Scenario::from_topology(p2p())
        .workload(Workload::iperf_tcp("client", "ghost"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::UnknownNodes { ref names } if names == &["ghost".to_string()]),
        "{err}"
    );
}

/// The one-pass contract: every unknown endpoint name across every
/// workload is collected into a single error (deduplicated, in
/// first-reference order), so a misspelled scenario is fixed once.
#[test]
fn all_unknown_node_names_are_reported_at_once() {
    let err = Scenario::from_topology(p2p())
        .workload(Workload::iperf_tcp("ghost-a", "ghost-b"))
        .workload(Workload::ping("client", "ghost-c"))
        .workload(Workload::curl("ghost-a", &["server", "ghost-d"]))
        .run()
        .unwrap_err();
    let ScenarioError::UnknownNodes { names } = &err else {
        panic!("expected UnknownNodes, got {err}");
    };
    assert_eq!(names, &["ghost-a", "ghost-b", "ghost-c", "ghost-d"]);
    let text = format!("{err}");
    for name in names {
        assert!(text.contains(name.as_str()), "{text}");
    }
}

#[test]
fn workloads_on_bridges_are_rejected() {
    // `s1` exists in the DSL topology but is a bridge, not a service.
    let description = "experiment:\n  services:\n    name: a\n    name: b\n  bridges:\n    name: s1\n  links:\n    orig: a\n    dest: s1\n    up: 10Mbps\n    orig: s1\n    dest: b\n    up: 10Mbps\n";
    let err = Scenario::from_dsl(description)
        .workload(Workload::ping("a", "s1"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::NotAService { ref name } if name == "s1"),
        "{err}"
    );
}

#[test]
fn zero_bandwidth_links_are_rejected() {
    let mut topo = Topology::new();
    let a = topo.add_service("a", 0, "x");
    let b = topo.add_service("b", 0, "x");
    topo.add_bidirectional_link(
        a,
        b,
        LinkProperties::new(SimDuration::from_millis(1), Bandwidth::ZERO),
        "net",
    );
    let err = Scenario::from_topology(topo)
        .workload(Workload::ping("a", "b"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ZeroBandwidthLink { .. }),
        "{err}"
    );
}

/// One service more than 10.1.0.0/16 has addresses: no link, so the
/// metadata wire's link-id limit does not catch it. Rejected before the
/// collapse numbers the services (which would panic in `Addr::container`),
/// on a plain run and on a campaign's shared precompute alike.
#[test]
fn more_services_than_container_addresses_are_rejected() {
    let mut topo = Topology::new();
    for i in 0..=65_536 {
        topo.add_service(&format!("s{i}"), 0, "x");
    }
    let scenario = Scenario::from_topology(topo).workload(Workload::ping("s0", "s1"));
    let expected = ScenarioError::TooManyServices {
        services: 65_537,
        limit: 65_536,
    };
    let err = scenario.clone().run().unwrap_err();
    assert_eq!(err, expected);
    let text = err.to_string();
    assert!(text.contains("65537") && text.contains("/16"), "{text}");
    assert_eq!(Campaign::over(scenario).run().unwrap_err(), expected);
}

#[test]
fn empty_workloads_are_rejected() {
    let err = Scenario::from_topology(p2p()).run().unwrap_err();
    assert!(matches!(err, ScenarioError::EmptyWorkload), "{err}");
}

#[test]
fn self_flows_and_zero_rates_are_rejected() {
    let err = Scenario::from_topology(p2p())
        .workload(Workload::iperf_tcp("client", "client"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidWorkload { .. }),
        "{err}"
    );

    let err = Scenario::from_topology(p2p())
        .workload(Workload::iperf_udp("client", "server", Bandwidth::ZERO))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidWorkload { .. }),
        "{err}"
    );

    let err = Scenario::from_topology(p2p())
        .workload(Workload::ping("client", "server").count(0))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidWorkload { .. }),
        "{err}"
    );

    let err = Scenario::from_topology(p2p())
        .workload(Workload::curl("server", &[]))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidWorkload { .. }),
        "{err}"
    );

    // An empty response would still put one full segment on the wire.
    let empty = DataSize::from_bytes(0);
    for workload in [
        Workload::wrk2("server", "client").request_size(empty),
        Workload::curl("server", &["client"]).request_size(empty),
    ] {
        let err = Scenario::from_topology(p2p())
            .workload(workload)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidWorkload { ref reason } if reason.contains("request size")),
            "{err}"
        );
    }
}

#[test]
fn mininet_rejects_rates_above_its_ceiling() {
    let scenario = |rate: Bandwidth| {
        let (topo, _, _) =
            generators::point_to_point(rate, SimDuration::from_millis(5), SimDuration::ZERO);
        Scenario::from_topology(topo)
            .backend(Backend::mininet())
            .workload(
                Workload::iperf_tcp("client", "server").duration(SimDuration::from_millis(500)),
            )
    };
    for rate in [Bandwidth::from_gbps(2), Bandwidth::from_gbps(10)] {
        let err = scenario(rate).run().unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedBackend { ref backend, .. } if backend == "mininet"),
            "{rate}: {err}"
        );
    }
    // Below the 1 Gb/s ceiling the same scenario runs.
    let report = scenario(Bandwidth::from_mbps(500))
        .run()
        .expect("500 Mb/s is within the ceiling");
    assert_eq!(report.backend, "mininet");
    assert!(report.flows[0].goodput_mbps.is_some_and(|mbps| mbps > 0.0));
}

/// The Kollaps managers advertise paths as 16-bit link ids: a scenario that
/// needs more — declared, or reached through `LinkJoin` events — is rejected
/// up front instead of aliasing links on the wire. The baselines have no
/// metadata wire and take the same topology.
#[test]
fn kollaps_rejects_more_link_ids_than_the_metadata_wire_can_name() {
    let wide = |pairs: usize| {
        let mut topo = p2p();
        let client = topo.node_by_name("client").expect("p2p declares a client");
        let server = topo.node_by_name("server").expect("p2p declares a server");
        let props = topo.links()[0].properties;
        while topo.link_count() < 2 * pairs {
            topo.add_bidirectional_link(client, server, props, "wide");
        }
        topo
    };
    let join = DynamicEvent {
        at: SimDuration::from_secs(1),
        action: DynamicAction::LinkJoin {
            orig: "client".into(),
            dest: "server".into(),
            change: LinkChange::default(),
        },
    };
    let run = |topo, event: Option<&DynamicEvent>, backend| {
        let mut scenario = Scenario::from_topology(topo).backend(backend);
        if let Some(event) = event {
            scenario = scenario.event(event.clone());
        }
        scenario
            .workload(Workload::ping("client", "server"))
            .duration(SimDuration::from_millis(200))
            .run()
    };
    let rejected = |result: Result<Report, ScenarioError>| {
        let err = result.unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedBackend { ref backend, .. } if backend == "kollaps"),
            "{err}"
        );
    };
    // 65,538 declared ids; and exactly 65,536 with a join on top.
    rejected(run(wide(32_769), None, Backend::kollaps()));
    rejected(run(wide(32_768), Some(&join), Backend::kollaps()));
    // Exactly 65,536 fit, and a baseline does not care.
    assert!(run(wide(32_768), None, Backend::kollaps()).is_ok());
    assert!(run(wide(32_769), None, Backend::ground_truth()).is_ok());
}

#[test]
fn baselines_reject_dynamic_events() {
    let err = Scenario::from_topology(p2p())
        .backend(Backend::ground_truth())
        .event(DynamicEvent {
            at: SimDuration::from_secs(1),
            action: DynamicAction::SetLinkProperties {
                orig: "client".into(),
                dest: "server".into(),
                change: LinkChange::default(),
            },
        })
        .workload(Workload::ping("client", "server"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::UnsupportedBackend { ref backend, .. } if backend == "ground-truth"),
        "{err}"
    );
}

#[test]
fn parse_errors_surface_typed() {
    let err = Scenario::from_dsl("experiment:\n  services:\n    just words\n")
        .workload(Workload::ping("a", "b"))
        .run()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Parse(_)), "{err}");

    let err = Scenario::from_xml("<not-modelnet/>")
        .workload(Workload::ping("a", "b"))
        .run();
    // Whether the XML parser reports an error or an empty topology, the
    // scenario must not run a workload against nodes that do not exist.
    match err {
        Err(ScenarioError::Xml(_)) | Err(ScenarioError::UnknownNodes { .. }) => {}
        other => panic!("expected typed failure, got {other:?}"),
    }
}

#[test]
fn zero_intervals_are_rejected() {
    let err = Scenario::from_topology(p2p())
        .step_interval(SimDuration::ZERO)
        .workload(Workload::ping("client", "server"))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidStepInterval { knob } if knob == "step_interval"),
        "{err}"
    );
    // A positive step interval is a legitimate pacing knob.
    let report = Scenario::from_topology(p2p())
        .step_interval(SimDuration::from_millis(25))
        .workload(Workload::ping("client", "server").count(3))
        .run()
        .expect("valid scenario");
    assert_eq!(report.flows[0].rtt.as_ref().unwrap().replies, 3);
}

/// A ping probe re-arms at `now + interval`: a zero interval with an
/// unbounded count under a duration cap would keep virtual time at t = 0
/// forever. The builder, the wire spec and a mid-run injection all refuse it.
#[test]
fn a_zero_ping_interval_is_rejected() {
    let expected = ScenarioError::InvalidWorkload {
        reason: "ping interval is zero".into(),
    };
    let zero = || {
        Workload::ping("client", "server")
            .count(u64::MAX)
            .interval(SimDuration::ZERO)
    };
    let scenario = Scenario::from_topology(p2p())
        .duration(SimDuration::from_secs(1))
        .workload(zero());
    assert_eq!(scenario.clone().run().unwrap_err(), expected);
    assert_eq!(scenario.clone().session().err(), Some(expected.clone()));
    let text = scenario.to_spec_string().expect("serializable");
    assert!(text.contains("\"interval_ns\":0"), "{text}");
    let decoded = Scenario::from_spec_str(&text).expect("decodable");
    assert_eq!(decoded.run().unwrap_err(), expected);

    let mut session = Scenario::from_topology(p2p())
        .duration(SimDuration::from_secs(1))
        .workload(Workload::ping("client", "server").count(3))
        .session()
        .expect("valid scenario");
    let err = session.inject_workload(zero()).unwrap_err();
    assert_eq!(err, SessionError::Invalid(expected));
    // The rejected probe was never armed: the session still steps.
    session.step(SimDuration::from_millis(500)).expect("steps");
    let report = session.finish();
    assert_eq!(report.flows.len(), 1);
    assert_eq!(report.flows[0].rtt.as_ref().unwrap().replies, 3);
}

/// A zero emulation loop interval would re-arm the tick at the instant it
/// fires, forever; the builder and the wire spec both refuse it typed.
#[test]
fn a_zero_loop_interval_is_rejected() {
    let zero = EmulationConfig {
        loop_interval: SimDuration::ZERO,
        ..EmulationConfig::default()
    };
    let scenario = Scenario::from_topology(p2p())
        .backend(Backend::kollaps_with(1, zero))
        .duration(SimDuration::from_secs(1))
        .workload(Workload::ping("client", "server"));
    let expected = ScenarioError::InvalidStepInterval {
        knob: "loop_interval",
    };
    assert_eq!(scenario.clone().run().unwrap_err(), expected);
    assert_eq!(
        Campaign::over(scenario.clone()).run().unwrap_err(),
        expected
    );
    let text = scenario.to_spec_string().expect("serializable");
    assert!(text.contains("\"loop_interval_ns\":0,"), "{text}");
    let decoded = Scenario::from_spec_str(&text).expect("decodable");
    assert_eq!(decoded.run().unwrap_err(), expected);
}

/// More hosts than container addresses would allocate per-host state for
/// hosts no container can live on; refused typed wherever the count is
/// resolved, before anything is allocated. Fewer hosts than services is
/// fine: hosts may outnumber services too (Table 4 runs 2 services on 4).
#[test]
fn more_hosts_than_container_addresses_are_rejected() {
    let expected = ScenarioError::TooManyHosts {
        hosts: 1_000_000_000_000,
        limit: 65_536,
    };
    let ping = || Workload::ping("client", "server").count(2);
    for scenario in [
        Scenario::from_topology(p2p()).hosts(1_000_000_000_000),
        Scenario::from_topology(p2p()).backend(Backend::kollaps_on(1_000_000_000_000)),
    ] {
        let scenario = scenario.workload(ping());
        assert_eq!(scenario.containers_per_host().unwrap_err(), expected);
        assert_eq!(scenario.to_spec().unwrap_err(), expected);
        assert_eq!(scenario.run().unwrap_err(), expected);
    }
    let text = Scenario::from_topology(p2p())
        .hosts(4)
        .workload(ping())
        .to_spec_string()
        .expect("serializable")
        .replacen("\"hosts\":4", "\"hosts\":1000000000000", 1);
    let decoded = Scenario::from_spec_str(&text).expect("decodable");
    assert_eq!(decoded.containers_per_host().unwrap_err(), expected);
    assert_eq!(decoded.run().unwrap_err(), expected);
    let text = expected.to_string();
    assert!(
        text.contains("1000000000000") && text.contains("65536"),
        "{text}"
    );
    // The limit itself deploys.
    let limit = Scenario::from_topology(p2p())
        .hosts(65_536)
        .workload(ping());
    assert_eq!(limit.containers_per_host().unwrap().len(), 65_536);
}

#[test]
fn errors_display_helpfully() {
    let err = Scenario::from_topology(p2p())
        .workload(Workload::iperf_tcp("client", "ghost"))
        .run()
        .unwrap_err();
    let text = format!("{err}");
    assert!(text.contains("ghost"), "{text}");
    let err = Scenario::from_topology(p2p()).run().unwrap_err();
    assert!(format!("{err}").contains("no workloads"));
}
