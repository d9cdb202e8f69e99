//! Workspace smoke test: the umbrella crate's re-exports and prelude must
//! resolve and agree with the underlying crates, so downstream experiment
//! code can depend on `kollaps::prelude::*` alone.

use kollaps::prelude::*;

#[test]
fn prelude_reexports_resolve_and_are_usable() {
    // Simulation substrate.
    let t = SimTime::from_millis(5) + SimDuration::from_millis(5);
    assert_eq!(t, SimTime::from_millis(10));
    assert_eq!(Bandwidth::from_mbps(1).as_bps(), 1_000_000);
    assert_eq!(DataSize::from_bytes(1500).as_bytes(), 1500);
    let mut rng = SimRng::new(7);
    assert!(rng.next_f64() < 1.0);

    // Topology + emulation entry points.
    let mut topo = Topology::new();
    let a = topo.add_service("a", 0, "img");
    let b = topo.add_service("b", 0, "img");
    topo.add_bidirectional_link(
        a,
        b,
        kollaps::topology::model::LinkProperties::new(
            SimDuration::from_millis(10),
            Bandwidth::from_mbps(10),
        ),
        "net",
    );
    let collapsed = CollapsedTopology::build(&topo);
    assert!(collapsed.path(a, b).is_some());

    let dp = KollapsDataplane::with_defaults(topo, 1);
    let (ca, cb) = (dp.address_of_index(0), dp.address_of_index(1));
    let mut rt = Runtime::new(dp);
    let probe = rt.add_ping(ca, cb, SimDuration::from_millis(100), 3, SimTime::ZERO);
    let _ = rt.run_until(SimTime::from_secs(1));
    let rtts = rt.ping_rtts(probe).expect("a ping probe");
    assert_eq!(rtts.len(), 3);
    assert!((rtts.mean() - 20.0).abs() < 1.0, "rtt {}", rtts.mean());
}

#[test]
fn umbrella_modules_alias_the_member_crates() {
    // Spot-check that each façade module points at the right crate by
    // touching one item through both paths.
    let d1: kollaps::sim::units::Bandwidth = Bandwidth::from_kbps(64);
    assert_eq!(d1.as_bps(), 64_000);
    let _config: kollaps::core::emulation::EmulationConfig = EmulationConfig::default();
    let _algo: kollaps::transport::tcp::CongestionAlgorithm = CongestionAlgorithm::Cubic;
    let _size: TransferSize = TransferSize::Bytes(1024);
    let _tcp: TcpSenderConfig = TcpSenderConfig::default();
    let _gt: Option<GroundTruthDataplane> = None;
    let parsed = parse_experiment("experiment:\n  services:\n    name: solo\n    image: \"x\"\n");
    assert!(parsed.is_ok());
}

#[test]
fn prelude_scenario_builder_is_usable() {
    // The scenario layer is reachable from the prelude alone, end to end.
    let (topo, _, _) = kollaps::topology::generators::point_to_point(
        Bandwidth::from_mbps(10),
        SimDuration::from_millis(5),
        SimDuration::ZERO,
    );
    let report: Report = Scenario::from_topology(topo)
        .named("smoke")
        .backend(Backend::kollaps())
        .workload(
            Workload::ping("client", "server")
                .count(3)
                .duration(SimDuration::from_secs(1)),
        )
        .run()
        .expect("valid scenario");
    assert_eq!(report.scenario, "smoke");
    assert_eq!(report.flows[0].rtt.as_ref().unwrap().replies, 3);
    assert!(report.to_json_string().contains("\"backend\":\"kollaps\""));
    // The typed error surface is part of the prelude too.
    let err: ScenarioError = Scenario::from_topology(kollaps::topology::model::Topology::new())
        .run()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::EmptyWorkload));
    // The shared addressing trait resolves for every backend.
    let (topo, _, _) = kollaps::topology::generators::point_to_point(
        Bandwidth::from_mbps(10),
        SimDuration::from_millis(5),
        SimDuration::ZERO,
    );
    let gt = GroundTruthDataplane::new(&topo);
    assert_eq!(
        gt.address_of_index(0),
        gt.collapsed().addresses().map(|(_, a)| a).min().unwrap()
    );
}
