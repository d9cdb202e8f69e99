//! Cross-crate integration tests: experiment description → scenario
//! builder → collapsed emulation → transport → workloads, compared against
//! the full-state ground truth.

use kollaps::prelude::*;
use kollaps::topology::dsl::parse_experiment;
use kollaps::topology::events::{DynamicAction, DynamicEvent, LinkChange};
use kollaps::topology::generators;

const EXPERIMENT: &str = r#"
experiment:
  services:
    name: client
    image: "iperf3"
    name: server
    image: "nginx"
  bridges:
    name: s1
    name: s2
  links:
    orig: client
    dest: s1
    latency: 10
    up: 20Mbps
    down: 20Mbps
    orig: s1
    dest: s2
    latency: 15
    up: 100Mbps
    down: 100Mbps
    orig: s2
    dest: server
    latency: 5
    up: 50Mbps
    down: 50Mbps
"#;

#[test]
fn dsl_to_emulation_round_trip() {
    // The collapsed view matches the hand-computed end-to-end properties.
    let experiment = parse_experiment(EXPERIMENT).expect("parse");
    let collapsed = CollapsedTopology::build(&experiment.topology);
    let client = experiment.topology.node_by_name("client").unwrap();
    let server = experiment.topology.node_by_name("server").unwrap();
    let path = collapsed.path(client, server).expect("reachable");
    assert_eq!(path.latency, SimDuration::from_millis(30));
    assert_eq!(path.max_bandwidth, Bandwidth::from_mbps(20));

    // One scenario measures both what ping and iPerf see on that topology.
    let report = Scenario::from_dsl(EXPERIMENT)
        .named("e2e-round-trip")
        .backend(Backend::kollaps_on(2))
        .workload(
            Workload::ping("client", "server")
                .count(30)
                .interval(SimDuration::from_millis(200)),
        )
        .workload(
            Workload::iperf_tcp("client", "server")
                .start(SimDuration::from_secs(7))
                .duration(SimDuration::from_secs(10)),
        )
        .run()
        .expect("valid scenario");
    let ping = report.flows_of("ping").next().unwrap();
    let rtt = ping.rtt.as_ref().unwrap();
    assert!((rtt.mean_ms - 60.0).abs() < 1.0, "rtt {}", rtt.mean_ms);
    let iperf = report.flows_of("iperf-tcp").next().unwrap();
    let mbps = iperf.goodput_mbps.unwrap();
    assert!((15.0..=20.5).contains(&mbps), "goodput {mbps}");
    // The report exposes the bottleneck: the client access link is the most
    // utilized link of the path.
    let max_util = report
        .links
        .iter()
        .map(|l| l.utilization)
        .fold(0.0, f64::max);
    assert!((0.5..=1.1).contains(&max_util), "utilization {max_util}");
}

#[test]
fn kollaps_tracks_ground_truth_on_the_same_workload() {
    let measure = |backend: Backend| -> f64 {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
        );
        let report = Scenario::from_topology(topo)
            .backend(backend)
            .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(10)))
            .run()
            .expect("valid scenario");
        report.flows[0].goodput_mbps.unwrap()
    };
    let bare = measure(Backend::ground_truth());
    let kollaps = measure(Backend::kollaps());
    let deviation = (1.0 - kollaps / bare).abs() * 100.0;
    assert!(
        deviation < 10.0,
        "kollaps {kollaps} vs bare metal {bare}: deviation {deviation:.1}%"
    );
}

#[test]
fn dynamic_events_change_the_emulated_network() {
    let (topo, _, _) = generators::point_to_point(
        Bandwidth::from_mbps(100),
        SimDuration::from_millis(10),
        SimDuration::ZERO,
    );
    let report = Scenario::from_topology(topo)
        .event(DynamicEvent {
            at: SimDuration::from_secs(3),
            action: DynamicAction::SetLinkProperties {
                orig: "client".into(),
                dest: "server".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(50)),
                    ..LinkChange::default()
                },
            },
        })
        .workload(
            Workload::ping("client", "server")
                .count(12)
                .interval(SimDuration::from_millis(500)),
        )
        .run()
        .expect("valid scenario");
    let samples = &report.flows[0].rtt.as_ref().unwrap().samples_ms;
    let early = samples[..4].iter().sum::<f64>() / 4.0;
    let late = samples[8..].iter().sum::<f64>() / 4.0;
    assert!((early - 20.0).abs() < 1.0, "early {early}");
    assert!((late - 100.0).abs() < 2.0, "late {late}");
}

#[test]
fn metadata_traffic_scales_with_hosts_not_containers() {
    let (topo, _, _) = generators::dumbbell(
        8,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let mut totals = Vec::new();
    for hosts in [2usize, 4] {
        let workloads = (0..8).map(|i| {
            Workload::iperf_udp(
                &format!("client-{i}"),
                &format!("server-{i}"),
                Bandwidth::from_mbps(5),
            )
            .duration(SimDuration::from_secs(5))
        });
        let report = Scenario::from_topology(topo.clone())
            .backend(Backend::kollaps_on(hosts))
            .workloads(workloads)
            .run()
            .expect("valid scenario");
        totals.push(report.metadata_bytes.expect("kollaps reports metadata"));
    }
    assert!(totals[0] > 0);
    assert!(
        totals[1] > totals[0],
        "more hosts, more metadata: {totals:?}"
    );
}

#[test]
fn every_backend_runs_the_same_scenario() {
    // The unified backend abstraction: identical scenario, five networks.
    let backends = [
        Backend::kollaps(),
        Backend::ground_truth(),
        Backend::mininet(),
        Backend::maxinet(),
        Backend::trickle(kollaps::baselines::TrickleConfig::tuned(
            Bandwidth::from_mbps(50),
        )),
    ];
    for backend in backends {
        let name = backend.name();
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let report = Scenario::from_topology(topo)
            .backend(backend)
            .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(5)))
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mbps = report.flows[0].goodput_mbps.unwrap();
        assert!((30.0..=55.0).contains(&mbps), "{name}: goodput {mbps} Mb/s");
    }
}

#[test]
fn staggered_join_converges_to_the_new_shares() {
    // Regression test for the staggered-join goodput inaccuracy (predates
    // the scenario layer, hence the direct `Runtime` API): when C3 joined
    // the Figure 8 topology at t = 15 s, the established C1/C2 flows used to
    // collapse far below their new fair share (C1 ≈ 5 Mb/s instead of
    // 18.45) because the same loop iteration that cut their htb rates also
    // injected congestion loss for the one-iteration overload the join
    // itself caused. Congestion loss now waits out that transient (it only
    // fires once a link stays oversubscribed), so the flows must settle
    // near the paper's post-join allocation: 18.45 / 21.55 / 10 Mb/s.
    let (topo, clients, servers) = generators::figure8();
    let collapsed = CollapsedTopology::build(&topo);
    let addr = |n| collapsed.address_of(n).unwrap();
    let dp = KollapsDataplane::with_defaults(topo, 2);
    let mut rt = Runtime::new(dp);
    let mut flows = Vec::new();
    for i in 0..2 {
        flows.push(rt.add_tcp_flow(
            addr(clients[i]),
            addr(servers[i]),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        ));
    }
    flows.push(rt.add_tcp_flow(
        addr(clients[2]),
        addr(servers[2]),
        TransferSize::Unbounded,
        TcpSenderConfig::default(),
        SimTime::from_secs(15),
    ));
    let _ = rt.run_until(SimTime::from_secs(40));
    let mean = |f| {
        rt.throughput_series(f)
            .unwrap()
            .mean_between(SimTime::from_secs(25), SimTime::from_secs(40))
    };
    let (m1, m2, m3) = (mean(flows[0]), mean(flows[1]), mean(flows[2]));
    assert!((m1 - 18.45).abs() < 3.5, "C1 after the join: {m1} Mb/s");
    assert!((m2 - 21.55).abs() < 3.5, "C2 after the join: {m2} Mb/s");
    assert!((m3 - 10.0).abs() < 2.5, "C3 after the join: {m3} Mb/s");
    // The collapse was a *transient* right after the join (the steady state
    // always recovered): with immediate loss injection C1 averaged
    // ~3.5 Mb/s over 16-22 s. The transient must now track the new share
    // too.
    let early = |f| {
        rt.throughput_series(f)
            .unwrap()
            .mean_between(SimTime::from_secs(16), SimTime::from_secs(22))
    };
    let e1 = early(flows[0]);
    assert!(
        (e1 - 18.45).abs() < 4.0,
        "C1 must not collapse right after the join: {e1} Mb/s"
    );
}

/// Regression pin for the Figure 7 dynamic experiment (mixed long- and
/// short-lived flows), driven through the **pre-scenario `Runtime` API** so
/// it exercises the emulation core directly: an iPerf flow runs throughout,
/// wrk2 hammers the same node in the middle third. The builder's wrk2 slices
/// and measures the run differently and reads another mid-phase deviation
/// (16.0 % against 12.0 %), so the pin keeps its own wrk2 driver until a
/// scoreboard pins both the same way. The paper claims < 5 %
/// deviation from bare metal; this reproduction has deviated far more in
/// the middle phase since the seed (documented in README "Known
/// deviations"). The bounds below pin today's accuracy so dynamics-engine
/// changes cannot silently regress it further — if the mid-phase number
/// *improves*, tighten them.
#[test]
fn fig7_mixed_flows_accuracy_is_pinned() {
    use kollaps::core::runtime::{Dataplane, RuntimeEvent};
    use kollaps::netmodel::packet::Addr;

    const PHASE: u64 = 6;

    /// wrk2: `connections` persistent connections from `server` to
    /// `client`, each sent the next `request` bytes as soon as its last
    /// response completes, stepped in 100 ms slices for `duration`.
    fn wrk2<D: Dataplane>(
        rt: &mut Runtime<D>,
        server: Addr,
        client: Addr,
        connections: usize,
        request: DataSize,
        duration: SimDuration,
    ) {
        let start = rt.now();
        let end = start + duration;
        let bytes = request.as_bytes();
        for _ in 0..connections {
            let size = TransferSize::Bytes(bytes);
            rt.add_tcp_flow(server, client, size, TcpSenderConfig::default(), start);
        }
        let mut now = start;
        while now < end {
            now = (now + SimDuration::from_millis(100)).min(end);
            for event in rt.run_until(now) {
                if let RuntimeEvent::TcpCompleted { flow, at } = event {
                    if at < end {
                        rt.push_tcp_bytes(flow, bytes);
                    }
                }
            }
        }
    }

    fn phases<D: Dataplane + Addressable>(dp: D) -> (f64, f64, f64) {
        let iperf_client = dp.address_of_index(0);
        let wrk_client = dp.address_of_index(1);
        let iperf_server = dp.address_of_index(2);
        let mut rt = Runtime::new(dp);
        let flow = rt.add_tcp_flow(
            iperf_client,
            iperf_server,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(PHASE));
        wrk2(
            &mut rt,
            iperf_client,
            wrk_client,
            20,
            DataSize::from_kib(64),
            SimDuration::from_secs(PHASE),
        );
        let _ = rt.run_until(SimTime::from_secs(3 * PHASE));
        let series = rt.throughput_series(flow).unwrap();
        (
            series.mean_between(SimTime::ZERO, SimTime::from_secs(PHASE)),
            series.mean_between(SimTime::from_secs(PHASE), SimTime::from_secs(2 * PHASE)),
            series.mean_between(SimTime::from_secs(2 * PHASE), SimTime::from_secs(3 * PHASE)),
        )
    }

    let star = || {
        let (topo, _) = generators::star(3, Bandwidth::from_mbps(100), SimDuration::from_millis(2));
        topo
    };
    let (k_pre, k_mid, k_post) = phases(KollapsDataplane::with_defaults(star(), 1));
    let (b_pre, b_mid, b_post) = phases(GroundTruthDataplane::new(&star()));
    let dev = |k: f64, b: f64| kollaps::sim::stats::deviation_percent(k, b);
    eprintln!("fig7 probe: pre {k_pre:.2}/{b_pre:.2} mid {k_mid:.2}/{b_mid:.2} post {k_post:.2}/{b_post:.2}");
    // Measured at the time of pinning: pre 0.2 %, mid 12.0 % (57.22 vs
    // 51.09 Mb/s), post 0.3 %. The historic ~45-57 % mid-phase deviation
    // turned out to be an artifact of the back-pressure pump order being
    // HashMap-random (per process!): once the runtime pumps contending
    // senders in deterministic round-robin, bare metal and Kollaps agree
    // within ~12 % even in the contended phase. The bounds pin that level
    // so dynamics-engine (or any other) changes cannot silently regress it.
    assert!(
        dev(k_pre, b_pre) < 5.0,
        "pre-wrk2 phase must track bare metal: {k_pre:.2} vs {b_pre:.2}"
    );
    assert!(
        dev(k_post, b_post) < 8.0,
        "post-wrk2 phase must track bare metal: {k_post:.2} vs {b_post:.2}"
    );
    assert!(
        dev(k_mid, b_mid) < 20.0,
        "mid-phase deviation regressed past the pinned bound: {k_mid:.2} vs {b_mid:.2} ({:.1}%)",
        dev(k_mid, b_mid)
    );
    // Both systems must show the contention dip itself.
    assert!(
        k_mid < k_pre * 0.8,
        "kollaps iperf must dip under wrk2: {k_mid:.2}"
    );
    assert!(
        b_mid < b_pre * 0.8,
        "bare-metal iperf must dip under wrk2: {b_mid:.2}"
    );
}

/// The perf-trajectory acceptance test: the report's `flow_classes` block
/// (schema v3) carries per-flow-class latency and goodput percentiles —
/// p50/p90/p99, not just means — produced by the session's built-in
/// aggregating telemetry sink, and they survive into the JSON document.
#[test]
fn report_carries_flow_class_percentiles() {
    let (topo, _, _) = generators::dumbbell(
        4,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let mut scenario = Scenario::from_topology(topo).named("flow-class-percentiles");
    // Four staggered UDP flows over the shared trunk: contention makes the
    // per-second goodput windows genuinely spread, so the percentiles are
    // a distribution, not a constant.
    for i in 0..4u64 {
        scenario = scenario.workload(
            Workload::iperf_udp(
                &format!("client-{i}"),
                &format!("server-{i}"),
                Bandwidth::from_mbps(30),
            )
            .start(SimDuration::from_millis(i * 500))
            .duration(SimDuration::from_secs(4)),
        );
    }
    let report = scenario
        .workload(
            Workload::ping("client-0", "server-3")
                .count(30)
                .interval(SimDuration::from_millis(100))
                .duration(SimDuration::from_secs(4)),
        )
        .run()
        .expect("valid scenario");

    assert_eq!(report.flow_classes.len(), 2, "{:?}", report.flow_classes);
    let udp = report
        .flow_classes
        .iter()
        .find(|c| c.class == "iperf-udp")
        .expect("iperf-udp class");
    assert_eq!(udp.flows, 4);
    assert!(udp.latency_ms.is_none(), "bulk UDP has no latency samples");
    let goodput = udp.goodput_mbps.expect("udp goodput percentiles");
    // Four 4 s flows contribute one sample per closed one-second window
    // (staggered windows lose their trailing partial second).
    assert!(goodput.samples >= 12, "4 flows x 4 s: {}", goodput.samples);
    assert!(
        goodput.min <= goodput.p50
            && goodput.p50 <= goodput.p90
            && goodput.p90 <= goodput.p99
            && goodput.p99 <= goodput.max,
        "percentiles must be ordered: {goodput:?}"
    );
    // 4 x 30 Mb/s over a 50 Mb/s trunk: the median window is contended
    // (well under the 30 Mb/s offered rate), while early uncontended
    // windows keep the p99 near the full rate.
    assert!(goodput.p50 < 25.0, "contended median: {goodput:?}");
    assert!(goodput.p99 > goodput.p50, "spread survives: {goodput:?}");

    let ping = report
        .flow_classes
        .iter()
        .find(|c| c.class == "ping")
        .expect("ping class");
    assert_eq!(ping.flows, 1);
    assert!(ping.goodput_mbps.is_none(), "ping moves no bulk data");
    let latency = ping.latency_ms.expect("ping latency percentiles");
    assert_eq!(latency.samples, 30);
    assert!(
        latency.p50 <= latency.p90 && latency.p90 <= latency.p99,
        "{latency:?}"
    );
    assert!(latency.p50 > 0.0);

    // The JSON document carries the same block under schema version 4.
    let json = report.to_json();
    assert_eq!(json.get("schema_version").and_then(|v| v.as_u64()), Some(4));
    let classes = json
        .get("flow_classes")
        .and_then(|v| v.as_array())
        .expect("flow_classes array");
    assert_eq!(classes.len(), 2);
    let ping_json = classes
        .iter()
        .find(|c| c.get("class").and_then(|v| v.as_str()) == Some("ping"))
        .expect("ping class in JSON");
    let lat_json = ping_json.get("latency_ms").expect("latency_ms");
    for field in ["mean", "p50", "p90", "p99", "min", "max", "samples"] {
        assert!(
            lat_json.get(field).and_then(|v| v.as_f64()).is_some(),
            "latency_ms.{field} missing: {lat_json}"
        );
    }
    assert!(
        (lat_json.get("p99").unwrap().as_f64().unwrap() - latency.p99).abs() < 1e-9,
        "JSON p99 mirrors the struct"
    );
}
