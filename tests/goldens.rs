//! Byte-exact pins on the workload layer: one workload of every kind, each
//! with a non-default parameter, through the wire spec and through a run.
//! Both Kollaps goldens were recorded on `6e424cd`, before the workload
//! endpoints moved out of the per-kind variants. The baseline goldens run
//! the same workloads through the ground truth and the Mininet model, on
//! the dumbbell and on a diamond whose services reach each other over
//! equal-latency routes; they were recorded while the ground truth still
//! searched its own forwarding tables, before it forwarded along the
//! collapse's paths.

use kollaps::prelude::*;
use kollaps::topology::generators;
use kollaps::topology::model::LinkProperties;

fn dumbbell() -> Topology {
    let (topo, _, _) = generators::dumbbell(
        2,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    topo
}

/// Four bridges in a ring, `n - e - s - w - n`, all 5 ms, plus a second,
/// slower `n - e` link of the same latency: opposite bridges reach each
/// other over two equal routes, and `n` reaches `e` over two equal links.
/// One service sits on each bridge, so the pairs cross the ring every way.
fn diamond() -> Topology {
    let mut t = Topology::new();
    let [n, e, s, w] = ["n", "e", "s", "w"].map(|name| t.add_bridge(name));
    let ring = LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(50));
    for (a, b) in [(n, e), (e, s), (s, w), (w, n)] {
        t.add_bidirectional_link(a, b, ring, "ring");
    }
    let slow = LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(20));
    t.add_bidirectional_link(n, e, slow, "ring");
    let edge = LinkProperties::new(SimDuration::from_millis(1), Bandwidth::from_mbps(100));
    for (service, image, bridge) in [
        ("client-0", "iperf3-client", n),
        ("server-0", "iperf3-server", s),
        ("client-1", "iperf3-client", e),
        ("server-1", "iperf3-server", w),
    ] {
        let node = t.add_service(service, 0, image);
        t.add_bidirectional_link(node, bridge, edge, "ring");
    }
    t
}

fn every_workload_kind() -> Scenario {
    with_every_workload_kind(Scenario::from_topology(dumbbell()).hosts(2))
}

/// `scenario` with one workload of every kind between `client-0`,
/// `client-1`, `server-0` and `server-1`, capped at 3 s.
fn with_every_workload_kind(scenario: Scenario) -> Scenario {
    scenario
        .named("every-workload-kind")
        .duration(SimDuration::from_secs(3))
        .workload(
            Workload::iperf_tcp("client-0", "server-0")
                .algorithm(CongestionAlgorithm::Reno)
                .duration(SimDuration::from_secs(2)),
        )
        .workload(
            Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(8))
                .start(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2)),
        )
        // No duration: the ping default outlives the 3 s cap.
        .workload(
            Workload::ping("client-0", "server-1")
                .count(6)
                .interval(SimDuration::from_millis(200)),
        )
        .workload(
            Workload::wrk2("server-0", "client-1")
                .connections(3)
                .request_size(DataSize::from_kib(16))
                .duration(SimDuration::from_millis(2500)),
        )
        .workload(
            Workload::curl("server-1", &["client-0", "client-1"])
                .request_size(DataSize::from_kib(32))
                .start(SimDuration::from_millis(200))
                .duration(SimDuration::from_secs(2)),
        )
        .workload(
            Workload::memcached("server-0", &["client-0", "client-1"])
                .connections(4)
                .duration(SimDuration::from_secs(2)),
        )
}

const SPEC: &str = r#"{"spec_version":1,"name":"every-workload-kind","distributed":false,"trace":false,"hosts":2,"config":{"loop_interval_ns":50000000,"cross_host_delay_ns":50000,"container_overhead_ns":30000,"metadata_delay_ns":100000,"seed":42},"nodes":[{"kind":"bridge","name":"bridge-left"},{"kind":"bridge","name":"bridge-right"},{"kind":"service","service":"client-0","replica":0,"image":"iperf3-client"},{"kind":"service","service":"server-0","replica":0,"image":"iperf3-server"},{"kind":"service","service":"client-1","replica":0,"image":"iperf3-client"},{"kind":"service","service":"server-1","replica":0,"image":"iperf3-server"}],"links":[{"from":0,"to":1,"latency_ns":10000000,"jitter_ns":0,"bandwidth_bps":50000000,"loss":0,"network":"dumbbell"},{"from":1,"to":0,"latency_ns":10000000,"jitter_ns":0,"bandwidth_bps":50000000,"loss":0,"network":"dumbbell"},{"from":2,"to":0,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":0,"to":2,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":3,"to":1,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":1,"to":3,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":4,"to":0,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":0,"to":4,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":5,"to":1,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"},{"from":1,"to":5,"latency_ns":1000000,"jitter_ns":0,"bandwidth_bps":100000000,"loss":0,"network":"dumbbell"}],"schedule":[],"placement":[],"workloads":[{"kind":"iperf_tcp","client":"client-0","server":"server-0","algorithm":"reno","start_ns":0,"duration_ns":2000000000},{"kind":"iperf_udp","client":"client-1","server":"server-1","rate_bps":8000000,"start_ns":500000000,"duration_ns":2000000000},{"kind":"ping","src":"client-0","dst":"server-1","count":6,"interval_ns":200000000,"start_ns":0,"duration_ns":null},{"kind":"wrk2","server":"server-0","client":"client-1","connections":3,"request_bytes":16384,"start_ns":0,"duration_ns":2500000000},{"kind":"curl","server":"server-1","clients":["client-0","client-1"],"request_bytes":32768,"start_ns":200000000,"duration_ns":2000000000},{"kind":"memcached","server":"server-0","clients":["client-0","client-1"],"connections":4,"start_ns":0,"duration_ns":2000000000}],"duration_ns":3000000000,"step_interval_ns":null}"#;

#[test]
fn every_workload_kind_spec_is_pinned() {
    let text = every_workload_kind()
        .to_spec_string()
        .expect("serializable");
    assert_eq!(text, SPEC);
    let decoded = Scenario::from_spec_str(&text).expect("decodable");
    assert_eq!(decoded.to_spec_string().expect("re-serializable"), text);
}

#[test]
fn every_workload_kind_report_is_pinned() {
    let mut session = every_workload_kind().session().expect("valid scenario");
    session.run_until(SimTime::from_secs(1)).expect("stepping");
    session
        .inject_workload(
            Workload::wrk2("server-1", "client-0")
                .connections(2)
                .request_size(DataSize::from_kib(8))
                .duration(SimDuration::from_millis(1500)),
        )
        .expect("valid injection");
    let report = session.finish();
    assert!(report.dynamics.is_none() && report.phase_timing.is_none());
    assert_eq!(
        report.to_json_string(),
        include_str!("golden/every_workload_kind.json").trim_end()
    );
}

/// The report of `every_workload_kind`'s workloads on `topology` over
/// `backend`, which runs on one host.
fn baseline_report(topology: Topology, backend: Backend) -> String {
    with_every_workload_kind(Scenario::from_topology(topology))
        .backend(backend)
        .run()
        .expect("valid scenario")
        .to_json_string()
}

#[test]
fn ground_truth_reports_are_pinned() {
    assert_eq!(
        baseline_report(dumbbell(), Backend::ground_truth()),
        include_str!("golden/ground_truth_dumbbell.json").trim_end()
    );
    assert_eq!(
        baseline_report(diamond(), Backend::ground_truth()),
        include_str!("golden/ground_truth_diamond.json").trim_end()
    );
}

#[test]
fn mininet_reports_are_pinned() {
    assert_eq!(
        baseline_report(dumbbell(), Backend::mininet()),
        include_str!("golden/mininet_dumbbell.json").trim_end()
    );
    assert_eq!(
        baseline_report(diamond(), Backend::mininet()),
        include_str!("golden/mininet_diamond.json").trim_end()
    );
}
