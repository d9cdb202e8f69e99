//! The session-layer overhead bench (`kollaps-bench session`): the one-shot
//! `Scenario::run()` is a wrapper over the resumable `Session`, so this
//! sweep pins (a) that the wrapper costs nothing measurable and (b) what
//! fine-grained interactive stepping costs relative to it, plus the
//! wall-clock speedup a concurrent `Campaign` gets from its thread pool
//! over variants that each run for a few hundred milliseconds, plus the
//! flow records a connection-per-request workload keeps.

use std::time::Instant;

use kollaps_netmodel::packet::MSS;
use kollaps_scenario::{Campaign, Churn, Scenario, Workload};
use kollaps_sim::prelude::*;
use kollaps_topology::generators;

use crate::record::{BenchRecord, BenchReport, TOLERANCE_DETERMINISTIC, TOLERANCE_WALL_CLOCK};

/// Stepping overhead relative to one-shot is a within-process ratio, far
/// more stable across runners than absolute wall time — gate it tighter.
const TOLERANCE_RELATIVE: f64 = 1.0;

fn scenario() -> Scenario {
    let (topo, _, _) = generators::dumbbell(
        4,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    Scenario::from_topology(topo)
        .named("session-bench")
        .churn(
            Churn::poisson_flaps(&[("client-3", "bridge-left")])
                .mean_uptime(SimDuration::from_secs(2))
                .mean_downtime(SimDuration::from_millis(300))
                .horizon(SimDuration::from_secs(6))
                .seed(7),
        )
        .workloads((0..4).map(|i| {
            Workload::iperf_udp(
                &format!("client-{i}"),
                &format!("server-{i}"),
                Bandwidth::from_mbps(20),
            )
            .duration(SimDuration::from_secs(6))
        }))
}

/// The campaign legs' base: 8 bulk TCP pairs across a 2-host dumbbell for
/// 20 virtual s. Each variant takes a few hundred milliseconds of wall
/// clock, so the pool's speedup measures the variants rather than thread
/// start-up.
fn campaign_scenario() -> Scenario {
    const PAIRS: usize = 8;
    let (topo, _, _) = generators::dumbbell(
        PAIRS,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    Scenario::from_topology(topo)
        .named("session-bench-campaign")
        .hosts(2)
        .workloads((0..PAIRS).map(|i| {
            Workload::iperf_tcp(&format!("client-{i}"), &format!("server-{i}"))
                .duration(SimDuration::from_secs(20))
        }))
}

/// The connection-per-request cell: 16 curl clients behind one side of a
/// dumbbell fetch 16 KiB responses from one server for 10 virtual s, each
/// request over a new TCP connection.
fn curl_scenario() -> Scenario {
    const CLIENTS: usize = 16;
    let (topo, _, _) = generators::dumbbell(
        CLIENTS,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let clients: Vec<String> = (0..CLIENTS).map(|i| format!("client-{i}")).collect();
    let clients: Vec<&str> = clients.iter().map(String::as_str).collect();
    Scenario::from_topology(topo)
        .named("session-bench-curl")
        .workloads([Workload::curl("server-0", &clients)
            .request_size(DataSize::from_kib(16))
            .duration(SimDuration::from_secs(10))])
}

/// Runs the sweep — one-shot baseline, stepped sessions at three
/// granularities, then the 4-variant campaign serial vs 4 threads, then
/// one session of the campaign's base, then one of the curl cell — and
/// returns its perf-trajectory records: absolute wall times gate with the
/// wide wall-clock tolerance, the stepping-overhead ratios with a tighter
/// one (same-process ratios are stable), the campaign speedup is
/// informational (CI core counts vary), and the pumps per packet, the curl
/// cell's record peak and its requests are deterministic.
pub fn run_session_bench() -> BenchReport {
    let mut report = BenchReport::new("session");
    let t0 = Instant::now();
    let baseline = scenario().run().expect("valid scenario");
    let one_shot_ms = t0.elapsed().as_secs_f64() * 1e3;
    report.push(
        BenchRecord::new("one_shot_ms", one_shot_ms, "ms").lower_is_better(TOLERANCE_WALL_CLOCK),
    );

    for step_ms in [1000u64, 100, 10] {
        let t = Instant::now();
        let mut session = scenario().session().expect("valid scenario");
        while session.clock() < session.end() {
            session
                .step(SimDuration::from_millis(step_ms))
                .expect("stepping");
        }
        let stepped = session.finish();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(stepped.flows.len(), baseline.flows.len());
        report.push(
            BenchRecord::new("stepped_wall_ms", wall_ms, "ms")
                .axis("step_ms", step_ms)
                .lower_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(
            BenchRecord::new("stepped_relative", wall_ms / one_shot_ms, "ratio")
                .axis("step_ms", step_ms)
                .lower_is_better(TOLERANCE_RELATIVE),
        );
    }

    let delays = [
        SimDuration::ZERO,
        SimDuration::from_millis(2),
        SimDuration::from_millis(10),
        SimDuration::from_millis(25),
    ];
    let sweep = |threads: usize| {
        let t = Instant::now();
        let campaign = Campaign::over(campaign_scenario())
            .vary_metadata_delay(&delays)
            .threads(threads)
            .run()
            .expect("valid campaign");
        assert_eq!(
            campaign.timeline_precomputes, 1,
            "sweep shares one timeline"
        );
        assert_eq!(campaign.variants.len(), delays.len());
        t.elapsed().as_secs_f64() * 1e3
    };
    let serial_ms = sweep(1);
    let threads4_ms = sweep(4);
    report.push(
        BenchRecord::new("campaign_serial_ms", serial_ms, "ms")
            .lower_is_better(TOLERANCE_WALL_CLOCK),
    );
    report.push(
        BenchRecord::new("campaign_threads4_ms", threads4_ms, "ms")
            .lower_is_better(TOLERANCE_WALL_CLOCK),
    );
    report.push(BenchRecord::new(
        "campaign_speedup",
        serial_ms / threads4_ms,
        "ratio",
    ));
    report.push(BenchRecord::new(
        "campaign_variants",
        delays.len() as f64,
        "count",
    ));
    report.push(
        BenchRecord::new("campaign_pumps_per_packet", pumps_per_packet(), "1/pkt")
            .lower_is_better(TOLERANCE_DETERMINISTIC),
    );
    let (records_peak, requests) = curl_records();
    report.push(
        BenchRecord::new("curl_records_peak", records_peak as f64, "count")
            .lower_is_better(TOLERANCE_DETERMINISTIC),
    );
    report.push(
        BenchRecord::new("curl_requests", requests as f64, "count")
            .higher_is_better(TOLERANCE_DETERMINISTIC),
    );
    report
}

/// TCP sender pumps (all causes) per payload segment delivered, over one
/// session of the campaign's base scenario. Deterministic: it falls only
/// while the runtime's wake-ups pump just the senders that can send, and
/// pumping every open sender at every wake-up again would trip its gate.
fn pumps_per_packet() -> f64 {
    let mut session = campaign_scenario().session().expect("valid scenario");
    session.run_until(session.end()).expect("running");
    let bytes: u64 = session.flow_progress().iter().map(|flow| flow.bytes).sum();
    session.event_loop_stats().pumps as f64 / (bytes / MSS.as_bytes()) as f64
}

/// The most flow records the runtime held at once, and the requests
/// completed, over one session of the curl cell. Deterministic: a closed
/// connection gives its record back once its packets drain, so the peak
/// follows the connections open together, not the requests made; keeping
/// every connection's record again would lift it to about the request
/// count and trip its gate.
fn curl_records() -> (u64, u64) {
    let mut session = curl_scenario().session().expect("valid scenario");
    session.run_until(session.end()).expect("running");
    let requests = session
        .flow_progress()
        .iter()
        .map(|flow| flow.requests)
        .sum();
    (session.event_loop_stats().records_peak, requests)
}
