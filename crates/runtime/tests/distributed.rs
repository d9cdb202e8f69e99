//! End-to-end tests for the distributed runtime: coordinator plus real
//! agents on loopback sockets, compared against the in-process run.

use std::time::Duration;

use kollaps_runtime::coordinator::BootstrapPhase;
use kollaps_runtime::coordinator::{
    self, staggered_join_scenario, CoordinatorError, Launch, RunOptions,
};
use kollaps_scenario::{Scenario, ScenarioError, Workload};
use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

/// Seconds of emulated time for the staggered-join scenario. Long enough
/// that all four flows join and the trunk re-shares several times.
const SECONDS: u64 = 3;

fn thread_options() -> RunOptions {
    RunOptions {
        launch: Launch::Threads,
        loss_probability: 0.0,
        barrier_timeout: Duration::from_secs(10),
    }
}

fn convergence(report: &serde_json::Value, key: &str) -> f64 {
    report
        .get("convergence")
        .and_then(|c| c.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN)
}

#[test]
fn distributed_run_matches_the_in_process_run_at_zero_loss() {
    let baseline = staggered_join_scenario(SECONDS)
        .run()
        .expect("in-process staggered join");
    let expected = baseline.convergence.expect("kollaps convergence");

    let outcome = coordinator::run(&staggered_join_scenario(SECONDS), &thread_options())
        .expect("distributed staggered join");

    // Replica lockstep at zero loss: the merged convergence block is
    // bit-identical to the single-process run, not merely close.
    assert_eq!(convergence(&outcome.report, "max_gap"), expected.max_gap);
    assert_eq!(convergence(&outcome.report, "mean_gap"), expected.mean_gap);
    assert_eq!(convergence(&outcome.report, "last_gap"), expected.last_gap);

    // The merged report's metadata accounting comes from real sockets:
    // every agent both sent and received actual UDP bytes, and no barrier
    // ever timed out or lost a datagram.
    assert_eq!(outcome.agents.len(), 2);
    for agent in &outcome.agents {
        assert!(agent.sent_bytes > 0, "host {} sent nothing", agent.host);
        assert!(
            agent.received_bytes > 0,
            "host {} received nothing",
            agent.host
        );
        assert!(agent.barriers > 0);
        assert_eq!(agent.lost_datagrams, 0);
        assert_eq!(agent.barrier_timeouts, 0);
    }
    let rows = outcome
        .report
        .get("metadata_per_host")
        .and_then(|v| v.as_array())
        .expect("per-host metadata rows");
    assert_eq!(rows.len(), 2);
    let total: u64 = rows
        .iter()
        .map(|r| r.get("sent_bytes").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(
        outcome
            .report
            .get("metadata_bytes")
            .and_then(|v| v.as_u64()),
        Some(total)
    );
    assert_eq!(
        outcome.report.get("backend").and_then(|v| v.as_str()),
        Some("kollaps-distributed")
    );
    assert_eq!(
        outcome
            .report
            .get("schema_version")
            .and_then(|v| v.as_u64()),
        Some(4)
    );
}

#[test]
fn the_merged_report_carries_live_health_series_and_socket_bus_counters() {
    let outcome = coordinator::run(&staggered_join_scenario(SECONDS), &thread_options())
        .expect("distributed staggered join");

    // Agents stream a health frame every 250 ms of virtual time; a 3 s run
    // yields a dozen samples per host, merged as one series per host.
    let health = outcome
        .report
        .get("health")
        .and_then(|v| v.as_array())
        .expect("per-host health series");
    assert_eq!(health.len(), 2);
    for (host, series) in health.iter().enumerate() {
        assert_eq!(
            series.get("host").and_then(|v| v.as_u64()),
            Some(host as u64)
        );
        let samples = series
            .get("samples")
            .and_then(|v| v.as_array())
            .expect("health samples");
        assert!(
            samples.len() >= 2,
            "host {host} streamed only {} health frames",
            samples.len()
        );
        // Cumulative counters are monotone, and virtual time advances in
        // health-interval steps up to the scenario end.
        let mut last_at = 0;
        let mut last_barriers = 0;
        for sample in samples {
            let at = sample.get("at_ms").and_then(|v| v.as_u64()).unwrap();
            let barriers = sample.get("barriers").and_then(|v| v.as_u64()).unwrap();
            assert!(at > last_at || last_at == 0);
            assert!(barriers >= last_barriers);
            last_at = at;
            last_barriers = barriers;
            for key in ["step_wall_micros", "sent", "received", "lost_datagrams"] {
                assert!(sample.get(key).and_then(|v| v.as_u64()).is_some());
            }
        }
        // The last frame lands exactly on the session end, which covers
        // the full staggered schedule (last join at 2100 ms + duration).
        assert!(
            last_at >= SECONDS * 1000,
            "series ended early at {last_at} ms"
        );
        assert!(last_barriers > 0);
    }

    // Satellite: the final socket-bus counters surface in the merged
    // report itself, matching the per-agent stats.
    let bus = outcome
        .report
        .get("socket_bus")
        .and_then(|v| v.as_array())
        .expect("socket_bus rows");
    assert_eq!(bus.len(), outcome.agents.len());
    for (row, agent) in bus.iter().zip(&outcome.agents) {
        assert_eq!(
            row.get("host").and_then(|v| v.as_u64()),
            Some(u64::from(agent.host))
        );
        assert_eq!(
            row.get("barriers").and_then(|v| v.as_u64()),
            Some(agent.barriers)
        );
        assert_eq!(
            row.get("barrier_wait_micros").and_then(|v| v.as_u64()),
            Some(agent.barrier_wait_micros)
        );
        assert_eq!(
            row.get("barrier_timeouts").and_then(|v| v.as_u64()),
            Some(agent.barrier_timeouts)
        );
        assert_eq!(
            row.get("lost_datagrams").and_then(|v| v.as_u64()),
            Some(agent.lost_datagrams)
        );
    }
}

#[test]
fn tracing_produces_a_merged_multi_agent_chrome_trace() {
    let untraced = coordinator::run(&staggered_join_scenario(SECONDS), &thread_options())
        .expect("untraced distributed run");
    assert!(untraced.trace.is_none(), "trace present without --trace");

    let scenario = staggered_join_scenario(SECONDS).trace(true);
    let outcome = coordinator::run(&scenario, &thread_options()).expect("traced distributed run");
    let trace = outcome.trace.expect("merged chrome trace");
    let events = trace.as_array().expect("chrome trace is an event array");

    // One process_name metadata event per agent, re-tagged to distinct
    // pids, plus real span/instant events from every agent's recorder.
    let mut names = Vec::new();
    let mut pids = std::collections::BTreeSet::new();
    let mut spans = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).unwrap();
        pids.insert(event.get("pid").and_then(|v| v.as_u64()).unwrap());
        match ph {
            "M" => names.push(
                event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
            ),
            "B" => spans += 1,
            _ => {}
        }
    }
    assert_eq!(names, vec!["agent-0", "agent-1"]);
    assert_eq!(pids.len(), 2);
    assert!(spans > 0, "no span events in the merged trace");

    // Tracing is wall-clock-only: the traced run's merged results are
    // byte-identical to the untraced run's once every wall-clock block is
    // scrubbed (phase_timing exists only when traced; health, socket_bus
    // and dynamics carry real elapsed-time measurements in both runs).
    let scrub = |report: &serde_json::Value| {
        let mut text = serde_json::to_string(report);
        for key in ["phase_timing", "health", "socket_bus", "dynamics"] {
            if let Some(value) = report.get(key) {
                text = text.replace(&serde_json::to_string(value), "null");
            }
        }
        text
    };
    assert_eq!(scrub(&outcome.report), scrub(&untraced.report));
}

#[test]
fn the_agent_handshake_drives_the_bootstrap_state_machine() {
    let outcome = coordinator::run(&staggered_join_scenario(SECONDS), &thread_options())
        .expect("distributed staggered join");
    use BootstrapPhase::{BootstrapperScheduled, CoresAttached, ManagerLaunched};
    assert_eq!(
        outcome.bootstrap_trace,
        vec![
            vec![BootstrapperScheduled, BootstrapperScheduled],
            vec![ManagerLaunched, ManagerLaunched],
            vec![CoresAttached, CoresAttached],
        ]
    );
    // The staggered-join placement pins two client/server pairs per host.
    let cores: Vec<u64> = outcome.agents.iter().map(|a| a.cores).collect();
    assert_eq!(cores, vec![4, 4]);
}

#[test]
fn every_agent_attaches_the_cores_its_pinned_placement_gives_it() {
    // Three of the four services pinned onto host 0: round-robin would put
    // two on each host, so the coordinator's check must follow the pins.
    let (topology, _, _) = kollaps_topology::generators::dumbbell(
        2,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let scenario = Scenario::from_topology(topology)
        .distributed(2)
        .workload(
            Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(30))
                .duration(SimDuration::from_secs(1)),
        )
        .workload(
            Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(30))
                .duration(SimDuration::from_secs(1)),
        )
        .place("client-0", 0)
        .place("server-0", 0)
        .place("client-1", 0)
        .place("server-1", 1);
    let outcome = coordinator::run(&scenario, &thread_options()).expect("pinned distributed run");
    let cores: Vec<u64> = outcome.agents.iter().map(|a| a.cores).collect();
    assert_eq!(cores, vec![3, 1]);
}

#[test]
fn an_invalid_pin_is_a_typed_error_before_any_agent_launches() {
    // The agent binary does not exist: reaching the launch would fail with
    // a spawn error instead of the scenario's own.
    let options = RunOptions {
        launch: Launch::Processes("/nonexistent/kollaps-agent".into()),
        ..thread_options()
    };
    let err =
        coordinator::run(&staggered_join_scenario(1).place("client-0", 7), &options).unwrap_err();
    assert!(
        matches!(
            err,
            CoordinatorError::Scenario(ScenarioError::InvalidPlacement { .. })
        ),
        "{err}"
    );
    let err = coordinator::run(
        &staggered_join_scenario(1).place("nonexistent", 0),
        &options,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CoordinatorError::Scenario(ScenarioError::UnknownNode { .. })
        ),
        "{err}"
    );
}

#[test]
fn injected_datagram_loss_degrades_convergence_but_not_liveness() {
    let clean = coordinator::run(&staggered_join_scenario(SECONDS), &thread_options())
        .expect("clean distributed run");
    let lossy_options = RunOptions {
        loss_probability: 0.5,
        ..thread_options()
    };
    let lossy = coordinator::run(&staggered_join_scenario(SECONDS), &lossy_options)
        .expect("lossy distributed run");

    let dropped: u64 = lossy.agents.iter().map(|a| a.lost_datagrams).sum();
    assert!(dropped > 0, "the loss knob dropped nothing");
    // Lost datagrams must not stall the per-tick barrier.
    for agent in &lossy.agents {
        assert_eq!(agent.barrier_timeouts, 0);
    }
    // Starving the authoritative managers of remote usage cannot improve
    // the allocation: the worst-case gap only grows.
    assert!(
        convergence(&lossy.report, "max_gap") >= convergence(&clean.report, "max_gap"),
        "lossy max_gap {} < clean max_gap {}",
        convergence(&lossy.report, "max_gap"),
        convergence(&clean.report, "max_gap")
    );
    // Received bytes shrink with half the datagrams gone.
    let clean_received: u64 = clean.agents.iter().map(|a| a.received_bytes).sum();
    let lossy_received: u64 = lossy.agents.iter().map(|a| a.received_bytes).sum();
    assert!(lossy_received < clean_received);
}

#[test]
fn agents_run_as_real_processes_over_loopback() {
    let options = RunOptions {
        launch: Launch::Processes(env!("CARGO_BIN_EXE_kollaps-agent").into()),
        loss_probability: 0.0,
        barrier_timeout: Duration::from_secs(10),
    };
    let outcome = coordinator::run(&staggered_join_scenario(2), &options)
        .expect("process-mode distributed run");
    assert_eq!(outcome.agents.len(), 2);
    assert!(convergence(&outcome.report, "max_gap").is_finite());
    for agent in &outcome.agents {
        assert!(agent.sent_bytes > 0);
        assert!(agent.received_bytes > 0);
    }
    // Process mode is the same deterministic replica: it must agree with
    // the thread-mode run of the same scenario bit-for-bit.
    let threads = coordinator::run(&staggered_join_scenario(2), &thread_options())
        .expect("thread-mode distributed run");
    assert_eq!(
        convergence(&outcome.report, "max_gap"),
        convergence(&threads.report, "max_gap")
    );
}
