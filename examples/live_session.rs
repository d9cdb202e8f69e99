//! Live session quickstart: drive an experiment interactively instead of
//! one-shot. The clock advances in 2 s steps and the live accessors are
//! read after each one, while a telemetry sink streams typed events;
//! halfway through, a latency fault is injected into the *running*
//! experiment (the precomputed snapshot timeline is extended
//! incrementally, not rebuilt).
//!
//! Run with `cargo run --example live_session`. CI runs it as the session
//! smoke.

use kollaps::prelude::*;
use kollaps::scenario::{Sink, TelemetryEvent};
use kollaps::topology::events::{DynamicAction, DynamicEvent, LinkChange};
use kollaps::topology::generators;

/// A sink that narrates the experiment to stdout as it happens.
struct Narrator;

impl Sink for Narrator {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::FlowStarted {
                at_s,
                workload,
                client,
                server,
            } => println!("[{at_s:6.2}s] flow started: {workload} {client} -> {server}"),
            TelemetryEvent::FlowFinished { at_s, report } => println!(
                "[{at_s:6.2}s] flow finished: {} ({:.2} Mb/s)",
                report.workload,
                report.goodput_mbps.unwrap_or(0.0)
            ),
            TelemetryEvent::DynamicEventApplied {
                at_s,
                events,
                changed_paths,
            } => println!(
                "[{at_s:6.2}s] topology change applied: {events} event(s), \
                 {changed_paths} path(s) swapped"
            ),
            TelemetryEvent::OversubscriptionOnset { at_s, link } => {
                println!("[{at_s:6.2}s] link {link} oversubscribed")
            }
            TelemetryEvent::OversubscriptionCleared { at_s, link } => {
                println!("[{at_s:6.2}s] link {link} recovered")
            }
            TelemetryEvent::MetadataDelivered { at_s, bytes } => {
                println!("[{at_s:6.2}s] metadata on the wire: {bytes} B")
            }
            TelemetryEvent::WorkloadInjected {
                at_s,
                workload,
                start_s,
            } => println!("[{at_s:6.2}s] workload injected: {workload} (starts at {start_s:.2}s)"),
            TelemetryEvent::EventsInjected {
                at_s,
                events,
                deltas_derived,
            } => println!(
                "[{at_s:6.2}s] {events} event(s) injected, timeline extended \
                 by {deltas_derived} delta(s)"
            ),
        }
    }
}

/// Steps the clock 2 s at a time until `until`, printing every flow's
/// progress and the busiest link after each step.
fn step_and_read(session: &mut Session, until: SimTime) {
    while session.clock() < until {
        let at = session.step(SimDuration::from_secs(2)).expect("stepping");
        for flow in session.flow_progress() {
            println!(
                "  t={:.0}s progress: {} {:?} ({} B, {} replies)",
                at.as_secs_f64(),
                flow.workload,
                flow.status,
                flow.bytes,
                flow.replies
            );
        }
        let loads = session.link_loads();
        let busiest = loads
            .iter()
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization));
        println!(
            "  t={:.0}s busiest link at {:.0}% utilization",
            at.as_secs_f64(),
            busiest.map(|l| l.utilization * 100.0).unwrap_or(0.0)
        );
    }
}

fn main() {
    let (topo, _, _) = generators::dumbbell(
        2,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );

    let mut session = Scenario::from_topology(topo)
        .named("live-session")
        .hosts(2)
        .workload(
            Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(30))
                .duration(SimDuration::from_secs(8)),
        )
        .workload(
            Workload::ping("client-1", "server-1")
                .count(40)
                .interval(SimDuration::from_millis(200))
                .duration(SimDuration::from_secs(8)),
        )
        .session()
        .expect("valid scenario");
    session.attach_sink(Box::new(Narrator));

    // Drive the first half, looking around after every step.
    step_and_read(&mut session, SimTime::from_secs(4));

    // Inject a fault into the running experiment: the trunk degrades to
    // 60 ms / 10 Mb/s one second from now.
    session
        .inject_event(DynamicEvent {
            at: SimDuration::from_secs(5),
            action: DynamicAction::SetLinkProperties {
                orig: "bridge-left".into(),
                dest: "bridge-right".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(60)),
                    up: Some(Bandwidth::from_mbps(10)),
                    down: Some(Bandwidth::from_mbps(10)),
                    ..LinkChange::default()
                },
            },
        })
        .expect("valid injection");

    let end = session.end();
    step_and_read(&mut session, end);
    let report = session.finish();
    let ping = report.flows_of("ping").next().expect("ping flow");
    let rtt = ping.rtt.as_ref().expect("rtt stats");
    println!(
        "\nfinal: udp {:.2} Mb/s; ping {} replies, {:.1}..{:.1} ms",
        report.flows[0].goodput_mbps.unwrap_or(0.0),
        rtt.replies,
        rtt.min_ms,
        rtt.max_ms
    );
    let dynamics = report.dynamics.expect("injected event reports dynamics");
    assert_eq!(
        dynamics.events_applied, 1,
        "smoke: the injection must apply"
    );
    assert!(
        rtt.max_ms > 100.0,
        "smoke: the injected 60 ms latency must be visible in the RTTs ({:.1} ms)",
        rtt.max_ms
    );
    println!(
        "(injected change applied as {} timeline swap)",
        dynamics.snapshots_applied
    );
}
