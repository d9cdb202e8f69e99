//! Quickstart: describe a topology in the Kollaps DSL, emulate it, and
//! measure what an application sees — all through the unified `Scenario`
//! builder: one declarative description in, one machine-readable report out
//! (plus, with `.trace(true)`, a Chrome trace of where the emulation spent
//! its time — open it in Perfetto or `chrome://tracing`).
//!
//! Run with `cargo run --example quickstart`.

use kollaps::prelude::*;

const EXPERIMENT: &str = r#"
experiment:
  services:
    name: client
    image: "iperf3"
    name: server
    image: "nginx"
  bridges:
    name: s1
  links:
    orig: client
    dest: s1
    latency: 10
    up: 50Mbps
    down: 50Mbps
    jitter: 0.5
    orig: s1
    dest: server
    latency: 5
    up: 100Mbps
    down: 100Mbps
"#;

fn main() {
    // One builder: topology source (paper Listing 1 syntax), backend
    // selection, the workloads by service name, and the flight recorder.
    // `session()` parses, validates and collapses; `finish()` emulates to
    // the end and measures — `run()` is the same thing in one call.
    let session = Scenario::from_dsl(EXPERIMENT)
        .named("quickstart")
        .backend(Backend::kollaps_on(2))
        .trace(true)
        .workload(Workload::ping("client", "server").count(50))
        .workload(Workload::iperf_tcp("client", "server").duration(SimDuration::from_secs(10)))
        .session()
        .expect("valid scenario");
    let tracer = session.tracer().clone();
    let report = session.finish();

    let ping = report.flows_of("ping").next().expect("ping flow");
    let rtt = ping.rtt.as_ref().expect("rtt stats");
    println!(
        "ping: mean RTT {:.2} ms, jitter {:.2} ms over {} replies",
        rtt.mean_ms, rtt.jitter_ms, rtt.replies
    );
    let iperf = report.flows_of("iperf-tcp").next().expect("iperf flow");
    println!(
        "iperf: {:.2} Mb/s average goodput ({} retransmissions)",
        iperf.goodput_mbps.unwrap_or(0.0),
        iperf.retransmissions.unwrap_or(0)
    );
    println!(
        "  (the 0.5 ms jitter link reorders segments — netem semantics — so \
         TCP runs far below the 50 Mb/s shaped rate; drop the jitter to see \
         it saturate)"
    );
    for link in &report.links {
        println!(
            "link {}: {:.1} / {:.1} Mb/s offered ({:.0}% utilized)",
            link.link,
            link.offered_mbps,
            link.capacity_mbps,
            link.utilization * 100.0
        );
    }

    // The flight recorder saw every emulation phase; the report carries
    // the per-phase roll-up and the full event stream exports as a Chrome
    // trace for Perfetto.
    for phase in report.phase_timing.as_deref().unwrap_or_default() {
        println!(
            "phase {}: {} µs total over {} ticks (max {} µs)",
            phase.phase, phase.total_micros, phase.count, phase.max_micros
        );
    }

    // The whole report is machine-readable JSON for downstream tooling; CI
    // uploads the written files as workflow artifacts.
    println!("\n{}", report.to_json_string());
    let path = std::path::Path::new("target").join("quickstart-report.json");
    match std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(&path, report.to_json_string()))
    {
        Ok(()) => println!("\nreport written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
    let trace_path = std::path::Path::new("target").join("quickstart.trace.json");
    match std::fs::write(&trace_path, kollaps::trace::chrome_trace_string(&tracer, 0)) {
        Ok(()) => println!(
            "trace written to {} (open in Perfetto)",
            trace_path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
}
