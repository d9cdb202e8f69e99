//! The metric catalog: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repo root carries the same names plus each
//! end-to-end metric's direction and regression bound; a self-test keeps the
//! two in step. Host time and simulated (virtual) time are labelled per
//! metric in the README.

/// End-to-end metrics `(name, unit)`, measured with probing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("realtime_factor", "vs/s"),
    ("setup_s", "s"),
    ("emulate_pkts_per_s", "pkts/s"),
    ("peak_heap_mb", "MB"),
    ("goodput_accuracy_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, from the layered pass.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Set-up, in construction order.
    ("topology.build_us", "us"),
    ("dynamics.generate_us", "us"),
    ("dynamics.events", "count"),
    ("collapse.build_us", "us"),
    ("collapse.pairs", "count"),
    ("timeline.precompute_us", "us"),
    ("timeline.snapshots", "count"),
    ("emulation.construct_us", "us"),
    ("runtime.register_us", "us"),
    ("scenario.session_us", "us"),
    // The four dataplane lanes and the runtime's residual.
    ("emulation.next_wakeup_us", "us"),
    ("emulation.next_wakeup_calls", "count"),
    ("emulation.deliver_us", "us"),
    ("emulation.deliver_calls", "count"),
    ("emulation.deliver_packets", "count"),
    ("emulation.deliver_empty_ratio", "ratio"),
    ("emulation.wakeups_per_packet", "1/pkt"),
    ("emulation.send_us", "us"),
    ("emulation.send_calls", "count"),
    ("emulation.send_backpressure_ratio", "ratio"),
    ("emulation.send_dropped", "count"),
    ("runtime.self_us", "us"),
    ("runtime.self_ns_per_packet", "ns/pkt"),
    // Inside the tick.
    ("emulation.tick_us", "us"),
    ("emulation.tick_calls", "count"),
    ("tick.collect_us", "us"),
    ("tick.publish_us", "us"),
    ("tick.synchronize_us", "us"),
    ("tick.drain_us", "us"),
    ("tick.enforce_us", "us"),
    ("tick.other_us", "us"),
    ("sharing.alloc_us", "us"),
    ("sharing.calls", "count"),
    ("sharing.fast_hits", "count"),
    ("sharing.components_recomputed", "count"),
    ("sharing.components_reused", "count"),
    ("sharing.full_allocate_us", "us"),
    ("dynamics.events_applied", "count"),
    ("dynamics.chains_touched", "count"),
    ("dynamics.mean_swap_cost", "paths"),
    ("metadata.bytes", "bytes"),
    ("metadata.bytes_per_tick", "bytes/tick"),
    ("metadata.codec_ns_per_flow", "ns/flow"),
    // Leaf micro-drives.
    ("netmodel.egress_enqueue_ns", "ns"),
    ("netmodel.egress_dequeue_ns", "ns"),
    ("netmodel.egress_next_wakeup_ns", "ns"),
    ("transport.tcp_ns_per_segment", "ns/seg"),
    ("sim.event_queue_ns_per_op", "ns/op"),
    // Report assembly.
    ("scenario.finish_us", "us"),
    ("scenario.to_json_us", "us"),
    ("scenario.json_bytes", "bytes"),
    // Allocation pressure and simulated fidelity.
    ("alloc.count_per_packet", "1/pkt"),
    ("alloc.bytes_per_packet", "bytes/pkt"),
    ("convergence.mean_gap", "ratio"),
    ("convergence.max_gap", "ratio"),
    // The instrument itself.
    ("ledger.coverage_pct", "%"),
    ("probe.overhead_pct", "%"),
    ("probe.passes", "count"),
];
