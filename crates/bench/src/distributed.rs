//! The distributed metadata-latency bench: runs the staggered-join
//! scenario once in-process and once over the real-socket runtime
//! (agents on threads, metadata on loopback UDP) and records how the two
//! compare — the unit the perf-trajectory gate tracks for the
//! distributed runtime.

use kollaps_runtime::coordinator::{self, staggered_join_scenario, RunOptions};

use crate::record::{BenchRecord, BenchReport, TOLERANCE_DETERMINISTIC, TOLERANCE_WALL_CLOCK};

/// Runs the comparison — in-process baseline, then the distributed runtime
/// with two thread-mode agents over real loopback sockets, zero injected
/// delay and loss — and returns its perf-trajectory records.
pub fn run_distributed(seconds: u64) -> BenchReport {
    let baseline = staggered_join_scenario(seconds)
        .run()
        .expect("in-process staggered join");
    let expected = baseline.convergence.expect("kollaps convergence");

    let outcome = coordinator::run(&staggered_join_scenario(seconds), &RunOptions::default())
        .expect("distributed staggered join");
    let gap = |key: &str| {
        outcome
            .report
            .get("convergence")
            .and_then(|c| c.get(key))
            .and_then(|v| v.as_f64())
            .expect("merged convergence")
    };
    let metadata_bytes = outcome
        .report
        .get("metadata_bytes")
        .and_then(|v| v.as_u64())
        .expect("real metadata bytes");
    let (wait_us, ticks) = outcome.agents.iter().fold((0u64, 0u64), |(w, t), a| {
        (w + a.barrier_wait_micros, t + a.barriers)
    });

    let cell = |name: &str, value: f64, unit: &str, tolerance: f64| {
        BenchRecord::new(name, value, unit)
            .axis("seconds", seconds)
            .axis("agents", 2)
            .lower_is_better(tolerance)
    };
    let mut report = BenchReport::new("distributed");
    // `|distributed − in-process|` convergence gaps, in percentage points.
    // Replica lockstep makes them exactly zero.
    report.push(cell(
        "max_gap_delta_vs_inprocess",
        (gap("max_gap") - expected.max_gap).abs() * 100.0,
        "percent",
        TOLERANCE_DETERMINISTIC,
    ));
    report.push(cell(
        "mean_gap_delta_vs_inprocess",
        (gap("mean_gap") - expected.mean_gap).abs() * 100.0,
        "percent",
        TOLERANCE_DETERMINISTIC,
    ));
    // Real metadata bytes that crossed the UDP sockets, summed over agents
    // — the distributed counterpart of the modeled `metadata_bytes` (each
    // datagram carries a 4-byte frame prefix).
    report.push(cell(
        "metadata_network_bytes",
        metadata_bytes as f64,
        "bytes",
        TOLERANCE_DETERMINISTIC,
    ));
    // Mean wall-clock an agent spent in the per-tick lockstep barrier.
    report.push(cell(
        "barrier_wait_per_tick",
        wait_us as f64 / ticks.max(1) as f64,
        "micros",
        TOLERANCE_WALL_CLOCK,
    ));
    report
}
