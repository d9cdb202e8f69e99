//! The scaling bench: emulation-core throughput over topology size × flow
//! count.
//!
//! A stepping sweep over dumbbell cells up to 1002 nodes / 10 000 flows.
//! Each cell runs the same scenario four times, untraced and
//! `.trace(true)` alternating as untraced, traced, traced, untraced, so
//! that a host that speeds up or slows down during the cell weighs on both
//! kinds alike. All reports are asserted to agree flow-for-flow (tracing
//! moves wall clock, never results); the sweep records emulation rounds per
//! wall second, the untraced run split into set-up (`Scenario::session()`),
//! stepping and teardown (`Session::finish`, which drops the session) with
//! the whole run's real-time factor, the process's peak resident set,
//! allocation µs per round, the flight recorder's throughput overhead
//! ratio, the allocator's fast-path and solve counters, the egress trees
//! polled per `deliver` call (the packet path's work counter), the paths
//! the managers derived, the timeline's tree entries written, pairs
//! compared and trees searched, and the timeline precompute cost.
//!
//! Wall-clock metrics gate with [`TOLERANCE_WALL_CLOCK`]; the allocator,
//! packet-path and timeline counters come from the deterministic
//! simulation and gate tightly.

use std::time::Instant;

use kollaps_core::{AllocatorStats, PacketPathStats, SnapshotTimeline, TimelineStats};
use kollaps_scenario::Report;
use kollaps_scenario::{Churn, Scenario, Workload};
use kollaps_sim::prelude::*;
use kollaps_topology::generators;

use crate::record::{BenchRecord, BenchReport, TOLERANCE_DETERMINISTIC, TOLERANCE_WALL_CLOCK};

/// Physical hosts (Emulation Managers) each cell deploys on.
const HOSTS: usize = 4;

/// One cell of the stepping sweep.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Total topology nodes (services + the two bridges).
    pub nodes: usize,
    /// Concurrent UDP flows.
    pub flows: usize,
    /// Emulation rounds the session stepped through.
    pub rounds: u64,
    /// Offline timeline precompute, microseconds.
    pub precompute_seq_micros: u64,
    /// Emulation rounds per wall-clock second, untraced.
    pub rounds_per_sec_seq: f64,
    /// Emulation rounds per wall-clock second with `.trace(true)` — the
    /// flight recorder running with phase, worker and allocation spans.
    pub rounds_per_sec_traced: f64,
    /// Microseconds inside the min-max allocator per round (all managers).
    pub alloc_micros_per_round: f64,
    /// Allocator counters for the untraced run.
    pub alloc_stats: AllocatorStats,
    /// Mean egress trees polled per `Dataplane::deliver` call in the
    /// untraced run — deterministic; about one, because only the trees
    /// whose wake is due are polled.
    pub trees_visited_per_deliver: f64,
    /// The untraced runs' mean wall-clock microseconds in
    /// `Scenario::session()`: the timeline precompute and the deployment.
    pub setup_micros: f64,
    /// ... stepping the session to its end.
    pub stepping_micros: f64,
    /// ... in `Session::finish`, which builds the report and drops the
    /// session (the timeline with it).
    pub teardown_micros: f64,
    /// The process's peak resident set after the cell (`VmHWM`), in MB.
    /// Cells run in ascending size, so this is the cell's own peak unless
    /// an earlier cell of the same process peaked higher; 0 where
    /// `/proc/self/status` cannot be read.
    pub peak_rss_mb: f64,
    /// Paths the managers derived from the snapshots' trees (untraced run).
    pub paths_built: u64,
    /// Flows whose solver rows the managers derived afresh (untraced run).
    pub enforce_flows_rebuilt: u64,
    /// Omniscient solves of the convergence metric (untraced run).
    pub convergence_solves: u64,
    /// The timeline's tree entries written, pairs compared and trees
    /// searched.
    pub timeline: TimelineStats,
}

impl ScalingCell {
    /// Untraced-over-traced throughput ratio: 1.0 means the flight
    /// recorder is free, 2.0 means tracing halves throughput.
    pub fn traced_overhead_ratio(&self) -> f64 {
        self.rounds_per_sec_seq / self.rounds_per_sec_traced.max(1e-9)
    }

    /// Percentage of allocator calls answered from the fast path
    /// (unchanged flow set).
    pub fn fast_hit_percent(&self) -> f64 {
        100.0 * self.alloc_stats.fast_hits as f64 / self.alloc_stats.calls.max(1) as f64
    }

    /// Virtual seconds emulated per wall second over the whole untraced
    /// run, set-up to teardown: at least 1 is real time.
    pub fn realtime_factor(&self) -> f64 {
        let wall_micros = self.setup_micros + self.stepping_micros + self.teardown_micros;
        HORIZON.as_secs_f64() * 1e6 / wall_micros.max(1e-9)
    }
}

/// The process's peak resident set (`VmHWM` of `/proc/self/status`), in
/// MB; 0 where it cannot be read.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed run of a cell.
struct Leg {
    setup_micros: f64,
    stepping_micros: f64,
    teardown_micros: f64,
    alloc_micros: u64,
    alloc_stats: AllocatorStats,
    packet_path: PacketPathStats,
    timeline: TimelineStats,
    report: Report,
}

impl Leg {
    fn wall_secs(&self) -> f64 {
        (self.setup_micros + self.stepping_micros + self.teardown_micros) / 1e6
    }
}

/// The scenario of one cell: a `pairs`-pair dumbbell whose trunk is
/// oversubscribed by `pairs × flows_per_client` constant-rate UDP flows
/// (client *i* targets servers *i*, *i+1*, ... mod `pairs`), with one
/// access link flapping so the dynamic path (timeline deltas, each with a
/// new link table the allocator's memo must notice) stays exercised.
fn cell_scenario(pairs: usize, flows_per_client: usize, trace: bool) -> Scenario {
    let (topo, _, _) = dumbbell_topology(pairs);
    Scenario::from_topology(topo)
        .named("scaling-bench")
        .hosts(HOSTS)
        .trace(trace)
        .churn(flap_churn())
        .workloads((0..pairs).flat_map(move |i| {
            (0..flows_per_client).map(move |k| {
                Workload::iperf_udp(
                    &format!("client-{i}"),
                    &format!("server-{}", (i + k) % pairs),
                    Bandwidth::from_kbps(240),
                )
                .duration(HORIZON)
            })
        }))
        .duration(HORIZON)
}

/// Simulated horizon of every cell (20 emulation rounds at the default
/// 50 ms loop interval).
const HORIZON: SimDuration = SimDuration::from_secs(1);

fn dumbbell_topology(
    pairs: usize,
) -> (
    kollaps_topology::model::Topology,
    Vec<kollaps_topology::model::NodeId>,
    Vec<kollaps_topology::model::NodeId>,
) {
    generators::dumbbell(
        pairs,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(1000),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    )
}

fn flap_churn() -> Churn {
    Churn::poisson_flaps(&[("client-0", "bridge-left")])
        .mean_uptime(SimDuration::from_millis(400))
        .mean_downtime(SimDuration::from_millis(100))
        .horizon(HORIZON)
        .seed(0x5ca1e)
}

/// Runs one cell: timed untraced and traced sessions (asserted to agree),
/// plus the standalone precompute timing.
fn run_cell(pairs: usize, flows_per_client: usize) -> ScalingCell {
    // Precompute cost, measured outside the sessions on the same inputs.
    let (topo, _, _) = dumbbell_topology(pairs);
    let schedule = flap_churn().generate(&topo).expect("churn is valid");
    let t = Instant::now();
    let timeline = SnapshotTimeline::precompute(&topo, &schedule);
    let precompute_seq_micros = t.elapsed().as_micros() as u64;
    drop(timeline);

    let timed_run = |trace: bool| {
        let scenario = cell_scenario(pairs, flows_per_client, trace);
        let t = Instant::now();
        let mut session = scenario.session().expect("valid scenario");
        let setup_micros = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        while session.clock() < session.end() {
            session.step(SimDuration::from_millis(250)).expect("steps");
        }
        let stepping_micros = t.elapsed().as_secs_f64() * 1e6;
        let dp = session.kollaps().expect("a kollaps session");
        let (alloc_micros, alloc_stats) = (dp.allocation_micros(), dp.allocator_stats());
        let packet_path = dp.packet_path_stats();
        let timeline = *dp.timeline().stats();
        let t = Instant::now();
        let report = session.finish();
        Leg {
            setup_micros,
            stepping_micros,
            teardown_micros: t.elapsed().as_secs_f64() * 1e6,
            alloc_micros,
            alloc_stats,
            packet_path,
            timeline,
            report,
        }
    };
    // Untraced, traced, traced, untraced: each kind's mean sits at the
    // cell's midpoint, whichever way the host drifts.
    let first = timed_run(false);
    let traced = [timed_run(true), timed_run(true)];
    let last = timed_run(false);

    // Tracing is a wall-clock knob only: every flow must have moved the
    // exact same number of bytes in every run.
    for other in traced.iter().chain([&last]) {
        assert_eq!(first.report.flows.len(), other.report.flows.len());
        for (a, c) in first.report.flows.iter().zip(other.report.flows.iter()) {
            assert_eq!(
                a.goodput_mbps, c.goodput_mbps,
                "tracing changed flow results"
            );
            assert_eq!(
                a.per_second_mbps, c.per_second_mbps,
                "tracing changed flow results"
            );
        }
    }
    assert!(
        traced.iter().all(|leg| leg.report.phase_timing.is_some()),
        "the traced legs must actually record phase timings"
    );
    let mean = |value: fn(&Leg) -> f64, legs: [&Leg; 2]| (value(legs[0]) + value(legs[1])) / 2.0;
    let untraced = [&first, &last];
    let seq_secs = mean(Leg::wall_secs, untraced);
    let traced_secs = mean(Leg::wall_secs, [&traced[0], &traced[1]]);
    let Leg {
        alloc_micros,
        alloc_stats,
        packet_path,
        timeline,
        ..
    } = first;

    // One allocator call per manager per round.
    let rounds = alloc_stats.calls / HOSTS as u64;
    ScalingCell {
        nodes: topo.node_count(),
        flows: pairs * flows_per_client,
        rounds,
        precompute_seq_micros,
        rounds_per_sec_seq: rounds as f64 / seq_secs,
        rounds_per_sec_traced: rounds as f64 / traced_secs,
        alloc_micros_per_round: alloc_micros as f64 / rounds.max(1) as f64,
        alloc_stats,
        trees_visited_per_deliver: packet_path.trees_visited_per_deliver(),
        setup_micros: mean(|leg| leg.setup_micros, untraced),
        stepping_micros: mean(|leg| leg.stepping_micros, untraced),
        teardown_micros: mean(|leg| leg.teardown_micros, untraced),
        peak_rss_mb: peak_rss_mb(),
        paths_built: packet_path.paths_built,
        enforce_flows_rebuilt: packet_path.enforce_flows_rebuilt,
        convergence_solves: packet_path.convergence_solves,
        timeline,
    }
}

/// Runs the stepping sweep over `(pairs, flows_per_client)` cells.
pub fn run_scaling(cells: &[(usize, usize)]) -> Vec<ScalingCell> {
    cells
        .iter()
        .map(|&(pairs, flows)| run_cell(pairs, flows))
        .collect()
}

/// The default sweep: 102 → 1002 nodes, 200 → 10 000 flows.
pub const DEFAULT_CELLS: [(usize, usize); 3] = [(50, 4), (150, 8), (500, 20)];

/// The `--full` sweep adds a 2002-node / 20 000-flow cell.
pub const FULL_CELLS: [(usize, usize); 4] = [(50, 4), (150, 8), (500, 20), (1000, 20)];

/// The perf-trajectory records for `BENCH_scaling.json`. Wall-clock
/// throughputs gate loosely (`higher_is_better`, runners differ); the
/// allocator counters are deterministic and gate tightly — they are the
/// tripwire that catches someone breaking the identical-input fast path
/// (every call falling back to a full solve shows up as `fast_hit_percent`
/// collapsing and `components_recomputed` exploding long before wall clock
/// does on a small runner).
pub fn scaling_records(cells: &[ScalingCell]) -> BenchReport {
    let mut report = BenchReport::new("scaling");
    for c in cells {
        let cell = |name: &str, value: f64, unit: &str| {
            BenchRecord::new(name, value, unit)
                .axis("nodes", c.nodes)
                .axis("flows", c.flows)
        };
        report.push(
            cell("rounds_per_sec_seq", c.rounds_per_sec_seq, "rounds/s")
                .higher_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(
            cell("rounds_per_sec_traced", c.rounds_per_sec_traced, "rounds/s")
                .higher_is_better(TOLERANCE_WALL_CLOCK),
        );
        // A ratio of two noisy wall clocks: too wide for the 2.0× gate to
        // mean anything, so it is recorded only.
        report.push(cell(
            "traced_overhead_ratio",
            c.traced_overhead_ratio(),
            "ratio",
        ));
        report.push(
            cell("alloc_micros_per_round", c.alloc_micros_per_round, "micros")
                .lower_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(
            cell(
                "precompute_seq_micros",
                c.precompute_seq_micros as f64,
                "micros",
            )
            .lower_is_better(TOLERANCE_WALL_CLOCK),
        );
        for (name, micros) in [
            ("setup_micros", c.setup_micros),
            ("stepping_micros", c.stepping_micros),
            ("teardown_micros", c.teardown_micros),
        ] {
            report.push(cell(name, micros, "micros").lower_is_better(TOLERANCE_WALL_CLOCK));
        }
        report.push(
            cell("realtime_factor", c.realtime_factor(), "vs/s")
                .higher_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(cell("peak_rss_mb", c.peak_rss_mb, "MB").lower_is_better(TOLERANCE_WALL_CLOCK));
        report.push(
            cell("fast_hit_percent", c.fast_hit_percent(), "percent")
                .higher_is_better(TOLERANCE_DETERMINISTIC),
        );
        for (name, count, unit) in [
            ("paths_built", c.paths_built as f64, "paths"),
            (
                "enforce_flows_rebuilt",
                c.enforce_flows_rebuilt as f64,
                "flows",
            ),
            ("convergence_solves", c.convergence_solves as f64, "solves"),
            (
                "timeline_tree_entries_written",
                c.timeline.tree_entries_written as f64,
                "entries",
            ),
            (
                "timeline_pairs_compared",
                c.timeline.pairs_compared as f64,
                "paths",
            ),
            (
                "timeline_trees_searched",
                c.timeline.trees_searched as f64,
                "trees",
            ),
        ] {
            report.push(cell(name, count, unit).lower_is_better(TOLERANCE_DETERMINISTIC));
        }
        report.push(
            cell(
                "components_recomputed",
                c.alloc_stats.components_recomputed as f64,
                "count",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "trees_visited_per_deliver",
                c.trees_visited_per_deliver,
                "trees",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(cell("rounds", c.rounds as f64, "count"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small end-to-end stepping cell: untraced and traced runs must
    /// agree (asserted inside `run_cell`) and the steady-state fast path
    /// must carry most allocator calls despite the churn-driven link-table
    /// swaps.
    #[test]
    fn small_cell_hits_the_fast_path() {
        let cells = run_scaling(&[(8, 2)]);
        let cell = &cells[0];
        assert_eq!(cell.nodes, 18);
        assert_eq!(cell.flows, 16);
        assert!(cell.rounds > 0);
        assert!(
            cell.fast_hit_percent() > 50.0,
            "steady-state UDP demands should hit the fast path: {:?}",
            cell.alloc_stats
        );
        // 16 deployed trees, 4 per manager: a `deliver` polls the due trees
        // only, 1.3 here. Polling every tree of a manager with one due read
        // 3.7 here and a quarter of the trees in every cell of the sweep.
        assert!(
            cell.trees_visited_per_deliver > 0.0 && cell.trees_visited_per_deliver < 2.0,
            "{} trees polled per deliver",
            cell.trees_visited_per_deliver
        );
    }
}
