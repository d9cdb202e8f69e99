//! The dynamics bench: timeline-driven snapshot swaps vs the old online
//! re-collapse, swept over event rate × topology size.
//!
//! For each (topology size, flapped-link count) cell the bench generates a
//! Poisson link-flapping schedule on randomly sampled access links,
//! precomputes the snapshot timeline, and contrasts
//!
//! * **offline precompute + per-event delta** (what the emulation now does:
//!   the per-event swap work is the delta's changed paths), against
//! * **online re-collapse** (what `apply_dynamic_events` used to do inline:
//!   a full all-pairs rebuild of every service pair on every event).
//!
//! The acceptance property is visible in the output: per-event swap cost
//! tracks the number of paths the flapped links actually carry (roughly
//! `2·(services-1)` per flapped access link), while the online rebuild
//! redoes `pair_count` paths per event — so the ratio grows with topology
//! size at fixed churn.
//!
//! One cell per topology size also runs a **traffic leg** — seeded UDP flows
//! over the cell's mesh while its links flap — and reports the event loop's
//! dataplane wake-ups per delivered packet. Paths of unequal latency
//! supersede each other's wake-ups; a runtime that handled the superseded
//! ones again would breed a chain of ghost wake-ups per supersede and the
//! deterministic per-packet count would multiply, whatever the clock does.
//! The leg also reports the egress trees polled per `deliver` call: only
//! the trees whose wake is due are polled, so the count sits near two
//! thirds of one tree whatever the deployed trees (the wake-up on which a
//! datagram reaches its destination host finds none due) and reads about
//! two thirds of all of them the day `deliver` polls every tree of a
//! manager with one due again. Last, it counts the qdisc chains created:
//! one per pair that sent, so the count stays near the leg's flow pairs
//! (twenty) and jumps to the cell's pair count the day chains are installed
//! for every pair with a path again; and the paths the managers derived
//! from the snapshots' trees, one per chain plus one per cached pair a
//! delta named, which grows with the loop's iterations the day a path is
//! derived per read again.

use kollaps_core::{CollapsedTopology, EventLoopStats, SnapshotTimeline};
use kollaps_dynamics::Churn;
use kollaps_netmodel::packet::MSS;
use kollaps_scenario::{Scenario, Workload};
use kollaps_sim::prelude::*;
use kollaps_sim::rng::SimRng;
use kollaps_topology::events::{apply_action, EventSchedule};
use kollaps_topology::generators::{self, ScaleFreeParams};
use kollaps_topology::model::Topology;

use crate::record::{BenchRecord, BenchReport, TOLERANCE_DETERMINISTIC, TOLERANCE_WALL_CLOCK};

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct DynamicsCell {
    /// Total topology elements (services + switches).
    pub elements: usize,
    /// Service count (end nodes).
    pub services: usize,
    /// Ordered service pairs in the collapsed view.
    pub pairs: usize,
    /// Access links being flapped.
    pub flapped_links: usize,
    /// Events in the generated schedule.
    pub events: usize,
    /// Change times (= snapshots precomputed).
    pub snapshots: usize,
    /// Offline timeline precompute, microseconds.
    pub precompute_micros: u64,
    /// Mean per-event swap cost (changed + removed paths).
    pub mean_swap_cost: f64,
    /// Worst per-event swap cost.
    pub max_swap_cost: usize,
    /// Total wall-clock microseconds of replaying the schedule with the old
    /// online all-pairs re-collapse.
    pub online_rebuild_micros: u64,
    /// Paths the online rebuild re-derives over the whole schedule
    /// (`pairs × snapshots`).
    pub online_paths_recomputed: usize,
    /// Paths the timeline re-derived offline (its selective precompute).
    pub timeline_paths_recomputed: usize,
    /// Of those, the ones it walked to decide whether they changed; the
    /// rest were recognised as unchanged on the shortest-path tree.
    pub timeline_pairs_compared: usize,
    /// Tree entries the timeline wrote into snapshot overlays: one per
    /// parent entry a change moved; every other entry of every snapshot is
    /// the base's or shared with the previous snapshot.
    pub timeline_tree_entries_written: usize,
    /// Shortest-path tree nodes the timeline settled: what its tree repairs
    /// (and the full searches they fall back to) cost.
    pub timeline_nodes_settled: usize,
    /// Shortest-path trees the timeline searched from scratch: one per
    /// switch the services hang off (and per service that is no leaf) up
    /// front, plus the searches repairs fell back to.
    pub timeline_trees_searched: usize,
    /// The traffic leg, on the size's last flap count.
    pub traffic: Option<TrafficLeg>,
}

/// What the event loop did for the traffic leg of a cell.
#[derive(Debug, Clone, Copy)]
pub struct TrafficLeg {
    /// Datagrams delivered.
    pub packets: u64,
    /// The runtime's event-loop counters at the end of the leg.
    pub event_loop: EventLoopStats,
    /// Mean egress trees polled per `Dataplane::deliver` call.
    pub trees_visited_per_deliver: f64,
    /// Qdisc chains the leg created: one per pair that sent, not one per
    /// pair with a path.
    pub chains_installed: u64,
    /// Paths the leg's managers derived from the snapshots' trees: one per
    /// chain, plus one per cached pair a delta refreshed.
    pub paths_built: u64,
    /// Delta pairs the leg's managers visited while swapping snapshots:
    /// their own sources' runs plus the reverse pairs of their cached
    /// paths, not every pair of every delta.
    pub swap_pairs_visited: u64,
    /// Flows whose solver rows the leg's managers derived afresh.
    pub enforce_flows_rebuilt: u64,
    /// Omniscient solves of the leg's convergence metric.
    pub convergence_solves: u64,
}

// The traffic leg: how many flows, how fast each sends, for how long.
const TRAFFIC_FLOWS: usize = 20;
const TRAFFIC_RATE: Bandwidth = Bandwidth::from_mbps(2);
const TRAFFIC_HORIZON: SimDuration = SimDuration::from_secs(2);

/// Runs the traffic leg: UDP flows between seeded service pairs of `topo`
/// under `schedule`.
fn traffic_leg(topo: &Topology, schedule: &EventSchedule) -> TrafficLeg {
    let services = topo.service_ids();
    let mut rng = SimRng::new(services.len() as u64 ^ 0x7aff1c);
    let name_of = |i: usize| {
        let node = topo.node(services[i]).expect("service exists");
        node.kind.display_name()
    };
    let scenario = Scenario::from_topology(topo.clone())
        .named("dynamics-traffic")
        .schedule(schedule.clone())
        .duration(TRAFFIC_HORIZON)
        .workloads((0..TRAFFIC_FLOWS).map(|_| {
            let a = rng.gen_index(services.len());
            let b = (a + 1 + rng.gen_index(services.len() - 1)) % services.len();
            Workload::iperf_udp(&name_of(a), &name_of(b), TRAFFIC_RATE).duration(TRAFFIC_HORIZON)
        }));
    let mut session = scenario.session().expect("valid scenario");
    session
        .run_until(session.end())
        .expect("stepping never fails");
    let delivered: u64 = session.flow_progress().iter().map(|f| f.bytes).sum();
    let packet_path = session
        .kollaps()
        .expect("a kollaps session")
        .packet_path_stats();
    TrafficLeg {
        packets: delivered / MSS.as_bytes(),
        event_loop: session.event_loop_stats(),
        trees_visited_per_deliver: packet_path.trees_visited_per_deliver(),
        chains_installed: packet_path.chains_installed,
        paths_built: packet_path.paths_built,
        swap_pairs_visited: packet_path.swap_pairs_visited,
        enforce_flows_rebuilt: packet_path.enforce_flows_rebuilt,
        convergence_solves: packet_path.convergence_solves,
    }
}

/// Builds the sweep topology and the churn schedule for one cell.
fn cell_inputs(elements: usize, flapped: usize) -> (Topology, Vec<(String, String)>) {
    let mut rng = SimRng::new(elements as u64 * 31 + flapped as u64);
    let params = ScaleFreeParams {
        total_elements: elements,
        ..ScaleFreeParams::default()
    };
    let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
    // Flap the access links of `flapped` distinct sampled services; an
    // access link flap affects exactly that service's pairs, which keeps
    // the expected delta size known.
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < flapped.min(nodes.len()) {
        let i = rng.gen_index(nodes.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let links = picked
        .into_iter()
        .map(|i| {
            let node = nodes[i];
            let link = topo
                .links_from(node)
                .next()
                .expect("every end node has an access link");
            let peer = topo.node(link.to).expect("peer exists").kind.display_name();
            let name = topo.node(node).expect("node exists").kind.display_name();
            (name, peer)
        })
        .collect();
    (topo, links)
}

/// Runs the sweep. `sizes` are total element counts; `flap_counts` how many
/// access links churn concurrently; `horizon_secs` the churn window.
pub fn run_dynamics(
    sizes: &[usize],
    flap_counts: &[usize],
    horizon_secs: u64,
) -> Vec<DynamicsCell> {
    let mut cells = Vec::new();
    for &elements in sizes {
        for &flapped in flap_counts {
            let (topo, links) = cell_inputs(elements, flapped);
            let link_refs: Vec<(&str, &str)> = links
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let schedule = Churn::poisson_flaps(&link_refs)
                .mean_uptime(SimDuration::from_secs(2))
                .mean_downtime(SimDuration::from_millis(400))
                .horizon(SimDuration::from_secs(horizon_secs))
                .seed(elements as u64 ^ 0x5eed)
                .generate(&topo)
                .expect("generated churn is valid");
            let timeline = SnapshotTimeline::precompute(&topo, &schedule);
            let stats = *timeline.stats();
            let deltas = timeline.deltas();
            let mean_swap_cost = if deltas.is_empty() {
                0.0
            } else {
                deltas.iter().map(|d| d.swap_cost()).sum::<usize>() as f64 / deltas.len() as f64
            };
            let max_swap_cost = deltas.iter().map(|d| d.swap_cost()).max().unwrap_or(0);

            // The old inline path: re-apply each change group to the
            // topology and rebuild all pairs, timing the whole replay.
            let mut online = topo.clone();
            let mut collapsed = CollapsedTopology::build(&topo);
            let started = std::time::Instant::now();
            for at in schedule.change_times() {
                for event in schedule.events_at(at) {
                    apply_action(&mut online, &event.action);
                }
                collapsed = collapsed.rebuild_with_addresses(&online);
            }
            let online_rebuild_micros = started.elapsed().as_micros() as u64;
            let pairs = timeline.initial().pair_count();
            let traffic =
                (Some(&flapped) == flap_counts.last()).then(|| traffic_leg(&topo, &schedule));
            cells.push(DynamicsCell {
                elements,
                services: topo.service_ids().len(),
                pairs,
                flapped_links: links.len(),
                events: schedule.len(),
                snapshots: timeline.len(),
                precompute_micros: stats.precompute_micros,
                mean_swap_cost,
                max_swap_cost,
                online_rebuild_micros,
                online_paths_recomputed: pairs * timeline.len(),
                timeline_paths_recomputed: stats.recomputed_paths,
                timeline_pairs_compared: stats.pairs_compared,
                timeline_tree_entries_written: stats.tree_entries_written,
                timeline_nodes_settled: stats.nodes_settled,
                timeline_trees_searched: stats.trees_searched,
                traffic,
            });
        }
    }
    cells
}

/// The perf-trajectory records for `BENCH_dynamics.json`: the deterministic
/// swap-work metrics and the traffic leg's wake-ups per packet, trees
/// polled per `deliver`, chains created, paths built, flow rows derived
/// and convergence solves gate tightly (the simulation
/// reproduces them exactly), the wall-clock timings gate
/// loosely, and the sweep-shape counts are informational context.
pub fn dynamics_records(cells: &[DynamicsCell]) -> BenchReport {
    let mut report = BenchReport::new("dynamics");
    for c in cells {
        let cell = |name: &str, value: f64, unit: &str| {
            BenchRecord::new(name, value, unit)
                .axis("elements", c.elements)
                .axis("flapped", c.flapped_links)
        };
        report.push(
            cell("mean_swap_cost", c.mean_swap_cost, "paths")
                .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell("max_swap_cost", c.max_swap_cost as f64, "paths")
                .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "timeline_paths_recomputed",
                c.timeline_paths_recomputed as f64,
                "paths",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "timeline_pairs_compared",
                c.timeline_pairs_compared as f64,
                "paths",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "timeline_tree_entries_written",
                c.timeline_tree_entries_written as f64,
                "entries",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "timeline_nodes_settled",
                c.timeline_nodes_settled as f64,
                "nodes",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell(
                "timeline_trees_searched",
                c.timeline_trees_searched as f64,
                "trees",
            )
            .lower_is_better(TOLERANCE_DETERMINISTIC),
        );
        report.push(
            cell("precompute_micros", c.precompute_micros as f64, "micros")
                .lower_is_better(TOLERANCE_WALL_CLOCK),
        );
        report.push(cell(
            "online_paths_recomputed",
            c.online_paths_recomputed as f64,
            "paths",
        ));
        report.push(cell(
            "online_rebuild_micros",
            c.online_rebuild_micros as f64,
            "micros",
        ));
        report.push(cell("pairs", c.pairs as f64, "count"));
        report.push(cell("events", c.events as f64, "count"));
        report.push(cell("snapshots", c.snapshots as f64, "count"));
        if let Some(leg) = &c.traffic {
            let per_packet = |count: u64| count as f64 / leg.packets.max(1) as f64;
            for (name, value, unit) in [
                (
                    "wakeups_per_packet",
                    per_packet(leg.event_loop.wakeups),
                    "1/pkt",
                ),
                (
                    "stale_wakeups_per_packet",
                    per_packet(leg.event_loop.stale_wakeups),
                    "1/pkt",
                ),
                (
                    "trees_visited_per_deliver",
                    leg.trees_visited_per_deliver,
                    "trees",
                ),
                ("chains_installed", leg.chains_installed as f64, "chains"),
                ("paths_built", leg.paths_built as f64, "paths"),
                ("swap_pairs_visited", leg.swap_pairs_visited as f64, "pairs"),
                (
                    "enforce_flows_rebuilt",
                    leg.enforce_flows_rebuilt as f64,
                    "flows",
                ),
                (
                    "convergence_solves",
                    leg.convergence_solves as f64,
                    "solves",
                ),
            ] {
                report.push(cell(name, value, unit).lower_is_better(TOLERANCE_DETERMINISTIC));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion of the dynamics engine, asserted on the
    /// bench's own sweep: per-event swap work follows the delta (the paths
    /// over the flapped links), not the topology size.
    #[test]
    fn swap_cost_scales_with_delta_not_topology_size() {
        let cells = run_dynamics(&[45, 90], &[1], 20);
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert!(cell.events > 0, "churn generated no events");
            // One flapping access link touches at most the pairs involving
            // its service: 2·(services-1) of services·(services-1) pairs.
            let bound = 2 * (cell.services - 1);
            assert!(
                cell.max_swap_cost <= bound,
                "swap cost {} exceeds per-service bound {bound}",
                cell.max_swap_cost
            );
            // The online rebuild pays the full pair count per event.
            assert!(cell.online_paths_recomputed >= cell.pairs * cell.snapshots);
        }
        // Doubling the topology size at fixed churn leaves the absolute
        // swap cost bounded by the (linear) per-service pair count while
        // all-pairs work grows quadratically: the ratio must improve.
        let small = &cells[0];
        let large = &cells[1];
        assert!(large.pairs > small.pairs * 3);
        let small_fraction = small.mean_swap_cost / small.pairs as f64;
        let large_fraction = large.mean_swap_cost / large.pairs as f64;
        assert!(
            large_fraction < small_fraction,
            "delta fraction must shrink with size: {small_fraction} vs {large_fraction}"
        );
    }
}
