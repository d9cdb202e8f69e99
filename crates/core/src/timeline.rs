//! The precomputed snapshot timeline: offline dynamics, delta-encoded.
//!
//! The paper's dynamics claim (§3, Listing 2) is that Kollaps knows the
//! whole event schedule up front and therefore pre-computes the sequence of
//! collapsed topology snapshots **offline**, so that sub-second dynamic
//! events are enforced at runtime without recomputation. This module is that
//! engine: [`SnapshotTimeline::precompute`] turns a topology plus an
//! [`EventSchedule`] into one [`CollapsedTopology`] per change time, where
//!
//! * consecutive snapshots **structurally share** the service table, every
//!   source row without a changed pair and every unchanged
//!   [`crate::collapse::CollapsedPath`] behind [`Arc`]s: a snapshot starts
//!   as one pointer bump per source row, a row is copied on its *first*
//!   change only ([`TimelineStats::rows_copied`]), so a snapshot costs
//!   `services × 8 B` plus `services × 8 B` per row it changed, not
//!   `O(services²)` entries; and
//! * each snapshot carries a [`SnapshotDelta`] — exactly the service pairs
//!   whose end-to-end path changed or disappeared — so runtime application
//!   touches only the affected qdisc chains and never runs an all-pairs
//!   shortest-path computation inside the emulation loop.
//!
//! The precompute is *selective*: only sources whose previous paths traverse
//! a changed link are re-derived. For purely degrading change groups (links
//! removed, latencies increased, bandwidth/loss/jitter edits) that is exact:
//! a shortest path that avoids every changed link stays shortest, and the
//! deterministic tie-breaking of
//! [`kollaps_topology::graph::TopologyGraph::shortest_path_tree`] — the
//! `(cost, hops, node id)` heap order, ascending link ids per node, strict
//! improvement only; see the contract in that module — keeps picking it.
//! The moment a group can *improve* routes (a link joins, a latency drops)
//! every source is re-derived — still offline, and the structural-sharing
//! diff keeps the runtime delta minimal.
//!
//! Re-deriving a source is one shortest-path tree, and for most of its
//! destinations nothing more: when the tree's path to a destination is the
//! previous snapshot's link list and none of those links is *stale*
//! (removed or re-parameterised by this group), the previous
//! `CollapsedPath` is kept without building a new one. That is exact, not a
//! heuristic: a collapsed path is a pure function of `(src, dst)`, its link
//! ids in order and those links' properties — the same floating-point
//! operations in the same order — and every path of the previous snapshot
//! already reflects the properties in force before this group, because any
//! earlier group that touched one of its links re-derived it then. Same
//! links, none stale ⇒ the identical value, so the pair keeps its `Arc` and
//! stays out of `changed_paths` exactly as the value comparison would have
//! decided. Only the remaining rows — a different route, a stale link, a
//! new pair — are built and compared ([`TimelineStats::built_paths`]). The
//! equality of timeline snapshots with a full online re-collapse is pinned
//! by the tests below and by property tests over generated topologies and
//! random schedules.

use std::collections::BTreeMap;
use std::sync::Arc;

use kollaps_sim::time::SimDuration;
use kollaps_topology::events::{apply_action, DynamicEvent, EventSchedule};
use kollaps_topology::graph::TopologyGraph;
use kollaps_topology::model::{LinkId, LinkProperties, NodeId, Topology};

use crate::collapse::{presence, source_row, CollapsedPath, CollapsedTopology, LinkTable, Row};

/// One precomputed topology change: the new snapshot plus the exact set of
/// service pairs the change affected.
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// When the change takes effect, relative to experiment start.
    pub at: SimDuration,
    /// Number of schedule events applied at this change time.
    pub events: usize,
    /// Links removed, added or re-parameterized by this change.
    pub changed_links: Vec<LinkId>,
    /// Service pairs whose collapsed path changed (including pairs that
    /// just became reachable).
    pub changed_paths: Vec<(NodeId, NodeId)>,
    /// Service pairs that lost their collapsed path (unreachable or an
    /// endpoint left).
    pub removed_paths: Vec<(NodeId, NodeId)>,
    /// The full snapshot after the change; unchanged paths are the same
    /// `Arc`s as in the previous snapshot.
    pub snapshot: Arc<CollapsedTopology>,
}

impl SnapshotDelta {
    /// The runtime swap cost of this change: the number of per-destination
    /// qdisc chains that have to be touched, which scales with the paths
    /// the change actually affected — not with the topology size.
    pub fn swap_cost(&self) -> usize {
        self.changed_paths.len() + self.removed_paths.len()
    }
}

/// Offline-precompute accounting, surfaced through the dataplane's dynamics
/// stats and the `kollaps-bench dynamics` sweep.
///
/// The counters measure **work performed**, cumulatively: an
/// [`SnapshotTimeline::extend`] that re-derives an already-precomputed
/// suffix adds that suffix's derivation work *again* (the work really did
/// happen twice), exactly as `precompute_micros` accumulates wall-clock
/// across extensions. They are not a description of the final delta list —
/// for per-change swap costs read the deltas themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimelineStats {
    /// Wall-clock time the offline precompute took, in microseconds.
    pub precompute_micros: u64,
    /// Distinct change times (= number of deltas).
    pub change_times: usize,
    /// Total schedule events folded into the timeline.
    pub events: usize,
    /// Collapsed paths re-derived across all deltas (the offline work).
    pub recomputed_paths: usize,
    /// [`crate::collapse::CollapsedPath`]s actually constructed while
    /// re-deriving (the initial snapshot not counted): a re-derived pair
    /// whose route kept its links, none of them re-parameterised, is
    /// recognised on the shortest-path tree and builds nothing.
    pub built_paths: usize,
    /// Path slots that were structurally shared with the previous snapshot
    /// instead of being re-derived or re-allocated.
    pub shared_paths: usize,
    /// Source rows copied on write across all deltas: a row is copied on
    /// its first changed or removed pair of a delta; every other row is the
    /// previous snapshot's `Arc`.
    pub rows_copied: usize,
    /// Service pairs in the initial snapshot (the all-pairs scale an online
    /// re-collapse would pay per event).
    pub initial_pairs: usize,
    /// Incremental [`SnapshotTimeline::extend`] calls folded into this
    /// timeline after the initial precompute (live steering injections).
    pub extensions: usize,
}

/// The precomputed sequence of collapsed snapshots of a dynamic experiment.
///
/// The timeline keeps the base topology and the schedule it was derived
/// from, so a running session can [`SnapshotTimeline::extend`] it with
/// injected events **incrementally** — only the deltas at or after the
/// earliest new event are re-derived; everything before them (including all
/// already-applied changes) is untouched.
#[derive(Debug, Clone)]
pub struct SnapshotTimeline {
    /// The topology before any event, as handed to the precompute.
    base: Topology,
    /// Every event folded into the timeline so far, sorted.
    schedule: EventSchedule,
    initial: Arc<CollapsedTopology>,
    deltas: Vec<SnapshotDelta>,
    stats: TimelineStats,
}

impl SnapshotTimeline {
    /// Precomputes the snapshot at every change time of `schedule` applied
    /// to `topology`. Runs offline (before the experiment starts); the
    /// runtime then only swaps `Arc`s and touches the delta'd chains.
    pub fn precompute(topology: &Topology, schedule: &EventSchedule) -> Self {
        // kollaps-analyze: allow(wall-clock) -- precompute-time diagnostic (stats.precompute_micros); never read by the emulation
        let started = std::time::Instant::now();
        let initial = Arc::new(CollapsedTopology::build(topology));
        let mut stats = TimelineStats {
            initial_pairs: initial.pair_count(),
            ..TimelineStats::default()
        };
        let mut working = topology.clone();
        let prev = Arc::clone(&initial);
        let mut deltas = Vec::new();
        fold_events(
            &mut working,
            prev,
            schedule.events(),
            &mut deltas,
            &mut stats,
        );
        stats.change_times = deltas.len();
        stats.events = schedule.len();
        stats.precompute_micros = started.elapsed().as_micros() as u64;
        SnapshotTimeline {
            base: topology.clone(),
            schedule: schedule.clone(),
            initial,
            deltas,
            stats,
        }
    }

    /// Retired, ignored; kept only because `benchmark/` names it — delete
    /// with the next `benchmark`-archetype issue.
    #[doc(hidden)]
    pub fn precompute_with(topology: &Topology, schedule: &EventSchedule, _threads: usize) -> Self {
        SnapshotTimeline::precompute(topology, schedule)
    }

    /// Folds `extra` events into the timeline **incrementally**: deltas
    /// strictly before the earliest new event are kept as-is (their
    /// snapshots, `Arc`s and indices do not move), and only the change
    /// times at or after it are (re-)derived. When every new event lands
    /// after the last existing delta — the common live-injection case —
    /// this appends without re-deriving a single old path.
    ///
    /// Returns the number of deltas derived by this call. The caller is
    /// responsible for only injecting events whose time is still in the
    /// future of whatever has already been applied; extending *behind* an
    /// applied change would rewrite history that enforcement already acted
    /// on.
    pub fn extend(&mut self, extra: &EventSchedule) -> usize {
        if extra.is_empty() {
            return 0;
        }
        // kollaps-analyze: allow(wall-clock) -- precompute-time diagnostic (stats.precompute_micros); never read by the emulation
        let started = std::time::Instant::now();
        let Some(cut) = extra.events().first().map(|e| e.at) else {
            return 0;
        };
        // Deltas strictly before the cut survive untouched.
        let keep = self.deltas.partition_point(|d| d.at < cut);
        self.deltas.truncate(keep);
        self.schedule.merge(extra);
        // Rebuild the working topology as of just before the cut: replaying
        // raw actions is O(events) graph edits — no collapse, no paths.
        let events = self.schedule.events();
        let resume = events.partition_point(|e| e.at < cut);
        let mut working = self.base.clone();
        for event in &events[..resume] {
            apply_action(&mut working, &event.action);
        }
        let prev = match self.deltas.last() {
            Some(delta) => Arc::clone(&delta.snapshot),
            None => Arc::clone(&self.initial),
        };
        fold_events(
            &mut working,
            prev,
            &events[resume..],
            &mut self.deltas,
            &mut self.stats,
        );
        let derived = self.deltas.len() - keep;
        self.stats.change_times = self.deltas.len();
        self.stats.events = events.len();
        self.stats.extensions += 1;
        self.stats.precompute_micros += started.elapsed().as_micros() as u64;
        derived
    }

    /// The topology as evolved by every scheduled event with time `<= at`
    /// (a fresh clone; the timeline itself is not mutated). This is what
    /// live steering validates injected events and churn specs against.
    pub fn topology_at(&self, at: SimDuration) -> Topology {
        let mut topo = self.base.clone();
        for event in self.schedule.events().iter().take_while(|e| e.at <= at) {
            apply_action(&mut topo, &event.action);
        }
        topo
    }

    /// Every event folded into the timeline so far, in order.
    pub fn schedule(&self) -> &EventSchedule {
        &self.schedule
    }

    /// The snapshot before the first change.
    pub fn initial(&self) -> &Arc<CollapsedTopology> {
        &self.initial
    }

    /// The precomputed changes, in chronological order.
    pub fn deltas(&self) -> &[SnapshotDelta] {
        &self.deltas
    }

    /// Precompute accounting.
    pub fn stats(&self) -> &TimelineStats {
        &self.stats
    }

    /// Number of change times.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when the schedule produced no changes.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Folds a sorted run of events into `deltas`: groups them by change time,
/// applies each group to `working` and derives one structurally-shared
/// snapshot per group. The shared core of [`SnapshotTimeline::precompute`]
/// and [`SnapshotTimeline::extend`]; no event is cloned.
fn fold_events(
    working: &mut Topology,
    mut prev: Arc<CollapsedTopology>,
    events: &[DynamicEvent],
    deltas: &mut Vec<SnapshotDelta>,
    stats: &mut TimelineStats,
) {
    let mut i = 0;
    while i < events.len() {
        let at = events[i].at;
        let mut j = i;
        while j < events.len() && events[j].at == at {
            j += 1;
        }
        let before: BTreeMap<LinkId, LinkProperties> = working
            .links()
            .iter()
            .map(|l| (l.id, l.properties))
            .collect();
        for event in &events[i..j] {
            apply_action(working, &event.action);
        }
        let delta = derive_snapshot(working, &prev, &before, at, j - i, stats);
        prev = Arc::clone(&delta.snapshot);
        deltas.push(delta);
        i = j;
    }
}

/// Builds the snapshot after one change group, sharing unchanged paths with
/// `prev` and recording exactly what differs.
fn derive_snapshot(
    working: &Topology,
    prev: &CollapsedTopology,
    before: &BTreeMap<LinkId, LinkProperties>,
    at: SimDuration,
    events: usize,
    stats: &mut TimelineStats,
) -> SnapshotDelta {
    // Diff the link tables to find what this group touched.
    let after: BTreeMap<LinkId, LinkProperties> = working
        .links()
        .iter()
        .map(|l| (l.id, l.properties))
        .collect();
    let mut changed_links: Vec<LinkId> = Vec::new();
    // Links previously-derived paths might traverse: removed or modified.
    // A handful of ids per group, so a sorted `Vec` is the whole index.
    let mut stale_links: Vec<LinkId> = Vec::new();
    // `true` once the group may create *better* routes than before (a new
    // link, or a latency drop): selective re-derivation from affected
    // sources is no longer sufficient, every source must be re-derived.
    let mut improving = false;
    for (&id, props) in &after {
        match before.get(&id) {
            None => {
                changed_links.push(id);
                improving = true;
            }
            Some(old) if old != props => {
                changed_links.push(id);
                stale_links.push(id);
                if props.latency < old.latency {
                    improving = true;
                }
            }
            Some(_) => {}
        }
    }
    for &id in before.keys() {
        if !after.contains_key(&id) {
            changed_links.push(id);
            stale_links.push(id);
        }
    }
    changed_links.sort();
    stale_links.sort();
    let is_stale = |link: &LinkId| stale_links.binary_search(link).is_ok();

    // The initial snapshot's service table covers every later one: services
    // can only leave (`NodeJoin` re-adds bridges).
    let services = &prev.services;
    debug_assert!(
        working
            .service_ids()
            .iter()
            .all(|id| services.binary_search(id).is_ok()),
        "a service joined the topology after the initial snapshot"
    );
    let present = presence(services, working);
    let pair = |src: usize, dst: usize| (services[src], services[dst]);

    // Start from the previous snapshot's rows: one `Arc` clone per source,
    // no path slot is copied until its row changes.
    let mut rows = prev.rows.clone();
    let mut pairs = prev.pairs;
    let mut removed_paths: Vec<(NodeId, NodeId)> = Vec::new();
    // Pairs whose endpoint service left are dropped up front, copying only
    // the rows that hold one.
    let absent: Vec<usize> = (0..services.len()).filter(|&i| !present[i]).collect();
    if !absent.is_empty() {
        for (src, row) in rows.iter_mut().enumerate() {
            let departed = |dst: usize| !present[src] || !present[dst];
            let holds_departed = if present[src] {
                absent.iter().any(|&dst| row[dst].is_some())
            } else {
                row.iter().any(Option::is_some)
            };
            if !holds_departed {
                continue;
            }
            for (dst, slot) in row_mut(row, stats).iter_mut().enumerate() {
                if departed(dst) && slot.take().is_some() {
                    pairs -= 1;
                    removed_paths.push(pair(src, dst));
                }
            }
        }
    }

    // Sources that need re-derivation: all of them when the group can
    // improve routes, otherwise only those with a path over a stale link.
    let sources: Vec<usize> = if improving {
        (0..services.len()).filter(|&i| present[i]).collect()
    } else if stale_links.is_empty() {
        Vec::new()
    } else {
        (0..services.len())
            .filter(|&src| {
                rows[src]
                    .iter()
                    .flatten()
                    .any(|path| path.links.iter().any(is_stale))
            })
            .collect()
    };

    // Sources ascend and each row's destinations ascend, so this stays in
    // (src, dst) order.
    let mut changed_paths: Vec<(NodeId, NodeId)> = Vec::new();
    if !sources.is_empty() {
        let graph = TopologyGraph::new(working);
        // Re-derive the affected sources, in source order. A destination
        // whose tree path is the previous snapshot's link list, with none
        // of those links stale, is skipped before anything is built (see
        // the module docs).
        for &src in &sources {
            let current = &prev.rows[src];
            let row = source_row(working, &graph, services, &present, src, |dst, tree| {
                current[dst].as_ref().is_some_and(|old| {
                    !old.links.iter().any(is_stale) && tree.path_is(services[dst], &old.links)
                })
            });
            stats.recomputed_paths += row.unchanged;
            for (dst, fresh) in row.paths {
                match fresh {
                    Some(fresh) => {
                        stats.recomputed_paths += 1;
                        stats.built_paths += 1;
                        if current[dst].as_ref().is_some_and(|old| *old == fresh) {
                            continue;
                        }
                        if row_mut(&mut rows[src], stats)[dst].replace(fresh).is_none() {
                            pairs += 1;
                        }
                        changed_paths.push(pair(src, dst));
                    }
                    None => {
                        if rows[src][dst].is_some() {
                            row_mut(&mut rows[src], stats)[dst] = None;
                            pairs -= 1;
                            removed_paths.push(pair(src, dst));
                        }
                    }
                }
            }
        }
    }
    stats.shared_paths += pairs - changed_paths.len();
    removed_paths.sort();

    // The link table is copied only when a link came, went, or changed its
    // capacity or latency; a jitter or loss edit leaves it shared.
    let table_moved = changed_links
        .iter()
        .any(|id| match (before.get(id), after.get(id)) {
            (Some(old), Some(new)) => old.bandwidth != new.bandwidth || old.latency != new.latency,
            _ => true,
        });
    let links = if table_moved {
        Arc::new(LinkTable::of(working))
    } else {
        Arc::clone(&prev.links)
    };
    let snapshot = Arc::new(CollapsedTopology {
        services: Arc::clone(services),
        rows,
        pairs,
        links,
    });
    SnapshotDelta {
        at,
        events,
        changed_links,
        changed_paths,
        removed_paths,
        snapshot,
    }
}

/// The writable slots of a snapshot-in-progress row: the previous
/// snapshot's row is copied on the first write (counted in
/// [`TimelineStats::rows_copied`]); later writes of the same delta reuse
/// that copy, which nothing else holds yet.
fn row_mut<'a>(
    row: &'a mut Row,
    stats: &mut TimelineStats,
) -> &'a mut [Option<Arc<CollapsedPath>>] {
    if Arc::get_mut(row).is_none() {
        stats.rows_copied += 1;
    }
    Arc::make_mut(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::units::Bandwidth;
    use kollaps_topology::events::{DynamicAction, DynamicEvent, LinkChange};
    use kollaps_topology::generators;

    fn dumbbell() -> Topology {
        let (topo, _, _) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        topo
    }

    fn set_edge_latency(orig: &str, dest: &str, secs: u64, ms: u64) -> DynamicEvent {
        DynamicEvent {
            at: SimDuration::from_secs(secs),
            action: DynamicAction::SetLinkProperties {
                orig: orig.into(),
                dest: dest.into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(ms)),
                    ..LinkChange::default()
                },
            },
        }
    }

    #[test]
    fn empty_schedule_precomputes_only_the_initial_snapshot() {
        let topo = dumbbell();
        let timeline = SnapshotTimeline::precompute(&topo, &EventSchedule::new());
        assert!(timeline.is_empty());
        assert_eq!(timeline.initial().pair_count(), 6 * 5);
        assert_eq!(timeline.stats().events, 0);
    }

    #[test]
    fn edge_change_only_rederives_paths_over_that_edge() {
        let topo = dumbbell();
        let mut schedule = EventSchedule::new();
        // Degrade client-0's access link: only the 10 ordered pairs
        // touching client-0 can change; the other 20 must be shared.
        schedule.push(set_edge_latency("client-0", "bridge-left", 5, 40));
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        assert_eq!(timeline.len(), 1);
        let delta = &timeline.deltas()[0];
        let c0 = topo.node_by_name("client-0").unwrap();
        assert!(delta.changed_paths.iter().all(|&(s, d)| s == c0 || d == c0));
        assert!(delta.removed_paths.is_empty());
        assert_eq!(delta.changed_paths.len(), 10);
        assert_eq!(delta.swap_cost(), 10);
        // client-0's row and the one pair to client-0 of every other row:
        // six rows copied, each once.
        assert_eq!(timeline.stats().rows_copied, 6);
        // Structural sharing: an untouched pair is the same Arc.
        let c1 = topo.node_by_name("client-1").unwrap();
        let s1 = topo.node_by_name("server-1").unwrap();
        assert!(Arc::ptr_eq(
            timeline.initial().path_handle(c1, s1).unwrap(),
            delta.snapshot.path_handle(c1, s1).unwrap()
        ));
        // The changed pair is not shared, and carries the new latency.
        let s0 = topo.node_by_name("server-0").unwrap();
        assert!(!Arc::ptr_eq(
            timeline.initial().path_handle(c0, s0).unwrap(),
            delta.snapshot.path_handle(c0, s0).unwrap()
        ));
        assert_eq!(
            delta.snapshot.path(c0, s0).unwrap().latency,
            SimDuration::from_millis(40 + 10 + 1)
        );
    }

    /// Replays `schedule` online — a full re-collapse after every change
    /// time — and checks the timeline against it: equal snapshots, the
    /// `changed_paths` / `removed_paths` the two full snapshots imply, the
    /// previous snapshot's `Arc` for every pair outside `changed_paths`, and
    /// the previous snapshot's row for every source with no pair in either.
    /// Returns the timeline for the caller's counts.
    fn assert_matches_online_recollapse(
        topo: &Topology,
        schedule: &EventSchedule,
    ) -> SnapshotTimeline {
        let timeline = SnapshotTimeline::precompute(topo, schedule);
        assert_eq!(timeline.len(), schedule.change_times().len());
        let mut online = topo.clone();
        let mut reference = CollapsedTopology::build(topo);
        let mut prev = Arc::clone(timeline.initial());
        for delta in timeline.deltas() {
            for event in schedule.events_at(delta.at) {
                apply_action(&mut online, &event.action);
            }
            let before = reference.clone();
            reference = reference.rebuild_with_addresses(&online);
            let snapshot = &delta.snapshot;
            assert_eq!(snapshot.pair_count(), reference.pair_count());
            assert_eq!(snapshot.pair_count(), snapshot.paths().count());
            assert_eq!(snapshot.pair_count(), snapshot.path_handles().count());
            assert!(Arc::ptr_eq(&snapshot.services, &prev.services));
            for (number, &src) in snapshot.services.iter().enumerate() {
                let touched = delta
                    .changed_paths
                    .iter()
                    .chain(&delta.removed_paths)
                    .any(|&(s, _)| s == src);
                assert_eq!(
                    Arc::ptr_eq(&snapshot.rows[number], &prev.rows[number]),
                    !touched,
                    "row of {src} at {:?}",
                    delta.at
                );
            }
            let mut changed = Vec::new();
            for ((src, dst), path) in reference.path_handles() {
                let ours = delta
                    .snapshot
                    .path_handle(src, dst)
                    .unwrap_or_else(|| panic!("pair {src}->{dst} missing at {:?}", delta.at));
                assert_eq!(**ours, **path, "pair {src}->{dst} at {:?}", delta.at);
                if before.path(src, dst) != Some(path.as_ref()) {
                    changed.push((src, dst));
                } else {
                    assert!(
                        Arc::ptr_eq(ours, prev.path_handle(src, dst).unwrap()),
                        "unchanged pair {src}->{dst} not shared at {:?}",
                        delta.at
                    );
                }
            }
            let removed: Vec<(NodeId, NodeId)> = before
                .path_handles()
                .map(|(pair, _)| pair)
                .filter(|&(src, dst)| reference.path(src, dst).is_none())
                .collect();
            assert_eq!(delta.changed_paths, changed, "at {:?}", delta.at);
            assert_eq!(delta.removed_paths, removed, "at {:?}", delta.at);
            assert_eq!(
                delta.snapshot.link_capacities(),
                reference.link_capacities()
            );
            let (ours, theirs) = (delta.snapshot.link_table(), reference.link_table());
            assert!(ours.same_links(theirs), "links at {:?}", delta.at);
            assert_eq!(
                Arc::ptr_eq(ours, prev.link_table()),
                ours.same_links(prev.link_table()),
                "link table shared iff unchanged at {:?}",
                delta.at
            );
            prev = Arc::clone(&delta.snapshot);
        }
        timeline
    }

    fn event(secs: u64, action: DynamicAction) -> DynamicEvent {
        DynamicEvent {
            at: SimDuration::from_secs(secs),
            action,
        }
    }

    fn set_link(orig: &str, dest: &str, change: LinkChange) -> DynamicAction {
        DynamicAction::SetLinkProperties {
            orig: orig.into(),
            dest: dest.into(),
            change,
        }
    }

    fn leave(orig: &str, dest: &str) -> DynamicAction {
        DynamicAction::LinkLeave {
            orig: orig.into(),
            dest: dest.into(),
        }
    }

    fn join(orig: &str, dest: &str, ms: u64) -> DynamicAction {
        DynamicAction::LinkJoin {
            orig: orig.into(),
            dest: dest.into(),
            change: LinkChange {
                latency: Some(SimDuration::from_millis(ms)),
                up: Some(Bandwidth::from_mbps(100)),
                down: Some(Bandwidth::from_mbps(100)),
                ..LinkChange::default()
            },
        }
    }

    #[test]
    fn snapshots_match_the_online_full_rebuild() {
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("client-0", "bridge-left", 2, 40));
        schedule.push(event(4, leave("client-1", "bridge-left")));
        schedule.push(event(6, join("client-1", "bridge-left", 1)));
        schedule.push(event(
            8,
            DynamicAction::NodeLeave {
                name: "server-2".into(),
            },
        ));
        assert_matches_online_recollapse(&dumbbell(), &schedule);
    }

    /// A delta shares its parent's link table unless it moves a link's
    /// capacity or latency (or adds or removes a link); the allocator's memo
    /// keys on that identity.
    #[test]
    fn a_delta_copies_the_link_table_only_when_a_link_changes() {
        let mut schedule = EventSchedule::new();
        let jitter = LinkChange {
            jitter: Some(SimDuration::from_millis(2)),
            loss: Some(0.01),
            ..LinkChange::default()
        };
        schedule.push(event(1, set_link("client-0", "bridge-left", jitter)));
        schedule.push(set_edge_latency("client-0", "bridge-left", 2, 40));
        schedule.push(event(3, leave("client-1", "bridge-left")));
        let timeline = assert_matches_online_recollapse(&dumbbell(), &schedule);
        let tables: Vec<&Arc<LinkTable>> = std::iter::once(timeline.initial())
            .chain(timeline.deltas().iter().map(|d| &d.snapshot))
            .map(|snapshot| snapshot.link_table())
            .collect();
        // The jitter and loss edit changes paths but no table column.
        assert!(!timeline.deltas()[0].changed_paths.is_empty());
        assert!(Arc::ptr_eq(tables[1], tables[0]));
        // A latency change copies it, with the new latency in place.
        assert!(!Arc::ptr_eq(tables[2], tables[1]));
        assert_eq!(tables[2].ids(), tables[1].ids());
        let moved: Vec<usize> = (0..tables[1].len())
            .filter(|&slot| tables[2].latency(slot) != tables[1].latency(slot))
            .collect();
        // Both directions of the edge.
        assert_eq!(moved.len(), 2);
        for slot in moved {
            assert_eq!(tables[2].latency(slot), SimDuration::from_millis(40));
        }
        // A link that leaves is gone from the copy.
        assert!(!Arc::ptr_eq(tables[3], tables[2]));
        assert!(tables[3].len() < tables[2].len());
    }

    /// A ring of four bridges with a service on each, every ring link 5 ms:
    /// opposite corners have two equal routes, so which one a snapshot
    /// holds is decided by the tie-break alone.
    fn ring() -> Topology {
        let mut t = Topology::new();
        let services: Vec<NodeId> = (0..4)
            .map(|i| t.add_service(&format!("h{i}"), 0, "img"))
            .collect();
        let bridges: Vec<NodeId> = (0..4).map(|i| t.add_bridge(&format!("s{i}"))).collect();
        let ring = LinkProperties::new(SimDuration::from_millis(5), Bandwidth::from_mbps(50));
        let access = LinkProperties::new(SimDuration::from_millis(1), Bandwidth::from_mbps(100));
        for i in 0..4 {
            t.add_bidirectional_link(services[i], bridges[i], access, "net");
            t.add_bidirectional_link(bridges[i], bridges[(i + 1) % 4], ring, "net");
        }
        t
    }

    /// The cases the "same links, none stale" shortcut could get wrong, on
    /// the dumbbell (every cross pair rides the trunk) and on the ring
    /// (routes move and tie).
    #[test]
    fn shortcut_cases_match_the_online_full_rebuild() {
        // Bandwidth / loss / jitter-only edits on the link most routes
        // cross: the link lists stay, the values must not.
        let mut trunk_edits = EventSchedule::new();
        for (secs, change) in [
            (
                1,
                LinkChange {
                    loss: Some(0.02),
                    ..LinkChange::default()
                },
            ),
            (
                2,
                LinkChange {
                    jitter: Some(SimDuration::from_millis(3)),
                    ..LinkChange::default()
                },
            ),
            (
                3,
                LinkChange {
                    up: Some(Bandwidth::from_mbps(200)),
                    down: Some(Bandwidth::from_mbps(20)),
                    ..LinkChange::default()
                },
            ),
            // Raising a capacity that is not the bottleneck re-parameterises
            // the link but leaves every collapsed value as it was: built,
            // compared equal, still shared.
            (
                4,
                LinkChange {
                    up: Some(Bandwidth::from_mbps(300)),
                    ..LinkChange::default()
                },
            ),
        ] {
            trunk_edits.push(event(secs, set_link("bridge-left", "bridge-right", change)));
        }
        let timeline = assert_matches_online_recollapse(&dumbbell(), &trunk_edits);
        assert!(timeline.deltas()[3].changed_paths.is_empty());
        // Groups 1–3 make both trunk directions stale: all 6 sources are
        // re-derived (30 pairs) and the 18 cross pairs built; each source
        // row changes, so 6 rows are copied. Group 4 makes one direction
        // stale: 3 sources, 15 pairs, 9 built, nothing changed — no row is
        // copied.
        assert_eq!(timeline.stats().recomputed_paths, 3 * 30 + 15);
        assert_eq!(timeline.stats().built_paths, 3 * 18 + 9);
        assert_eq!(timeline.stats().rows_copied, 3 * 6);

        // A latency increase that leaves every route's links the same (the
        // dumbbell has no detour), then one that moves routes (the ring).
        let mut increases = EventSchedule::new();
        increases.push(set_edge_latency("bridge-left", "bridge-right", 1, 25));
        assert_matches_online_recollapse(&dumbbell(), &increases);
        let mut detour = EventSchedule::new();
        detour.push(set_edge_latency("s0", "s1", 1, 6));
        detour.push(set_edge_latency("s0", "s1", 2, 30));
        assert_matches_online_recollapse(&ring(), &detour);

        // A flap down-then-up inside one change group: same properties, new
        // link ids, so every route over it changes and nothing else does.
        let mut flap = EventSchedule::new();
        flap.push(event(1, leave("s1", "s2")));
        flap.push(event(1, join("s1", "s2", 5)));
        assert_matches_online_recollapse(&ring(), &flap);
        let mut access_flap = EventSchedule::new();
        access_flap.push(event(1, leave("client-1", "bridge-left")));
        access_flap.push(event(1, join("client-1", "bridge-left", 1)));
        assert_matches_online_recollapse(&dumbbell(), &access_flap);

        // One group that removes a link and improves another.
        let mut mixed = EventSchedule::new();
        mixed.push(event(1, leave("s0", "s1")));
        mixed.push(set_edge_latency("s2", "s3", 1, 2));
        mixed.push(event(2, join("s0", "s1", 5)));
        mixed.push(set_edge_latency("s2", "s3", 2, 9));
        assert_matches_online_recollapse(&ring(), &mixed);
    }

    /// The extension invariant: extending an existing timeline with extra
    /// events yields exactly the deltas a from-scratch precompute of the
    /// merged schedule would, while keeping every delta before the earliest
    /// new event untouched (same `Arc`s, same indices).
    #[test]
    fn extend_matches_a_from_scratch_precompute() {
        let topo = dumbbell();
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("client-0", "bridge-left", 2, 40));
        schedule.push(set_edge_latency("client-1", "bridge-left", 6, 25));
        let mut timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let first_snapshot = Arc::clone(&timeline.deltas()[0].snapshot);

        // Append-only extension (after the last delta) plus a mid-schedule
        // injection (between the two existing deltas) in one call.
        let mut extra = EventSchedule::new();
        extra.push(set_edge_latency("server-0", "bridge-right", 4, 33));
        extra.push(set_edge_latency("client-2", "bridge-left", 9, 50));
        let derived = timeline.extend(&extra);
        // The t=2 delta is before the cut (t=4) and survives; t=4, t=6 and
        // t=9 are (re-)derived.
        assert_eq!(derived, 3);
        assert_eq!(timeline.len(), 4);
        assert!(Arc::ptr_eq(&timeline.deltas()[0].snapshot, &first_snapshot));
        assert_eq!(timeline.stats().extensions, 1);

        let mut merged = schedule.clone();
        merged.merge(&extra);
        let reference = SnapshotTimeline::precompute(&topo, &merged);
        assert_eq!(timeline.len(), reference.len());
        for (ours, theirs) in timeline.deltas().iter().zip(reference.deltas()) {
            assert_eq!(ours.at, theirs.at);
            assert_eq!(ours.changed_paths, theirs.changed_paths);
            assert_eq!(ours.removed_paths, theirs.removed_paths);
            assert_eq!(ours.snapshot.pair_count(), theirs.snapshot.pair_count());
            for ((src, dst), path) in theirs.snapshot.path_handles() {
                assert_eq!(
                    **ours.snapshot.path_handle(src, dst).unwrap(),
                    **path,
                    "pair {src}->{dst} at {:?}",
                    ours.at
                );
            }
        }
    }

    #[test]
    fn topology_at_replays_the_schedule() {
        let topo = dumbbell();
        let mut schedule = EventSchedule::new();
        schedule.push(DynamicEvent {
            at: SimDuration::from_secs(3),
            action: DynamicAction::NodeLeave {
                name: "client-2".into(),
            },
        });
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        assert!(timeline
            .topology_at(SimDuration::from_secs(2))
            .node_by_name("client-2")
            .is_some());
        assert!(timeline
            .topology_at(SimDuration::from_secs(3))
            .node_by_name("client-2")
            .is_none());
    }

    #[test]
    fn node_leave_removes_every_pair_of_that_service() {
        let topo = dumbbell();
        let mut schedule = EventSchedule::new();
        schedule.push(DynamicEvent {
            at: SimDuration::from_secs(1),
            action: DynamicAction::NodeLeave {
                name: "client-2".into(),
            },
        });
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let delta = &timeline.deltas()[0];
        let c2 = topo.node_by_name("client-2").unwrap();
        assert_eq!(delta.removed_paths.len(), 10);
        assert!(delta.removed_paths.iter().all(|&(s, d)| s == c2 || d == c2));
        assert!(delta.snapshot.path(c2, c2).is_none());
        // client-2's own row and the five rows holding a pair to it.
        assert_eq!(timeline.stats().rows_copied, 6);
        // The address assignment survives (containers keep their IP), and
        // client-2's row and column hold no path.
        let addr = timeline.initial().address_of(c2).unwrap();
        assert_eq!(delta.snapshot.address_of(c2), Some(addr));
        assert_eq!(delta.snapshot.service_at(addr), Some(c2));
        let number = delta.snapshot.services.binary_search(&c2).unwrap();
        assert!(delta.snapshot.rows[number].iter().all(Option::is_none));
        assert!(delta.snapshot.rows.iter().all(|row| row[number].is_none()));
        for (other, _) in delta.snapshot.addresses() {
            assert!(delta.snapshot.path(c2, other).is_none());
            assert!(delta.snapshot.path(other, c2).is_none());
        }
    }
}
