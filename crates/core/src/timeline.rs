//! The precomputed snapshot timeline: offline dynamics, delta-encoded.
//!
//! The paper's dynamics claim (§3, Listing 2) is that Kollaps knows the
//! whole event schedule up front and therefore pre-computes the sequence of
//! collapsed topology snapshots **offline**, so that sub-second dynamic
//! events are enforced at runtime without recomputation. This module is that
//! engine: [`SnapshotTimeline::precompute`] turns a topology plus an
//! [`EventSchedule`] into one [`CollapsedTopology`] per change time, where
//!
//! * consecutive snapshots **structurally share** the service table, the
//!   initial snapshot's base parent arrays, every link table no value of
//!   which moved and the overlay of every shortest-path tree that did not
//!   move, behind [`Arc`]s (see `crate::collapse`): a snapshot starts as
//!   one pointer bump per tree — one per switch its services hang off, and
//!   one per service that is no leaf — and a change writes only the tree
//!   entries it moved ([`TimelineStats::tree_entries_written`]), so a
//!   snapshot costs `trees × 16 B` plus 12 B per overlay entry, not
//!   `O(services²)`; and
//! * each snapshot carries a [`SnapshotDelta`] — exactly the service pairs
//!   whose end-to-end path changed or disappeared — so runtime application
//!   touches only the affected qdisc chains and never runs an all-pairs
//!   shortest-path computation inside the emulation loop.
//!
//! # What a change group costs
//!
//! The fold keeps the snapshot's shortest-path trees as working state —
//! `(cost, hops)` and the link every node is reached over — one per root
//! and one per service that is no leaf, not one per service (see
//! `crate::collapse`), seeded from the initial collapse's own searches and
//! dropped when the fold returns. A change group costs what it moves (the
//! insertion/deletion split of dynamic shortest paths, Ramalingam & Reps
//! 1996):
//!
//! * **Which links.** The fold keeps one [`TopologyGraph`] of the working
//!   topology and edits it in place: a group drops the links it removed,
//!   inserts the ones it added at their ascending-id place (so the edited
//!   graph relaxes links exactly as a fresh one would) and rewrites the
//!   latency of the ones it moved — one shift of the link arrays per edit,
//!   no sort and no rebuild. Its link diff reads only the links its events
//!   name: those between a link event's two nodes and those entering or
//!   leaving a node a `NodeLeave` removes, before and after the group, and
//!   the links it added. A node event is a change to links like any
//!   other: the node set only grows, so every tree stays indexed like the
//!   graph. A node that leaves stays as an index without links, which no
//!   tie-break reaches; a bridge that joins is appended, behind every
//!   index, as node ids are never reused, and a tree is padded with it,
//!   unreached, when it is next repaired. The graph's node ids are one
//!   `Arc` shared with every tree, so a tree checks it is on its graph by
//!   pointer.
//! * **Which trees.** Every service's source is read off the edited
//!   graph after each group. A leaf that gains or loses out-links — a flap
//!   of its one link, a `LinkJoin` at it, its root leaving — switches
//!   between its own tree and its root's, or to none; a tree no source
//!   reads any more is dropped, and one a source needs that none read
//!   before is searched ([`TimelineStats::trees_searched`]). A kept tree
//!   is re-derived only when a removed, lengthened or otherwise
//!   re-parameterised link is one of its tree links, or a new or shortened
//!   link `u → v` is tight or better for it, `best(u) + (latency, 1) ≤
//!   best(v)`. Every other tree keeps its previous overlay `Arc`: none of
//!   its paths can have moved, and neither can the tree.
//! * **Repair, not recompute.** A removed or lengthened tree link resets
//!   only the subtree below it, which is re-settled from its unaffected
//!   in-neighbours; a tight new or shorter link runs a decrease-only search
//!   from its head. A tree that sees both in one group is searched again
//!   from scratch. Every link the repair touches is re-picked by the
//!   tie-break contract's closed form (see
//!   [`kollaps_topology::graph`]), which is exactly what the full search
//!   of [`kollaps_topology::graph::TopologyGraph::shortest_path_tree`]
//!   picks, so a kept tree always equals a fresh one. The repairs work in
//!   one [`TreeScratch`] the fold keeps, so they allocate nothing once it
//!   has grown.
//! * **Which entries.** The repair reports the tree entries it moved, and
//!   only those are rewritten in the tree's overlay — relative to the
//!   base, so an entry back at its base value is dropped and the overlay
//!   never holds more than the tree's difference from the base
//!   ([`TimelineStats::tree_entries_written`]).
//! * **Which destinations.** Each `(root, destination)` path is compared
//!   once, and only for a destination whose path passes a node whose link
//!   moved, or crosses a link the group edited
//!   ([`TimelineStats::pairs_compared`]). The repair lists those nodes by
//!   walking down the tree from the moved entries and from the heads of
//!   the edited tree links, so finding them costs the subtrees below
//!   those, not the tree. The comparison allocates nothing: the old and the
//!   new parent chains are walked in lockstep.
//! * **The fan-out.** The verdict goes to every source that reads the
//!   tree, in `(src, dst)` order. A leaf `s` of root `b` whose one link `L`
//!   the group did not touch has the path `L` then `b`'s, so `(s, d)` is
//!   changed, gained or lost exactly when `(b, d)` is. A path whose links
//!   are the same before and after is composed over the old and the new
//!   link tables — behind `L` for a leaf, since `L`'s values can mask or
//!   round away a change of `b`'s — and is changed when the values differ.
//!   That is exact: a collapsed path is a pure function of `(src, dst)`,
//!   its link ids in order and those links' values. A source that switched
//!   trees, and a leaf whose `L` the group touched, compare every
//!   destination instead.
//! * **Which link values.** The group's link table is the previous one
//!   patched with the links the group changed: one merge, no sort and no
//!   read of the topology.
//!
//! Every snapshot shares the initial snapshot's base; a service that
//! leaves keeps its number, reads no tree and reaches nothing, and writes
//! no tree entry of its own. [`SnapshotTimeline::extend`] starts its
//! working state from the snapshot it resumes from: one graph of the
//! topology as of its cut over the snapshot's node ids (departed nodes
//! included), the parents of the trees its sources read, and
//! [`TopologyGraph::tree_from_parents`] re-adding the costs.
//!
//! The equality of timeline snapshots with a full online re-collapse is
//! pinned by the tests below, including a seeded tie-heavy differential
//! that also checks every kept tree against a fresh search after every
//! group (and, like every test's replay, the edited graph against a fresh
//! one and the named-links diff against a full one), and by property
//! tests over generated topologies and random schedules.

use std::sync::Arc;

use kollaps_sim::time::SimDuration;
use kollaps_topology::events::{
    apply_action, nodes_named, DynamicAction, DynamicEvent, EventSchedule,
};
use kollaps_topology::graph::{
    links_back, LinkEdit, LinkEditKind, ShortestPathTree, TopologyGraph, TreeScratch, Via,
};
use kollaps_topology::model::{LinkId, LinkProperties, LinkSpec, NodeId, Topology};

use crate::collapse::{CollapsedTopology, LinkTable, Source, NO_NODE};

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
    /// just became reachable), sorted by `(src, dst)`: a manager finds its
    /// own sources' runs by binary search.
    pub changed_paths: Vec<(NodeId, NodeId)>,
    /// The pairs of `changed_paths` that had no path in the previous
    /// snapshot, sorted by `(src, dst)` like it.
    pub gained_paths: Vec<(NodeId, NodeId)>,
    /// Service pairs that lost their collapsed path (unreachable or an
    /// endpoint left), sorted by `(src, dst)` like `changed_paths`.
    pub removed_paths: Vec<(NodeId, NodeId)>,
    /// The full snapshot after the change; the overlay of every source
    /// whose tree did not move is the same `Arc` as in the previous
    /// snapshot.
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
    /// Pairs re-derived across all deltas (the offline work): a re-derived
    /// source — one whose tree a group touches, or that switched trees, see
    /// the module docs — counts each destination it reaches, whether or
    /// not it is compared.
    pub recomputed_paths: usize,
    /// Paths walked or composed to decide whether they changed (the
    /// initial snapshot not counted): a tree root's path to a destination
    /// whose tree path moved or crosses a changed link, once per tree; a
    /// leaf's path over the same links as before, composed behind its one
    /// link; and every destination of a source that switched trees or whose
    /// one link moved.
    pub pairs_compared: usize,
    /// Shortest-path trees searched from scratch: one per root and per
    /// service that is no leaf in the initial snapshot (see
    /// `crate::collapse`), one per tree a later group needs that no source
    /// read before, and one per repair that falls back to a full search.
    pub trees_searched: usize,
    /// Shortest-path tree nodes settled while re-deriving (the initial
    /// snapshot not counted): the nodes a repair re-settles, or every node
    /// a full search reaches. It grows by `reached × sources` per group if
    /// the fold ever searches every tree from scratch again.
    pub nodes_settled: usize,
    /// Overlay entries written across all deltas: one per tree entry a
    /// change moved. A tree that did not move keeps the previous snapshot's
    /// overlay `Arc` and writes none, and a service that leaves or loses
    /// its out-links writes none at all.
    pub tree_entries_written: usize,
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

/// Called after every change group of a fold with the topology and the
/// graph after it, the group's link diff, the kept trees, in tree order,
/// and the snapshot's link table.
type Inspect<'a> = &'a mut dyn FnMut(
    &Topology,
    &TopologyGraph,
    &LinkDiff,
    &[Option<ShortestPathTree>],
    &LinkTable,
);

impl SnapshotTimeline {
    /// Precomputes the snapshot at every change time of `schedule` applied
    /// to `topology`. Runs offline (before the experiment starts); the
    /// runtime then only swaps `Arc`s and touches the delta'd chains.
    pub fn precompute(topology: &Topology, schedule: &EventSchedule) -> Self {
        SnapshotTimeline::precompute_inspected(topology, schedule, &mut |_, _, _, _, _| {})
    }

    /// [`SnapshotTimeline::precompute`], handing the fold's state to
    /// `inspect` after every change group.
    fn precompute_inspected(
        topology: &Topology,
        schedule: &EventSchedule,
        inspect: Inspect<'_>,
    ) -> Self {
        // kollaps-analyze: allow(wall-clock) -- precompute-time diagnostic (stats.precompute_micros); never read by the emulation
        let started = std::time::Instant::now();
        let (initial, graph, trees) = CollapsedTopology::build_keeping_trees(topology);
        let initial = Arc::new(initial);
        let mut stats = TimelineStats {
            initial_pairs: initial.pair_count(),
            trees_searched: trees.len(),
            ..TimelineStats::default()
        };
        let mut working = topology.clone();
        let mut fold = Fold::new(&mut working, graph, Arc::clone(&initial), trees, &mut stats);
        let mut deltas = Vec::new();
        fold.run(schedule.events(), &mut deltas, inspect);
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
    /// this appends without re-deriving a single old path. No tree is kept
    /// between calls: the working trees — those a source of the snapshot
    /// the call resumes from reads — are rebuilt from its parents, without
    /// a search.
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
        // The working trees start as the snapshot's own, those a source
        // reads: their parents, with the costs re-added over the graph they
        // were derived on, which keeps every node the timeline had before
        // the cut.
        let graph = TopologyGraph::with_nodes(&working, &prev.nodes);
        let mut trees: Vec<Option<ShortestPathTree>> = vec![None; prev.roots.len()];
        for tree in prev.sources.iter().filter_map(|source| source.tree()) {
            if trees[tree].is_none() {
                let root = prev.nodes[prev.roots[tree] as usize];
                trees[tree] = Some(graph.tree_from_parents(root, prev.tree_parents(tree)));
            }
        }
        let mut fold = Fold::new(&mut working, graph, prev, trees, &mut self.stats);
        fold.run(&events[resume..], &mut self.deltas, &mut |_, _, _, _, _| {});
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

/// A link as a change group found it: id, tail, head and properties.
type LinkState = (LinkId, NodeId, NodeId, LinkProperties);

/// A link a change group added, removed or re-parameterised: id, tail,
/// head, and its properties before and after the group (`None` where it
/// did not exist).
type Touched = (
    LinkId,
    NodeId,
    NodeId,
    Option<LinkProperties>,
    Option<LinkProperties>,
);

fn state(link: &LinkSpec) -> LinkState {
    (link.id, link.from, link.to, link.properties)
}

/// What one change group did to the links.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct LinkDiff {
    /// Every link removed, added or re-parameterised, ascending.
    changed: Vec<LinkId>,
    /// Every changed link as the tree repair sees it, ascending by id.
    edits: Vec<LinkEdit>,
}

impl LinkDiff {
    /// The diff of the links a group `touched`, ascending by id.
    fn of(touched: &[Touched]) -> Self {
        let mut diff = LinkDiff::default();
        for &(id, from, to, was, now) in touched {
            let kind = match (was, now) {
                (Some(was), Some(now)) if now.latency > was.latency => LinkEditKind::Worse,
                (Some(was), Some(now)) if now.latency == was.latency => {
                    LinkEditKind::Reparameterised
                }
                (_, Some(now)) => LinkEditKind::Better {
                    latency: now.latency,
                },
                (_, None) => LinkEditKind::Worse,
            };
            diff.changed.push(id);
            diff.edits.push(LinkEdit { id, from, to, kind });
        }
        diff
    }
}

/// The state a run of change groups is folded with: the shared core of
/// [`SnapshotTimeline::precompute`] and [`SnapshotTimeline::extend`].
struct Fold<'a> {
    /// The topology as of the last folded group.
    working: &'a mut Topology,
    /// The graph of `working`, edited in place by every group, over every
    /// node the fold has seen: a node that left stays without links.
    graph: TopologyGraph,
    /// The snapshot after the last folded group.
    prev: Arc<CollapsedTopology>,
    /// One shortest-path tree per tree of `prev`, over `graph` and repaired
    /// with it: `Some` exactly for the trees some source of `prev` reads.
    /// Its parents are `prev`'s, base plus overlay.
    trees: Vec<Option<ShortestPathTree>>,
    /// Per node index, the tree searched from it; [`NO_NODE`] for none.
    tree_at: Vec<u32>,
    /// Per source number, the destinations it reaches in `prev`.
    reach: Vec<usize>,
    /// The buffers every repair works in.
    scratch: TreeScratch,
    /// The links the group's events name, as they were before it.
    named: Vec<LinkState>,
    /// The links the group changed.
    touched: Vec<Touched>,
    /// Per source number, the tree it reads after the group.
    sources: Vec<Source>,
    /// Per tree, whether a source reads it after the group.
    read: Vec<bool>,
    /// The destinations whose path from a repaired tree's root may have
    /// moved, with what happened to it, tree after tree.
    verdicts: Vec<(u32, Verdict)>,
    /// Per tree, its run of `verdicts`; `None` for a tree the group did
    /// not repair.
    runs: Vec<Option<(u32, u32)>>,
    /// The links of every [`Verdict::SameLinks`] of `verdicts`, source
    /// first, back to back.
    walks: Vec<LinkId>,
    /// The links of the pair being compared or composed.
    walked: Vec<LinkId>,
    /// The overlay being written.
    entries: Vec<(u32, Via)>,
    stats: &'a mut TimelineStats,
}

impl<'a> Fold<'a> {
    /// A fold that resumes from `prev`, the snapshot of `working`, with
    /// `graph`, the graph of `working`, and `trees`, searched over it in
    /// `prev`'s tree order (`Some` for every tree a source reads), as its
    /// working state.
    fn new(
        working: &'a mut Topology,
        graph: TopologyGraph,
        prev: Arc<CollapsedTopology>,
        trees: Vec<Option<ShortestPathTree>>,
        stats: &'a mut TimelineStats,
    ) -> Self {
        let mut tree_at = vec![NO_NODE; graph.nodes().len()];
        for (tree, &root) in prev.roots.iter().enumerate() {
            tree_at[root as usize] = tree as u32;
        }
        Fold {
            working,
            graph,
            reach: prev.reach(),
            prev,
            trees,
            tree_at,
            scratch: TreeScratch::default(),
            named: Vec::new(),
            touched: Vec::new(),
            sources: Vec::new(),
            read: Vec::new(),
            verdicts: Vec::new(),
            runs: Vec::new(),
            walks: Vec::new(),
            walked: Vec::new(),
            entries: Vec::new(),
            stats,
        }
    }

    /// Folds a sorted run of events into `deltas`: groups them by change
    /// time, applies each group to the working topology and its graph and
    /// derives one structurally-shared snapshot per group. No event is
    /// cloned.
    fn run(
        &mut self,
        events: &[DynamicEvent],
        deltas: &mut Vec<SnapshotDelta>,
        inspect: Inspect<'_>,
    ) {
        let mut i = 0;
        while i < events.len() {
            let at = events[i].at;
            let mut j = i;
            while j < events.len() && events[j].at == at {
                j += 1;
            }
            let group = &events[i..j];
            self.apply(group);
            // Only a latency matters to the graph.
            for &(id, from, to, was, now) in &self.touched {
                let latency = now.map(|link| link.latency);
                if was.map(|link| link.latency) != latency {
                    self.graph.set_link(id, from, to, latency);
                }
            }
            let delta = self.derive(LinkDiff::of(&self.touched), at, group.len(), inspect);
            self.prev = Arc::clone(&delta.snapshot);
            deltas.push(delta);
            i = j;
        }
    }

    /// Applies a group to the working topology and appends the bridges it
    /// joined to the graph, and lists in `touched` the links it changed,
    /// reading only the links its events name: as they were before the
    /// group, those between a link event's two nodes and those at a node a
    /// `NodeLeave` removes; and the links it added, the topology's last.
    fn apply(&mut self, group: &[DynamicEvent]) {
        let working = &mut *self.working;
        let graph = &self.graph;
        self.named.clear();
        let mut names_a_node = false;
        // The graph holds exactly the topology's links.
        for event in group {
            match &event.action {
                DynamicAction::SetLinkProperties { orig, dest, .. }
                | DynamicAction::LinkJoin { orig, dest, .. }
                | DynamicAction::LinkLeave { orig, dest } => {
                    let (Some(a), Some(b)) =
                        (working.node_by_name(orig), working.node_by_name(dest))
                    else {
                        continue;
                    };
                    for (from, to) in [(a, b), (b, a)] {
                        let between = graph.links_between(from, to);
                        self.named
                            .extend(between.filter_map(|id| working.link(id).map(state)));
                    }
                }
                DynamicAction::NodeLeave { name } => {
                    names_a_node = true;
                    for node in nodes_named(working, name) {
                        let at = graph.links_at(node);
                        self.named
                            .extend(at.filter_map(|id| working.link(id).map(state)));
                    }
                }
                DynamicAction::NodeJoin { .. } => names_a_node = true,
            }
        }
        self.named.sort_unstable_by_key(|link| link.0);
        self.named.dedup_by_key(|link| link.0);
        // Link ids are never reused: a link the group added has a larger
        // id than every link before it.
        let last = working.links().last().map(|link| link.id);
        for event in group {
            apply_action(working, &event.action);
        }
        if names_a_node {
            self.graph.add_nodes(working);
        }
        self.touched.clear();
        for &(id, from, to, was) in &self.named {
            let now = working.link(id).map(|link| link.properties);
            if now != Some(was) {
                self.touched.push((id, from, to, Some(was), now));
            }
        }
        let links = working.links();
        let added = &links[links.partition_point(|link| Some(link.id) <= last)..];
        self.touched.extend(
            added
                .iter()
                .map(|link| (link.id, link.from, link.to, None, Some(link.properties))),
        );
    }

    /// Builds the snapshot after one change group, in three steps. Every
    /// service's [`Source`] is read off the edited graph: a service that
    /// gains or loses out-links switches between its own tree and its
    /// root's, and a tree no source reads any more is dropped. Every tree a
    /// source reads is repaired (or, new, searched), its root's paths that
    /// may have moved are compared, and its overlay is rewritten where it
    /// moved. Then each source takes its tree's verdicts — a leaf adds its
    /// one link — in (src, dst) order; a source that switched, or whose one
    /// link the group touched, compares every destination instead. Every
    /// other overlay, and every link table no value of which moved, is the
    /// previous snapshot's. Hands the graph, the diff, the trees and the
    /// link table to `inspect` at the end.
    fn derive(
        &mut self,
        diff: LinkDiff,
        at: SimDuration,
        events: usize,
        inspect: Inspect<'_>,
    ) -> SnapshotDelta {
        let prev = Arc::clone(&self.prev);
        // The initial snapshot's service table covers every later one:
        // services can only leave (`NodeJoin` adds bridges).
        debug_assert!(
            self.working
                .service_ids()
                .iter()
                .all(|id| prev.services.binary_search(id).is_ok()),
            "a service joined the topology after the initial snapshot"
        );
        // The link table is patched only when a value it holds moved (or a
        // link came or went): every changed link did one of these.
        let links = if diff.changed.is_empty() {
            Arc::clone(&prev.links)
        } else {
            let changes = self.touched.iter().map(|&(id, _, _, _, now)| (id, now));
            Arc::new(prev.links.patched(changes))
        };
        let base = &prev.base;
        let mut next = CollapsedTopology {
            services: Arc::clone(&prev.services),
            nodes: Arc::clone(self.graph.nodes()),
            base: Arc::clone(base),
            sources: Arc::clone(&prev.sources),
            roots: Arc::clone(&prev.roots),
            overlays: prev.overlays.clone(),
            pairs: prev.pairs,
            links,
        };
        self.read_sources(&mut next);
        let mut pairs = Pairs::default();
        self.repair_trees(&prev, &mut next, &diff);
        self.fan_out(&prev, &next, &diff, &mut pairs);
        next.pairs = (next.pairs + pairs.gained.len()) - pairs.removed.len();
        inspect(self.working, &self.graph, &diff, &self.trees, &next.links);
        SnapshotDelta {
            at,
            events,
            changed_links: diff.changed,
            changed_paths: pairs.changed,
            gained_paths: pairs.gained,
            removed_paths: pairs.removed,
            snapshot: Arc::new(next),
        }
    }

    /// Reads every service's [`Source`] off the edited graph into
    /// `next.sources` (shared with the previous snapshot's when none
    /// moved), numbering a tree for a root that has none yet, and marks in
    /// `read` the trees a source reads.
    fn read_sources(&mut self, next: &mut CollapsedTopology) {
        let Fold {
            graph,
            trees,
            tree_at,
            sources,
            read,
            ..
        } = self;
        tree_at.resize(graph.nodes().len(), NO_NODE);
        let mut roots: Option<Vec<u32>> = None;
        sources.clear();
        for &at in &next.base.at {
            sources.push(Source::new(Source::attachment(graph, at), |root| {
                let tree = &mut tree_at[root as usize];
                if *tree == NO_NODE {
                    let roots = roots.get_or_insert_with(|| next.roots.to_vec());
                    *tree = roots.len() as u32;
                    roots.push(root);
                    trees.push(None);
                    next.overlays.push(None);
                }
                *tree
            }));
        }
        if let Some(roots) = roots {
            next.roots = roots.into();
        }
        if *sources != *next.sources {
            next.sources = Arc::from(&sources[..]);
        }
        read.clear();
        read.resize(next.roots.len(), false);
        for tree in sources.iter().filter_map(|source| source.tree()) {
            read[tree] = true;
        }
    }

    /// Brings every tree a source of `next` reads onto the edited graph —
    /// repairing a kept one, searching a new one — and drops every other.
    /// Lists the verdicts of each repaired tree's root and rewrites the
    /// overlay of every tree that moved, relative to the base.
    fn repair_trees(
        &mut self,
        prev: &CollapsedTopology,
        next: &mut CollapsedTopology,
        diff: &LinkDiff,
    ) {
        let Fold {
            graph,
            trees,
            scratch,
            read,
            verdicts,
            runs,
            walks,
            entries,
            stats,
            ..
        } = self;
        let base = &prev.base;
        let shared_links = Arc::ptr_eq(&prev.links, &next.links);
        verdicts.clear();
        walks.clear();
        runs.clear();
        for (tree, slot) in trees.iter_mut().enumerate() {
            runs.push(None);
            if !read[tree] {
                *slot = None;
                continue;
            }
            let root = next.roots[tree];
            let fresh: Vec<u32>;
            let (parents, moved) = match slot {
                Some(kept) => {
                    let Some(update) = kept.update(graph, &diff.edits, scratch) else {
                        continue;
                    };
                    stats.nodes_settled += update.settled;
                    stats.trees_searched += usize::from(update.searched);
                    let parents = kept.parents();
                    let start = verdicts.len() as u32;
                    // Node indices ascend like service numbers: each run
                    // stays in destination order.
                    for &node in update.changed() {
                        let dst = base.number(node);
                        if dst == NO_NODE {
                            continue;
                        }
                        let old = prev.tree_back(tree, node);
                        let new =
                            links_back(|node| parents[node as usize], parents.len(), root, node);
                        match Verdict::of(old, new, walks, stats) {
                            Some(Verdict::SameLinks(from, _)) if shared_links => {
                                walks.truncate(from as usize)
                            }
                            Some(verdict) => verdicts.push((dst, verdict)),
                            None => {}
                        }
                    }
                    runs[tree] = Some((start, verdicts.len() as u32));
                    (parents, update.moved())
                }
                None => {
                    // A tree no source read before: only sources that
                    // switched read it, and they compare every destination.
                    // Its entries moved where they differ from what the
                    // previous snapshot holds for it, stale or unreached.
                    let searched = graph.shortest_path_tree(graph.nodes()[root as usize]);
                    stats.trees_searched += 1;
                    stats.nodes_settled += searched.reached();
                    let was = |node: u32| match prev.overlays.get(tree) {
                        Some(_) => prev.tree_parent(tree, node),
                        None => Via::NONE,
                    };
                    let parents = slot.insert(searched).parents();
                    fresh = (0..parents.len() as u32)
                        .filter(|&node| parents[node as usize] != was(node))
                        .collect();
                    (parents, &fresh[..])
                }
            };
            if moved.is_empty() {
                continue;
            }
            // The overlay is rewritten at the moved entries only, relative
            // to the base: an entry where the tree now differs from it, none
            // where the tree is back to it.
            stats.tree_entries_written += moved.len();
            let old = next.overlays[tree].as_deref().unwrap_or_default();
            entries.clear();
            let mut old = old.iter().peekable();
            for &node in moved {
                while let Some(&entry) = old.next_if(|entry| entry.0 < node) {
                    entries.push(entry);
                }
                old.next_if(|entry| entry.0 == node);
                let via = parents[node as usize];
                if via != base.parent(tree, node) {
                    entries.push((node, via));
                }
            }
            entries.extend(old);
            next.overlays[tree] = (!entries.is_empty()).then(|| Arc::from(&entries[..]));
        }
    }

    /// Records every pair the group changed, source by source in number
    /// order. A source that reads the tree it read before takes its
    /// verdicts: a changed, gained or lost path of the root is the
    /// source's too, and a path over the same links is composed over both
    /// link tables, behind the leaf's one link. A source that switched
    /// trees, or a leaf whose one link the group touched, compares every
    /// destination.
    fn fan_out(
        &mut self,
        prev: &CollapsedTopology,
        next: &CollapsedTopology,
        diff: &LinkDiff,
        pairs: &mut Pairs,
    ) {
        let Fold {
            reach,
            verdicts,
            runs,
            walks,
            walked,
            stats,
            ..
        } = self;
        let tables = (&*prev.links, &*next.links);
        let services = &prev.services;
        for (src, (&was, &now)) in prev.sources.iter().zip(next.sources.iter()).enumerate() {
            let touched_link = match now {
                Source::Leaf { link, .. } => diff.changed.binary_search(&link).is_ok(),
                _ => false,
            };
            let (gained, removed) = (pairs.gained.len(), pairs.removed.len());
            if was != now || touched_link {
                for dst in 0..services.len() {
                    let pair = (services[src], services[dst]);
                    let old = prev.path_back(src, dst);
                    let new = next.path_back(src, dst);
                    walked.clear();
                    match Verdict::of(old, new, walked, stats) {
                        Some(Verdict::SameLinks(..)) => pairs.compose(pair, walked, tables),
                        Some(verdict) => pairs.record(pair, verdict),
                        None => {}
                    }
                }
            } else {
                let Some((start, end)) = now.tree().and_then(|tree| runs[tree]) else {
                    continue;
                };
                for &(dst, verdict) in &verdicts[start as usize..end as usize] {
                    let dst = dst as usize;
                    if dst == src {
                        continue;
                    }
                    let pair = (services[src], services[dst]);
                    match (verdict, now) {
                        (Verdict::SameLinks(from, to), Source::Leaf { link, .. }) => {
                            stats.pairs_compared += 1;
                            walked.clear();
                            walked.push(link);
                            walked.extend_from_slice(&walks[from as usize..to as usize]);
                            pairs.compose(pair, walked, tables);
                        }
                        (Verdict::SameLinks(from, to), _) => {
                            pairs.compose(pair, &walks[from as usize..to as usize], tables)
                        }
                        (verdict, _) => pairs.record(pair, verdict),
                    }
                }
            }
            let reach = &mut reach[src];
            *reach = (*reach + pairs.gained.len() - gained) - (pairs.removed.len() - removed);
            stats.recomputed_paths += *reach;
        }
    }
}

/// What happened to one path of a change group, as far as its links tell.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// It is there before and after, over other links.
    Changed,
    /// It is new.
    Gained,
    /// It is gone.
    Removed,
    /// It is over the same links, kept source first at this range of the
    /// walks it was judged into: its values may have moved.
    SameLinks(u32, u32),
}

impl Verdict {
    /// The verdict on a path that was `old` and is `new` (links
    /// destination first, `None` for no path); `None` when there is none
    /// either way. The link lists are walked in lockstep, and same links
    /// are appended to `walks`, source first.
    fn of(
        old: Option<impl Iterator<Item = LinkId>>,
        new: Option<impl Iterator<Item = LinkId>>,
        walks: &mut Vec<LinkId>,
        stats: &mut TimelineStats,
    ) -> Option<Verdict> {
        let (old, mut new) = match (old, new) {
            (None, None) => return None,
            (Some(old), Some(new)) => (old, new),
            (old, _) => {
                stats.pairs_compared += 1;
                return Some(if old.is_some() {
                    Verdict::Removed
                } else {
                    Verdict::Gained
                });
            }
        };
        stats.pairs_compared += 1;
        let from = walks.len();
        for link in old {
            if new.next() != Some(link) {
                walks.truncate(from);
                return Some(Verdict::Changed);
            }
            walks.push(link);
        }
        if new.next().is_some() {
            walks.truncate(from);
            return Some(Verdict::Changed);
        }
        walks[from..].reverse();
        Some(Verdict::SameLinks(from as u32, walks.len() as u32))
    }
}

/// The pairs one change group changed, in (src, dst) order: the fold
/// records them source by source, each source's in destination order.
#[derive(Default)]
struct Pairs {
    changed: Vec<(NodeId, NodeId)>,
    removed: Vec<(NodeId, NodeId)>,
    /// Of `changed`, the pairs that had no path before.
    gained: Vec<(NodeId, NodeId)>,
}

impl Pairs {
    /// Records `pair` by a verdict its links decide.
    fn record(&mut self, pair: (NodeId, NodeId), verdict: Verdict) {
        match verdict {
            Verdict::Changed => self.changed.push(pair),
            Verdict::Gained => {
                self.changed.push(pair);
                self.gained.push(pair);
            }
            Verdict::Removed => self.removed.push(pair),
            Verdict::SameLinks(..) => unreachable!("a path over the same links is composed"),
        }
    }

    /// Records `pair`, over the same `links` (source first) before and
    /// after, as changed when its values over the two tables differ.
    fn compose(
        &mut self,
        pair: (NodeId, NodeId),
        links: &[LinkId],
        (prev, next): (&LinkTable, &LinkTable),
    ) {
        if !std::ptr::eq(prev, next) && prev.compose(links) != next.compose(links) {
            self.changed.push(pair);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_netmodel::packet::Addr;
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
        // Only pairs over the edge are compared: client-0's five (a leaf
        // whose one link moved compares every destination), each bridge
        // tree's path to client-0, over the same links in both snapshots,
        // and that path composed behind the one link of each of the five
        // other sources, the leaves of those bridges.
        assert_eq!(timeline.stats().pairs_compared, 5 + 2 + 5);
        // Every service is a leaf: one tree per bridge is searched.
        assert_eq!(timeline.initial().roots.len(), 2);
        assert_eq!(timeline.stats().trees_searched, 2);
        // The edge has no detour, so no tree entry moves: nothing is
        // written, and every tree's overlay is the initial snapshot's.
        assert_eq!(timeline.stats().tree_entries_written, 0);
        assert!(Arc::ptr_eq(&delta.snapshot.base, &timeline.initial().base));
        for tree in 0..2 {
            assert!(shares_overlay(timeline.initial(), &delta.snapshot, tree));
        }
        // An untouched pair keeps its value; the changed pair carries the
        // new latency.
        let c1 = topo.node_by_name("client-1").unwrap();
        let s1 = topo.node_by_name("server-1").unwrap();
        assert_eq!(timeline.initial().path(c1, s1), delta.snapshot.path(c1, s1));
        let s0 = topo.node_by_name("server-0").unwrap();
        assert_ne!(timeline.initial().path(c0, s0), delta.snapshot.path(c0, s0));
        assert_eq!(
            delta.snapshot.path(c0, s0).unwrap().latency,
            SimDuration::from_millis(40 + 10 + 1)
        );
    }

    /// `true` when `next` holds `prev`'s overlay of tree `tree`: the same
    /// `Arc`, or none in both.
    fn shares_overlay(prev: &CollapsedTopology, next: &CollapsedTopology, tree: usize) -> bool {
        match (&prev.overlays[tree], &next.overlays[tree]) {
            (Some(prev), Some(next)) => Arc::ptr_eq(prev, next),
            (None, None) => true,
            _ => false,
        }
    }

    /// Lists in `touched`, ascending by id, every link that came, went or
    /// changed between `before` and `after`, both sorted by id: one merge of
    /// the two.
    fn diff_links(
        before: impl Iterator<Item = LinkState>,
        after: impl Iterator<Item = LinkState>,
        touched: &mut Vec<Touched>,
    ) {
        let (mut before, mut after) = (before.peekable(), after.peekable());
        loop {
            let (was, now) = match (before.peek().copied(), after.peek().copied()) {
                (None, None) => return,
                (Some(was), Some(now)) if was.0 == now.0 => (before.next(), after.next()),
                (Some(was), now) if now.is_none_or(|now| was.0 < now.0) => (before.next(), None),
                _ => (None, after.next()),
            };
            let Some((id, from, to, _)) = was.or(now) else {
                return;
            };
            let (was, now) = (was.map(|link| link.3), now.map(|link| link.3));
            if was != now {
                touched.push((id, from, to, was, now));
            }
        }
    }

    /// [`SnapshotTimeline::precompute_inspected`] with a hook that checks,
    /// after every group, the fold's graph against a fresh one of the
    /// topology over every node it ever had, the group's diff against the
    /// full diff of the topology before and after it and the patched link
    /// table against one built from the topology, then hands the graph and
    /// the kept trees to `trees`.
    fn precompute_checked(
        topo: &Topology,
        schedule: &EventSchedule,
        mut trees: impl FnMut(&TopologyGraph, &[Option<ShortestPathTree>]),
    ) -> SnapshotTimeline {
        let mut before = topo.clone();
        let mut seen: Vec<NodeId> = topo.nodes().iter().map(|node| node.id).collect();
        let mut check = |working: &Topology,
                         graph: &TopologyGraph,
                         diff: &LinkDiff,
                         kept: &[Option<ShortestPathTree>],
                         table: &LinkTable| {
            seen.extend(working.nodes().iter().map(|node| node.id));
            seen.sort_unstable();
            seen.dedup();
            let fresh = TopologyGraph::with_nodes(working, &seen);
            assert_eq!(**graph.nodes(), *seen, "the fold's nodes");
            assert_eq!(*graph, fresh, "the fold's graph");
            let mut touched = Vec::new();
            diff_links(
                before.links().iter().map(state),
                working.links().iter().map(state),
                &mut touched,
            );
            assert_eq!(*diff, LinkDiff::of(&touched), "the group's diff");
            assert!(
                table.same_links(&LinkTable::of(working)),
                "the patched table"
            );
            before = working.clone();
            trees(graph, kept);
        };
        SnapshotTimeline::precompute_inspected(topo, schedule, &mut check)
    }

    /// Replays `schedule` online — a full re-collapse after every change
    /// time — and checks the timeline against it: equal paths, the
    /// `changed_paths` / `removed_paths` / `gained_paths` the two full
    /// snapshots imply, the fold's graph and diffs (see
    /// [`precompute_checked`]), the initial base shared by every snapshot,
    /// every tree equal to a fresh search over the snapshot's nodes with an
    /// overlay of exactly its differences from the base, the previous
    /// snapshot's overlay `Arc` for every source whose tree did not move
    /// and a new one for every other, and `tree_entries_written` equal to
    /// the entries that moved. Returns the timeline for the caller's
    /// counts.
    fn assert_matches_online_recollapse(
        topo: &Topology,
        schedule: &EventSchedule,
    ) -> SnapshotTimeline {
        let timeline = precompute_checked(topo, schedule, |_, _| {});
        assert_eq!(timeline.len(), schedule.change_times().len());
        let mut online = topo.clone();
        let mut reference = CollapsedTopology::build(topo);
        let mut prev = Arc::clone(timeline.initial());
        let mut entries_moved = 0;
        for delta in timeline.deltas() {
            for event in schedule.events_at(delta.at) {
                apply_action(&mut online, &event.action);
            }
            let before = reference.clone();
            reference = reference.rebuild_with_addresses(&online);
            let snapshot = &delta.snapshot;
            assert_eq!(snapshot.pair_count(), reference.pair_count());
            assert_eq!(snapshot.pair_count(), snapshot.paths().count());
            assert!(Arc::ptr_eq(&snapshot.services, &prev.services));
            assert!(Arc::ptr_eq(&snapshot.base, &timeline.initial().base));
            assert!(snapshot.nodes.starts_with(&prev.nodes), "nodes only grow");
            let graph = TopologyGraph::with_nodes(&online, &snapshot.nodes);
            assert_eq!(graph.nodes(), &snapshot.nodes, "at {:?}", delta.at);
            // Every service's tree, a leaf's derived from its root's, is a
            // fresh search's.
            for (number, &src) in snapshot.services.iter().enumerate() {
                let fresh = graph.shortest_path_tree(src);
                let parents = snapshot.parents(number);
                assert_eq!(parents, fresh.parents(), "tree of {src} at {:?}", delta.at);
            }
            // Every tree a source reads is its root's, with an overlay of
            // exactly its differences from the base, shared iff it did not
            // move; a tree no source reads keeps its overlay.
            let read: Vec<bool> = (0..snapshot.roots.len())
                .map(|tree| {
                    snapshot
                        .sources
                        .iter()
                        .any(|source| source.tree() == Some(tree))
                })
                .collect();
            assert!(snapshot.roots.starts_with(&prev.roots), "trees only grow");
            for (tree, &root) in snapshot.roots.iter().enumerate() {
                let known = tree < prev.roots.len();
                if !read[tree] {
                    assert!(known && shares_overlay(&prev, snapshot, tree));
                    continue;
                }
                let parents = snapshot.tree_parents(tree);
                let fresh = graph.shortest_path_tree(snapshot.nodes[root as usize]);
                assert_eq!(parents, fresh.parents(), "tree {tree} at {:?}", delta.at);
                let differences: Vec<(u32, Via)> = (0..parents.len() as u32)
                    .map(|node| (node, parents[node as usize]))
                    .filter(|&(node, via)| via != snapshot.base.parent(tree, node))
                    .collect();
                assert_eq!(
                    snapshot.overlays[tree].as_deref().unwrap_or_default(),
                    &differences[..],
                    "overlay of tree {tree} at {:?}",
                    delta.at
                );
                // A node appended since was unreached before, and so was
                // every node of a new tree.
                let mut was = if known {
                    prev.tree_parents(tree)
                } else {
                    Vec::new()
                };
                was.resize(parents.len(), Via::NONE);
                let moved = parents.iter().zip(was).filter(|&(now, was)| *now != was);
                let moved = moved.count();
                entries_moved += moved;
                assert_eq!(
                    known && shares_overlay(&prev, snapshot, tree),
                    moved == 0,
                    "overlay of tree {tree} shared iff it stayed at {:?}",
                    delta.at
                );
            }
            let mut changed = Vec::new();
            for path in reference.paths() {
                let (src, dst) = (path.src, path.dst);
                let ours = delta
                    .snapshot
                    .path(src, dst)
                    .unwrap_or_else(|| panic!("pair {src}->{dst} missing at {:?}", delta.at));
                assert_eq!(ours, path, "pair {src}->{dst} at {:?}", delta.at);
                if before.path(src, dst).as_ref() != Some(&path) {
                    changed.push((src, dst));
                } else {
                    assert_eq!(
                        prev.path(src, dst),
                        Some(ours),
                        "unchanged pair {src}->{dst}"
                    );
                }
            }
            let removed: Vec<(NodeId, NodeId)> = before
                .paths()
                .map(|path| (path.src, path.dst))
                .filter(|&(src, dst)| reference.path(src, dst).is_none())
                .collect();
            let gained: Vec<(NodeId, NodeId)> = changed
                .iter()
                .copied()
                .filter(|&(src, dst)| before.path(src, dst).is_none())
                .collect();
            assert_eq!(delta.changed_paths, changed, "at {:?}", delta.at);
            assert_eq!(delta.gained_paths, gained, "at {:?}", delta.at);
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
        assert_eq!(timeline.stats().tree_entries_written, entries_moved);
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

    /// A delta shares its parent's link table unless it moves a value of a
    /// link (or adds or removes a link). The allocator's memo takes a copy
    /// that moved no capacity its flows cross as a hit.
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
        // The jitter and loss edit changes paths and copies the table, with
        // the new values in place and every capacity and latency kept.
        assert!(!timeline.deltas()[0].changed_paths.is_empty());
        assert!(!Arc::ptr_eq(tables[1], tables[0]));
        assert_eq!(tables[1].ids(), tables[0].ids());
        for slot in 0..tables[0].len() {
            assert_eq!(tables[1].capacity(slot), tables[0].capacity(slot));
            assert_eq!(tables[1].latency(slot), tables[0].latency(slot));
        }
        let one = |table: &LinkTable, slot: usize| table.compose(&table.ids()[slot..=slot]);
        let moved: Vec<usize> = (0..tables[0].len())
            .filter(|&slot| one(tables[1], slot) != one(tables[0], slot))
            .collect();
        // Both directions of the edge.
        assert_eq!(moved.len(), 2);
        for slot in moved {
            let values = one(tables[1], slot).unwrap();
            assert_eq!(values.jitter, SimDuration::from_millis(2));
            assert!((values.loss - 0.01).abs() < 1e-12);
        }
        let (client, server) = (Addr::container(0), Addr::container(1));
        let flow = timeline.initial().flow_path(client, server).unwrap();
        let mut allocator = crate::sharing::Allocator::default();
        allocator.solve(&[flow.flow_ref()], tables[0]);
        allocator.solve(&[flow.flow_ref()], tables[1]);
        assert_eq!(allocator.stats().fast_hits, 1);
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
        // Groups 1–3 edit both trunk directions: all 6 sources are
        // re-derived (30 pairs); each bridge tree compares its paths to the
        // 3 services across the trunk, the same links as before, and each
        // is composed behind the one link of the 3 leaves of that bridge
        // (6 + 18 compared). Group 4 edits one direction: 3 sources, 15
        // pairs, 3 + 9 compared, nothing changed. The trunk has no detour,
        // so no tree entry moves in any group and every overlay stays
        // shared.
        assert_eq!(timeline.stats().recomputed_paths, 3 * 30 + 15);
        assert_eq!(timeline.stats().pairs_compared, 3 * (6 + 18) + 3 + 9);
        assert_eq!(timeline.stats().tree_entries_written, 0);

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

    /// Every kind of edit a group makes to the kept graph, each checked
    /// against a fresh graph and a full diff (see [`precompute_checked`]):
    /// a latency fall and a rise on a link that exists in one direction
    /// only, a bandwidth-only edit, a leave and a re-join in one group, a
    /// join that mints new link ids, a service that leaves, a bridge that
    /// joins after it with a link, and a join of a bridge that is already
    /// there.
    #[test]
    fn the_edited_graph_and_the_named_links_diff_match_fresh_ones() {
        let mut topo = ring();
        let (s0, s2) = (
            topo.node_by_name("s0").unwrap(),
            topo.node_by_name("s2").unwrap(),
        );
        let diagonal = LinkProperties::new(SimDuration::from_millis(20), Bandwidth::from_mbps(50));
        topo.add_link(s0, s2, diagonal, "net");
        let bandwidth = LinkChange {
            up: Some(Bandwidth::from_mbps(20)),
            ..LinkChange::default()
        };
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("s0", "s2", 1, 3));
        schedule.push(set_edge_latency("s0", "s2", 2, 30));
        schedule.push(event(3, set_link("s1", "s2", bandwidth)));
        schedule.push(event(4, leave("s1", "s2")));
        schedule.push(event(4, join("s1", "s2", 5)));
        schedule.push(event(5, join("s1", "s3", 2)));
        schedule.push(event(6, DynamicAction::NodeLeave { name: "h3".into() }));
        for secs in [7, 8] {
            schedule.push(event(secs, DynamicAction::NodeJoin { name: "s9".into() }));
        }
        schedule.push(event(7, join("s9", "s0", 1)));
        schedule.push(event(8, join("s9", "s2", 1)));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let deltas = timeline.deltas();
        // The fall moves the h0 → h2 route onto the diagonal, the rise
        // moves it back; a bandwidth-only edit changes no route.
        let (h0, h2) = (
            topo.node_by_name("h0").unwrap(),
            topo.node_by_name("h2").unwrap(),
        );
        assert!(deltas[0].changed_paths.contains(&(h0, h2)));
        assert!(deltas[1].changed_paths.contains(&(h0, h2)));
        assert_eq!(deltas[0].changed_links.len(), 1);
        // Every snapshot shares the initial base; h3 stays a node, and s9
        // takes a fresh id, appended behind every node.
        for delta in deltas {
            assert!(Arc::ptr_eq(&delta.snapshot.base, &timeline.initial().base));
        }
        let nodes = |k: usize| &deltas[k].snapshot.nodes;
        assert!(Arc::ptr_eq(nodes(5), &timeline.initial().nodes));
        assert_eq!(nodes(6).len(), nodes(5).len() + 1);
        assert!(Arc::ptr_eq(nodes(7), nodes(6)));
        let s9 = timeline.topology_at(SimDuration::from_secs(8));
        assert_eq!(nodes(7).last().copied(), s9.node_by_name("s9"));
    }

    /// The source of the service `name` in `snapshot`.
    fn source_of(snapshot: &CollapsedTopology, topo: &Topology, name: &str) -> Source {
        let id = topo.node_by_name(name).unwrap();
        snapshot.sources[snapshot.services.binary_search(&id).unwrap()]
    }

    /// The dumbbell's services are all leaves: one tree per bridge. A flap
    /// of a leaf's only link makes it reach nothing and then a leaf again,
    /// over the new link, without searching a tree or writing an entry of
    /// its own; each bridge tree writes its entry for the leaf.
    #[test]
    fn a_leaf_whose_only_link_flaps() {
        let topo = dumbbell();
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, leave("client-0", "bridge-left")));
        schedule.push(event(2, join("client-0", "bridge-left", 1)));
        // A leave and a re-join in one group: a leaf over a new link.
        schedule.push(event(3, leave("client-0", "bridge-left")));
        schedule.push(event(3, join("client-0", "bridge-left", 4)));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let sources: Vec<Source> = std::iter::once(timeline.initial())
            .chain(timeline.deltas().iter().map(|d| &d.snapshot))
            .map(|snapshot| source_of(snapshot, &topo, "client-0"))
            .collect();
        let bridge = |link: &Source| match *link {
            Source::Leaf { tree, link, .. } => (tree, link),
            other => panic!("{other:?} is no leaf"),
        };
        assert_eq!(sources[1], Source::None);
        let (first, second, third) = (
            bridge(&sources[0]),
            bridge(&sources[2]),
            bridge(&sources[3]),
        );
        assert!(
            first.0 == second.0 && second.0 == third.0,
            "the same root tree"
        );
        assert!(first.1 < second.1 && second.1 < third.1, "new link ids");
        assert_eq!(timeline.initial().roots.len(), 2);
        assert_eq!(timeline.stats().trees_searched, 2);
        // One entry per bridge tree per group.
        assert_eq!(timeline.stats().tree_entries_written, 2 * 3);
        // Client-0's five pairs go and come back; the other sources' pairs
        // to client-0 too.
        assert_eq!(timeline.deltas()[0].removed_paths.len(), 10);
        assert_eq!(timeline.deltas()[1].gained_paths.len(), 10);
        assert_eq!(timeline.deltas()[2].changed_paths.len(), 10);
    }

    /// A leaf that gains a second out-link reads a tree of its own,
    /// searched then, and routes over its new link; when it loses the link
    /// again it reads its root's tree, and its own is dropped.
    #[test]
    fn a_leaf_that_gains_a_second_out_link_and_loses_it_again() {
        let topo = dumbbell();
        let shortcut = DynamicAction::LinkJoin {
            orig: "client-0".into(),
            dest: "bridge-right".into(),
            change: LinkChange {
                latency: Some(SimDuration::from_millis(2)),
                up: Some(Bandwidth::from_mbps(100)),
                ..LinkChange::default()
            },
        };
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, shortcut));
        schedule.push(event(2, leave("client-0", "bridge-right")));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let (c0, s0) = (
            topo.node_by_name("client-0").unwrap(),
            topo.node_by_name("server-0").unwrap(),
        );
        let [with, without] = [0, 1].map(|k| &timeline.deltas()[k].snapshot);
        let own = source_of(with, &topo, "client-0");
        assert_eq!(own, Source::Tree(2));
        assert_eq!(
            with.roots[2],
            with.base.at[with.services.binary_search(&c0).unwrap()]
        );
        assert_eq!(timeline.stats().trees_searched, 2 + 1);
        // 2 ms over the shortcut plus 1 ms to the server, not 1 + 10 + 1.
        assert_eq!(
            with.path(c0, s0).unwrap().latency,
            SimDuration::from_millis(3)
        );
        assert!(matches!(
            source_of(without, &topo, "client-0"),
            Source::Leaf { tree: 0, .. }
        ));
        assert_eq!(
            without.path(c0, s0).unwrap().latency,
            SimDuration::from_millis(12)
        );
        // The dropped tree keeps its overlay, which no source reads.
        assert!(shares_overlay(with, without, 2));
    }

    /// A root that leaves takes its leaf's only link with it: the leaf
    /// reaches nothing. When the root joins again, with the link, the leaf
    /// reads the root's tree again, searched then.
    #[test]
    fn a_leaf_whose_root_leaves() {
        let topo = ring();
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, DynamicAction::NodeLeave { name: "s0".into() }));
        schedule.push(event(2, DynamicAction::NodeJoin { name: "s0".into() }));
        schedule.push(event(2, join("h0", "s0", 1)));
        schedule.push(event(2, join("s0", "s1", 5)));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let [gone, back] = [0, 1].map(|k| &timeline.deltas()[k].snapshot);
        assert_eq!(source_of(gone, &topo, "h0"), Source::None);
        assert!(matches!(source_of(back, &topo, "h0"), Source::Leaf { .. }));
        // s0 came back as a new node, appended: its tree is a new one.
        assert_eq!(back.roots.len(), 5);
        assert_eq!(timeline.stats().trees_searched, 4 + 1);
    }

    /// A leaf over a zero-latency link is still one hop from its root
    /// (`(0, 1)` apart), so its derived tree still ties like a search;
    /// checked through route changes behind the root and a flap of the
    /// link itself.
    #[test]
    fn a_zero_latency_access_link() {
        let (topo, _, _) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::ZERO,
            SimDuration::from_millis(10),
        );
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("bridge-left", "bridge-right", 1, 0));
        schedule.push(event(2, join("client-0", "server-1", 0)));
        schedule.push(event(3, leave("client-1", "bridge-left")));
        schedule.push(event(4, join("client-1", "bridge-left", 0)));
        schedule.push(set_edge_latency("client-2", "bridge-left", 5, 3));
        schedule.push(set_edge_latency("client-2", "bridge-left", 6, 0));
        assert_matches_online_recollapse(&topo, &schedule);
    }

    /// Equal-cost routes behind a leaf's root: on the ring, opposite
    /// corners tie over two routes, and every leaf's derived tree must
    /// pick the route its own search would, as the ties appear, move and
    /// break, with zero-latency access links too.
    #[test]
    fn equal_cost_ties_behind_the_root() {
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("s0", "s1", 1, 10));
        schedule.push(set_edge_latency("s2", "s3", 1, 10));
        schedule.push(set_edge_latency("s0", "s1", 2, 5));
        schedule.push(event(3, join("s0", "s2", 10)));
        schedule.push(event(4, leave("s1", "s2")));
        schedule.push(event(5, join("s1", "s2", 5)));
        assert_matches_online_recollapse(&ring(), &schedule);
        let mut flat = ring();
        for link in flat.links().to_vec() {
            if flat
                .node(link.from)
                .is_some_and(|node| node.kind.is_service())
            {
                let mut properties = link.properties;
                properties.latency = SimDuration::ZERO;
                flat.set_link_properties(link.id, properties);
            }
        }
        assert_matches_online_recollapse(&flat, &schedule);
    }

    /// Two services linked only to each other are each the other's root:
    /// two trees, each read by the other service through the patch. A
    /// bridge on one of them makes it a service with a tree of its own
    /// while the other stays its leaf.
    #[test]
    fn two_services_linked_directly_are_each_others_root() {
        let mut topo = Topology::new();
        let a = topo.add_service("a", 0, "img");
        let b = topo.add_service("b", 0, "img");
        topo.add_bidirectional_link(
            a,
            b,
            LinkProperties::new(SimDuration::from_millis(3), Bandwidth::from_mbps(10)),
            "net",
        );
        let initial = CollapsedTopology::build(&topo);
        assert_eq!(initial.roots.len(), 2);
        assert!(matches!(initial.sources[0], Source::Leaf { tree: 1, .. }));
        assert!(matches!(initial.sources[1], Source::Leaf { tree: 0, .. }));
        assert_eq!(initial.path(a, b).unwrap().links.len(), 1);
        assert_eq!(
            initial.path(b, a).unwrap().latency,
            SimDuration::from_millis(3)
        );
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, DynamicAction::NodeJoin { name: "s".into() }));
        schedule.push(event(1, join("a", "s", 1)));
        schedule.push(event(2, leave("a", "s")));
        schedule.push(event(3, leave("a", "b")));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let with_bridge = &timeline.deltas()[0].snapshot;
        assert_eq!(with_bridge.sources[0], Source::Tree(0));
        assert!(matches!(
            with_bridge.sources[1],
            Source::Leaf { tree: 0, .. }
        ));
        let apart = &timeline.deltas()[2].snapshot;
        assert_eq!(apart.sources[..], [Source::None, Source::None]);
        assert_eq!(apart.pair_count(), 0);
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
        assert_extends_like_a_precompute(&topo, &merged, &timeline);

        // A cut after a service and a bridge left: the resumed graph keeps
        // both as nodes, and a bridge that joins after the cut is appended.
        let topo = ring();
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, DynamicAction::NodeLeave { name: "h2".into() }));
        schedule.push(event(2, DynamicAction::NodeLeave { name: "s2".into() }));
        let mut timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let mut extra = EventSchedule::new();
        extra.push(event(3, DynamicAction::NodeJoin { name: "s9".into() }));
        extra.push(event(3, join("s9", "s1", 2)));
        extra.push(event(4, join("s9", "s3", 2)));
        assert_eq!(timeline.extend(&extra), 2);
        schedule.merge(&extra);
        assert_extends_like_a_precompute(&topo, &schedule, &timeline);
        let last = &timeline.deltas()[3].snapshot;
        assert_eq!(last.nodes.len(), timeline.initial().nodes.len() + 1);
        // h1 → h3 now crosses s9: 1 + 2 + 2 + 1 ms, not 1 + 5 + 5 + 1.
        let (h1, h3) = (topo.node_by_name("h1"), topo.node_by_name("h3"));
        let path = last.path(h1.unwrap(), h3.unwrap()).unwrap();
        assert_eq!(path.latency, SimDuration::from_millis(6));
    }

    /// `extended`, a timeline extended with some of `schedule`'s events,
    /// holds exactly the deltas a from-scratch precompute of `schedule`
    /// derives, and both match the online re-collapse.
    fn assert_extends_like_a_precompute(
        topo: &Topology,
        schedule: &EventSchedule,
        extended: &SnapshotTimeline,
    ) {
        let reference = assert_matches_online_recollapse(topo, schedule);
        assert_eq!(extended.len(), reference.len());
        for (ours, theirs) in extended.deltas().iter().zip(reference.deltas()) {
            assert_eq!(ours.at, theirs.at);
            assert_eq!(ours.changed_paths, theirs.changed_paths);
            assert_eq!(ours.gained_paths, theirs.gained_paths);
            assert_eq!(ours.removed_paths, theirs.removed_paths);
            assert_eq!(ours.snapshot.nodes, theirs.snapshot.nodes);
            assert_eq!(ours.snapshot.pair_count(), theirs.snapshot.pair_count());
            for path in theirs.snapshot.paths() {
                let (src, dst) = (path.src, path.dst);
                assert_eq!(
                    ours.snapshot.path(src, dst),
                    Some(path),
                    "pair {src}->{dst} at {:?}",
                    ours.at
                );
            }
        }
    }

    /// A small random topology built to tie, and a random schedule for it:
    /// 3–8 bridges and 2–7 services joined by latencies from {1, 2, 3} ms
    /// (parallel, one-way and bridge-only links among them, and services
    /// with a second link, to a bridge or to another service), then 1–12
    /// leave / join / latency / loss-only events over at most four change
    /// times, so that most groups mix several kinds and services switch
    /// between being leaves and not.
    fn tying_case(seed: u64) -> (Topology, EventSchedule) {
        let mut rng = kollaps_sim::rng::SimRng::new(seed);
        let mut topo = Topology::new();
        let services = 2 + rng.gen_index(6);
        let bridges = 3 + rng.gen_index(6);
        let mut names: Vec<String> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for i in 0..services {
            names.push(format!("h{i}"));
            nodes.push(topo.add_service(&names[i], 0, "img"));
        }
        for i in 0..bridges {
            names.push(format!("s{i}"));
            nodes.push(topo.add_bridge(&format!("s{i}")));
        }
        let ms = |rng: &mut kollaps_sim::rng::SimRng| {
            SimDuration::from_millis(1 + rng.gen_index(3) as u64)
        };
        // Every service hangs off a bridge; the bridges form a random mesh.
        for h in 0..services {
            let b = services + rng.gen_index(bridges);
            let props = LinkProperties::new(ms(&mut rng), Bandwidth::from_mbps(100));
            topo.add_bidirectional_link(nodes[h], nodes[b], props, "net");
        }
        // One service in four is no leaf: it has a second link, to a
        // bridge or to another service, one way in five.
        for h in 0..services {
            let other = rng.gen_index(services + bridges);
            if other == h || !rng.chance(0.25) {
                continue;
            }
            let props = LinkProperties::new(ms(&mut rng), Bandwidth::from_mbps(100));
            if rng.chance(0.2) {
                topo.add_link(nodes[h], nodes[other], props, "net");
            } else {
                topo.add_bidirectional_link(nodes[h], nodes[other], props, "net");
            }
        }
        for _ in 0..bridges + rng.gen_index(2 * bridges) {
            let a = services + rng.gen_index(bridges);
            let b = services + rng.gen_index(bridges);
            let props = LinkProperties::new(ms(&mut rng), Bandwidth::from_mbps(50));
            if rng.chance(0.2) {
                topo.add_link(nodes[a], nodes[b], props, "net");
            } else {
                topo.add_bidirectional_link(nodes[a], nodes[b], props, "net");
            }
        }
        let mut schedule = EventSchedule::new();
        let times = 1 + rng.gen_index(4) as u64;
        for _ in 0..1 + rng.gen_index(12) {
            // Mostly bridge pairs, sometimes an access link, now and then
            // a link between two services.
            let a = if rng.chance(0.2) {
                rng.gen_index(services)
            } else {
                services + rng.gen_index(bridges)
            };
            let b = match rng.gen_index(services) {
                b if b != a && rng.chance(0.1) => b,
                _ => services + rng.gen_index(bridges),
            };
            if a == b {
                continue;
            }
            let (orig, dest) = (names[a].as_str(), names[b].as_str());
            let action = match rng.gen_index(4) {
                0 => leave(orig, dest),
                1 => join(orig, dest, 1 + rng.gen_index(3) as u64),
                2 => set_link(
                    orig,
                    dest,
                    LinkChange {
                        latency: Some(ms(&mut rng)),
                        ..LinkChange::default()
                    },
                ),
                _ => set_link(
                    orig,
                    dest,
                    LinkChange {
                        loss: Some(0.01 * (1 + rng.gen_index(3)) as f64),
                        ..LinkChange::default()
                    },
                ),
            };
            schedule.push(event(1 + rng.gen_range(0, times), action));
        }
        (topo, schedule)
    }

    /// The repair against the online re-collapse on thousands of tie-heavy
    /// cases, and every kept tree against a fresh search, the fold's graph
    /// against a fresh one and its diff against a full one after every
    /// group.
    #[test]
    fn repaired_trees_match_fresh_searches_on_tying_cases() {
        let (mut trees_compared, mut mixed_groups) = (0, 0);
        for seed in 0..3_000 {
            let (topo, schedule) = tying_case(seed);
            let mut oracle = |graph: &TopologyGraph, trees: &[Option<ShortestPathTree>]| {
                for tree in trees.iter().flatten() {
                    let root = tree.source().expect("a kept tree has a root");
                    let fresh = graph.shortest_path_tree(root);
                    assert_eq!(*tree, fresh, "seed {seed}: tree of {root}");
                    trees_compared += 1;
                }
            };
            let inspected = precompute_checked(&topo, &schedule, &mut oracle);
            mixed_groups += inspected.deltas().iter().filter(|d| d.events > 1).count();
            let timeline = assert_matches_online_recollapse(&topo, &schedule);
            assert_eq!(
                timeline.stats().nodes_settled,
                inspected.stats().nodes_settled
            );
        }
        assert!(
            trees_compared > 20_000,
            "only {trees_compared} trees compared"
        );
        assert!(mixed_groups > 3_000, "only {mixed_groups} mixed groups");
    }

    /// `extend` keeps no tree between calls, so its first group searches
    /// the plain way; after that it repairs. On an injection that only
    /// degrades links it settles no more nodes than full searches of the
    /// sources with a path over a changed link would, and fewer once a
    /// second group repairs what the first searched.
    #[test]
    fn extend_settles_no_more_than_full_trees_on_a_degrading_injection() {
        let topo = ring();
        let mut schedule = EventSchedule::new();
        schedule.push(set_edge_latency("s0", "s1", 1, 6));
        let mut timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let settled_before = timeline.stats().nodes_settled;
        let mut extra = EventSchedule::new();
        extra.push(set_edge_latency("s1", "s2", 3, 9));
        extra.push(set_edge_latency("s2", "s3", 4, 12));
        extra.push(event(5, leave("s3", "s0")));
        assert_eq!(timeline.extend(&extra), 3);
        let settled = timeline.stats().nodes_settled - settled_before;

        // What the plain derivation searches: per group, a full tree for
        // every source with a path over a changed link.
        let services = topo.service_ids();
        let mut online = timeline.topology_at(SimDuration::from_secs(2));
        let mut prev = Arc::clone(&timeline.deltas()[0].snapshot);
        let mut full = 0;
        for delta in &timeline.deltas()[1..] {
            for event in timeline.schedule().events_at(delta.at) {
                apply_action(&mut online, &event.action);
            }
            let graph = TopologyGraph::new(&online);
            for &src in &services {
                let crosses = services.iter().any(|&dst| {
                    prev.path(src, dst).is_some_and(|path| {
                        path.links.iter().any(|l| delta.changed_links.contains(l))
                    })
                });
                if crosses {
                    full += graph.shortest_path_tree(src).reached();
                }
            }
            prev = Arc::clone(&delta.snapshot);
        }
        assert!(settled > 0);
        assert!(
            settled < full,
            "extend settled {settled}, full trees {full}"
        );
    }

    /// A node event costs the tree entries it moves, as a flap does: on the
    /// ring, the `NodeLeave` of a leaf service settles fewer nodes than one
    /// full search per remaining source would.
    #[test]
    fn a_node_leave_settles_fewer_nodes_than_full_searches() {
        let topo = ring();
        let mut schedule = EventSchedule::new();
        schedule.push(event(1, DynamicAction::NodeLeave { name: "h3".into() }));
        let timeline = assert_matches_online_recollapse(&topo, &schedule);
        let after = timeline.topology_at(SimDuration::from_secs(1));
        let graph = TopologyGraph::new(&after);
        let full: usize = after
            .service_ids()
            .iter()
            .map(|&src| graph.shortest_path_tree(src).reached())
            .sum();
        let settled = timeline.stats().nodes_settled;
        assert!(settled < full, "settled {settled}, full searches {full}");
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
        // The base is the initial one: client-2 stays a node without links
        // and is marked as reaching nothing, so it writes no tree entry;
        // each bridge tree's entry for it is written (2).
        assert!(Arc::ptr_eq(&delta.snapshot.base, &timeline.initial().base));
        let number = delta.snapshot.services.binary_search(&c2).unwrap();
        assert_eq!(delta.snapshot.sources[number], Source::None);
        assert_eq!(delta.snapshot.roots.len(), 2);
        assert_eq!(timeline.stats().tree_entries_written, 2);
        // The address assignment survives (containers keep their IP), and
        // client-2's row and column hold no path.
        let addr = timeline.initial().address_of(c2).unwrap();
        assert_eq!(delta.snapshot.address_of(c2), Some(addr));
        assert_eq!(delta.snapshot.service_at(addr), Some(c2));
        for other in 0..delta.snapshot.services.len() {
            assert!(delta.snapshot.path_back(number, other).is_none());
            assert!(delta.snapshot.path_back(other, number).is_none());
        }
        for (other, _) in delta.snapshot.addresses() {
            assert!(delta.snapshot.path(c2, other).is_none());
            assert!(delta.snapshot.path(other, c2).is_none());
        }
    }
}
