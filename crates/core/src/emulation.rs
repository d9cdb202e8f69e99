//! The Kollaps emulation: the collapsed dataplane as a thin composition of
//! per-host Emulation Managers.
//!
//! One [`KollapsDataplane`] models the whole deployment:
//!
//! * containers are mapped to physical hosts by [`place_containers`]
//!   (round-robin by default, explicit via the pins of
//!   [`KollapsDataplane::with_prepared`]);
//! * every physical host runs an [`EmulationManager`] that owns the egress
//!   qdisc trees ([`kollaps_netmodel::egress::EgressTree`], the TCAL state)
//!   of *its* containers and exchanges per-flow usage through the metadata
//!   bus (shared memory locally, UDP across hosts);
//! * the **emulation loop** (paper §4.1) runs every `loop_interval`: each
//!   manager (1) clears local flow state, (2) reads per-destination usage
//!   from its TCALs, (3) publishes it and absorbs what the network has
//!   delivered, (4) recomputes the RTT-aware min-max shares **from that
//!   received, possibly stale view only**, (5) enforces the new rates (and
//!   injects congestion loss when a link stays oversubscribed);
//! * dynamic topology events come from a [`SnapshotTimeline`] precomputed
//!   **offline** at construction (schedules are part of the experiment
//!   description, so the whole sequence of collapsed snapshots is known in
//!   advance): at runtime each due change swaps in the precomputed snapshot
//!   `Arc` and touches only the delta'd qdisc chains — no shortest-path
//!   computation ever runs inside the loop;
//! * the dataplane itself only routes packets to the owning manager, runs
//!   the physical-network delivery queue, and — because it can see every
//!   manager at once — scores how far the decentralized decisions are from
//!   the omniscient allocation ([`KollapsDataplane::convergence`]).

use std::collections::HashMap;
use std::sync::Arc;

use kollaps_metadata::bus::{Bus, DisseminationBus, HostId, TrafficAccounting};
use kollaps_netmodel::egress::EgressVerdict;
use kollaps_netmodel::packet::{Addr, Packet};
use kollaps_sim::prelude::*;
use kollaps_sim::queue::TimedQueue;
use kollaps_topology::events::EventSchedule;
use kollaps_topology::model::{NodeId, Topology};
use kollaps_trace::{PhaseStats, Recorder};

use crate::collapse::{Addressable, CollapsedTopology};
use crate::manager::EmulationManager;
use crate::runtime::{Dataplane, SendOutcome};
use crate::sharing::{Allocator, AllocatorStats, FlowRef};
use crate::timeline::{SnapshotDelta, SnapshotTimeline};

/// Tuning knobs of the emulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulationConfig {
    /// Period of the emulation loop (metadata exchange + enforcement).
    pub loop_interval: SimDuration,
    /// Extra one-way delay when source and destination containers sit on
    /// different physical hosts (the "small but measurable" physical-hop
    /// delay the paper observes in Table 4).
    pub cross_host_delay: SimDuration,
    /// Extra one-way delay introduced by container networking (Docker
    /// overlay), applied to every packet.
    pub container_overhead: SimDuration,
    /// One-way delay of metadata messages on the physical network. Managers
    /// enforce from what they have *received*, so raising this delays every
    /// host's reaction to remote flows by up to a full loop iteration.
    pub metadata_delay: SimDuration,
    /// Seed for the per-destination netem jitter streams.
    pub seed: u64,
    /// Retired, ignored; kept only because `benchmark/` names it — delete
    /// with the next `benchmark`-archetype issue.
    #[doc(hidden)]
    pub threads: usize,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            loop_interval: SimDuration::from_millis(50),
            cross_host_delay: SimDuration::from_micros(50),
            container_overhead: SimDuration::from_micros(30),
            metadata_delay: SimDuration::from_micros(100),
            seed: 42,
            threads: 1,
        }
    }
}

/// How close the decentralized, per-host enforcement tracks the omniscient
/// allocation (the one a centralized solver with instantaneous knowledge
/// would compute). The gap is the maximum relative difference between any
/// manager's enforced rate and the omniscient rate for the same flow.
///
/// The block has one owner: [`ConvergenceStats::from_host_series`] folds
/// it from the per-host gap series, both for the in-process dataplane and
/// for the distributed coordinator, which merges its agents' series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConvergenceStats {
    /// Gap measured in the most recent loop iteration.
    pub last_gap: f64,
    /// Worst gap seen over the whole run.
    pub max_gap: f64,
    /// Sum of the per-iteration gaps (for the mean).
    pub sum_gap: f64,
    /// Loop iterations that contributed a measurement (at least one active
    /// flow).
    pub samples: u64,
}

impl ConvergenceStats {
    /// Folds per-host gap series into the global block: sample `i`'s gap is
    /// the max over every host that has an `i`-th sample (0.0 if none
    /// exceeds it), recorded in sample order. Series may differ in length;
    /// the block has as many samples as the longest one.
    pub fn from_host_series(series: &[Vec<f64>]) -> Self {
        let mut stats = ConvergenceStats::default();
        let len = series.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..len {
            let gap = series
                .iter()
                .filter_map(|host| host.get(i))
                .fold(0.0f64, |gap, &g| gap.max(g));
            stats.record(gap);
        }
        stats
    }

    /// Folds in one sampled gap.
    pub fn record(&mut self, gap: f64) {
        self.last_gap = gap;
        self.max_gap = self.max_gap.max(gap);
        self.sum_gap += gap;
        self.samples += 1;
    }

    /// Mean gap over all measured loop iterations: the time-averaged
    /// inaccuracy the staleness of the metadata view costs. The max spikes
    /// whenever any flow starts; the mean is what distinguishes a fast loop
    /// with fresh metadata from a slow loop enforcing on old news.
    pub fn mean_gap(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_gap / self.samples as f64
        }
    }
}

/// Runtime accounting of the dynamics engine: how much work applying the
/// precomputed snapshot timeline actually cost. The headline property is
/// that per-event swap work follows the **delta** (paths the change
/// affected), not the topology size — `changed_paths_*` against
/// [`DynamicsStats::pair_count`] makes that measurable, and the
/// `kollaps-bench dynamics` sweep measures it. A snapshot, not a ledger:
/// [`KollapsDataplane::dynamics`] derives it on read from the timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynamicsStats {
    /// Wall-clock microseconds the offline timeline precompute took (paid
    /// once at construction, before the experiment starts).
    pub precompute_micros: u64,
    /// Change times precomputed in the timeline.
    pub snapshots_precomputed: usize,
    /// Change times whose snapshot has been swapped in so far.
    pub snapshots_applied: usize,
    /// Schedule events those swaps covered.
    pub events_applied: usize,
    /// Swap cost (changed + removed paths) of the most recent change.
    pub changed_paths_last: usize,
    /// Total swap cost over all applied changes.
    pub changed_paths_total: usize,
    /// Worst single-change swap cost.
    pub changed_paths_max: usize,
    /// Per-destination qdisc chains the applied changes re-configured or
    /// removed across all hosts, counted as if every local pair with a path
    /// held its chain: every local pair a change re-configures or removes,
    /// whether its chain was created yet (chains are created on first send)
    /// or not.
    pub chains_touched_total: usize,
    /// Ordered service pairs in the initial snapshot — the work an online
    /// all-pairs re-collapse would redo on every event.
    pub pair_count: usize,
}

impl DynamicsStats {
    /// Mean swap cost per applied change.
    pub fn mean_swap_cost(&self) -> f64 {
        if self.snapshots_applied == 0 {
            0.0
        } else {
            self.changed_paths_total as f64 / self.snapshots_applied as f64
        }
    }
}

/// The phases of one emulation-loop iteration, in execution order. Phase
/// spans and the [`KollapsDataplane::phase_timing`] breakdown both use
/// these names.
pub const LOOP_PHASES: [&str; 5] = ["collect", "publish", "synchronize", "drain", "enforce"];

/// The Kollaps collapsed-topology dataplane: N per-host Emulation Managers,
/// the dissemination bus between them, and the physical-network delivery
/// queue.
pub struct KollapsDataplane {
    config: EmulationConfig,
    /// The omniscient collapsed view — used for addressing, for routing
    /// packets, and as the reference the convergence metric compares the
    /// managers' local decisions against. Enforcement never reads it; the
    /// managers hold read-only `Arc` clones of the same snapshot.
    collapsed: Arc<CollapsedTopology>,
    /// Every collapsed snapshot of the experiment, precomputed offline at
    /// construction; runtime event application only swaps `Arc`s and
    /// touches the delta'd chains.
    timeline: SnapshotTimeline,
    /// Index of the next unapplied timeline delta: `deltas()[..next_delta]`
    /// is what [`KollapsDataplane::dynamics`] reports as applied.
    next_delta: usize,
    /// Per-destination qdisc chains the applied deltas re-configured or
    /// removed, all hosts, counted as an eager install would (see
    /// [`DynamicsStats::chains_touched_total`]).
    chains_touched: usize,
    /// One Emulation Manager per physical host, in host-id order.
    managers: Vec<EmulationManager>,
    /// Physical host of each container, by container index.
    placement: Vec<HostId>,
    /// The dissemination transport. The in-process default is the modeled
    /// [`DisseminationBus`]; the distributed runtime swaps in a socket-backed
    /// implementation via [`KollapsDataplane::set_bus`].
    bus: Box<dyn Bus>,
    /// Packets on the physical network, by arrival time.
    pending: TimedQueue<Packet>,
    /// Solver for the omniscient reference allocation the convergence
    /// metric compares against; like the managers' own solvers, its memo
    /// keys on the snapshot's link table.
    omniscient: Allocator,
    /// The omniscient targets of the last solve and what they were solved
    /// from.
    targets: Targets,
    /// Omniscient solves since construction (see [`PacketPathStats`]).
    convergence_solves: u64,
    /// The rebuild-everything oracle: every manager derives its solver
    /// input afresh, and the omniscient target is re-solved, every loop.
    #[cfg(test)]
    rebuilding: bool,
    /// Per-host, per-scored-iteration convergence gaps, indexed by host;
    /// every series has one entry per scored loop iteration.
    host_gap_series: Vec<Vec<f64>>,
    /// `true` when the last loop iteration scored no flow: the global gap
    /// then reads 0.0, though no sample was added.
    last_tick_idle: bool,
    /// Flight recorder for phase spans and counters. Disabled by default —
    /// the disabled handle takes no timestamps, so emulation results are
    /// byte-identical with tracing off or on (tracing is wall-clock-only).
    recorder: Recorder,
    /// Per-phase wall-clock accumulators, indexed like [`LOOP_PHASES`].
    /// Meaningful only while the recorder is enabled.
    phase_stats: [PhaseStats; LOOP_PHASES.len()],
    /// `deliver` calls since construction (see [`PacketPathStats`]).
    deliver_calls: u64,
    started: bool,
}

/// The omniscient convergence targets, kept while their inputs hold: the
/// snapshot and every manager's local flows, both known by the managers'
/// local generations.
#[derive(Default)]
struct Targets {
    /// [`EmulationManager::local_generation`] per manager, at the solve.
    generations: Vec<u64>,
    /// Per local flow, managers in host order and each one's flows in pair
    /// order; empty when no flow was active.
    rates: Vec<Bandwidth>,
}

/// Deterministic work counters of the per-event packet path and of the
/// loop's kept state. Like `phase_timing` they describe how the run was
/// computed, not what it computed, so they stay out of the `Report`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketPathStats {
    /// `Dataplane::deliver` calls.
    pub deliver_calls: u64,
    /// Egress trees those calls polled (all managers): the trees whose wake
    /// was due, plus those that had lost a chain since their last poll.
    pub trees_visited: u64,
    /// Polls that released at least one packet.
    pub trees_emitted: u64,
    /// Per-destination qdisc chains created (all managers, monotone): one
    /// per local pair on its first send, and again after a delta removed
    /// it, so it follows the pairs that carry traffic, not the pairs that
    /// have a path.
    pub chains_installed: u64,
    /// Paths the managers derived from the snapshots' trees (monotone):
    /// one per chain created and one per cached pair a delta refreshed —
    /// nothing per loop iteration.
    pub paths_built: u64,
    /// Delta pairs the managers' snapshot swaps visited (monotone): per
    /// manager and delta, the pairs of its local sources' runs plus the
    /// reverse pairs its cached paths found — not the delta's length.
    pub swap_pairs_visited: u64,
    /// Flows whose solver rows the managers derived afresh (local plus
    /// remote, monotone): each loop iteration re-derives only the local
    /// flows of a manager whose snapshot, cached paths or set of active
    /// pairs moved, and the remote flows of a host whose advertised link
    /// ids moved.
    pub enforce_flows_rebuilt: u64,
    /// Omniscient solves of the convergence metric (monotone): one per loop
    /// iteration whose snapshot or set of active local flows moved.
    pub convergence_solves: u64,
}

impl PacketPathStats {
    /// Mean egress trees polled per `deliver` call: the due trees (plus any
    /// that lost a chain), independent of how many trees are deployed.
    pub fn trees_visited_per_deliver(&self) -> f64 {
        self.trees_visited as f64 / self.deliver_calls.max(1) as f64
    }
}

/// The one container placement: one host per service, for `services` in
/// container-index order over `hosts` physical machines. A service `pinned`
/// maps to a host goes there (clamped into `0..hosts`; the scenario layer
/// rejects an out-of-range pin with a typed error first), and the `i`-th
/// service otherwise goes to host `i % hosts`, spreading containers evenly.
/// `hosts` of 0 counts as 1.
pub fn place_containers(
    services: impl IntoIterator<Item = NodeId>,
    hosts: usize,
    pinned: &HashMap<NodeId, u32>,
) -> Vec<HostId> {
    let hosts = hosts.max(1);
    services
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            let host = match pinned.get(&node) {
                Some(&h) => (h as usize).min(hosts - 1),
                None => i % hosts,
            };
            HostId(host as u32)
        })
        .collect()
}

/// The physical host of a container, by container index.
fn host_of(placement: &[HostId], addr: Addr) -> Option<HostId> {
    placement.get(addr.container_index()? as usize).copied()
}

/// The delay a packet adds past its egress tree: the container stack on
/// both ends, plus the physical hop when its endpoints sit on different
/// hosts.
fn extra_delay(
    config: &EmulationConfig,
    placement: &[HostId],
    src: Addr,
    dst: Addr,
) -> SimDuration {
    let mut extra = config.container_overhead * 2;
    if host_of(placement, src) != host_of(placement, dst) {
        extra += config.cross_host_delay;
    }
    extra
}

impl KollapsDataplane {
    /// Builds the emulation from an **already precomputed** snapshot
    /// timeline and an explicit container placement: `pinned` maps service
    /// nodes to host indices (`0..hosts`); services it does not mention fall
    /// back to round-robin ([`place_containers`]). Host indices are clamped
    /// into range — the scenario layer validates them properly and reports a
    /// typed error instead.
    ///
    /// A campaign sweeping non-topological parameters precomputes
    /// the timeline once and hands every variant a clone: the clone shares
    /// every `CollapsedTopology` snapshot (its trees' base and overlays)
    /// structurally behind `Arc`s, so N variants pay the offline all-pairs
    /// work once, not N times. The timeline's own
    /// `precompute_micros` travels with it — variants built from the same
    /// prepared timeline report identical precompute counters.
    pub fn with_prepared(
        timeline: SnapshotTimeline,
        hosts: usize,
        pinned: &HashMap<NodeId, u32>,
        config: EmulationConfig,
    ) -> Self {
        let collapsed = Arc::clone(timeline.initial());
        let hosts = hosts.max(1);
        let host_ids: Vec<HostId> = (0..hosts as u32).map(HostId).collect();
        let rng = SimRng::new(config.seed);
        // `addresses()` yields (service, addr) in container-index order.
        let placement =
            place_containers(collapsed.addresses().map(|(node, _)| node), hosts, pinned);
        let mut by_host: Vec<Vec<Addr>> = vec![Vec::new(); hosts];
        for (host, (_, addr)) in placement.iter().zip(collapsed.addresses()) {
            by_host[host.0 as usize].push(addr);
        }
        let managers: Vec<EmulationManager> = host_ids
            .iter()
            .zip(&by_host)
            .map(|(&h, local)| {
                EmulationManager::new(h, config, Arc::clone(&collapsed), local, &rng)
            })
            .collect();
        let bus = Box::new(DisseminationBus::new(host_ids, config.metadata_delay));
        KollapsDataplane {
            config,
            collapsed,
            timeline,
            next_delta: 0,
            chains_touched: 0,
            managers,
            placement,
            bus,
            pending: TimedQueue::default(),
            omniscient: Allocator::default(),
            targets: Targets::default(),
            convergence_solves: 0,
            #[cfg(test)]
            rebuilding: false,
            host_gap_series: vec![Vec::new(); hosts],
            last_tick_idle: false,
            recorder: Recorder::disabled(),
            phase_stats: [PhaseStats::default(); LOOP_PHASES.len()],
            deliver_calls: 0,
            started: false,
        }
    }

    /// A static `topology` over `hosts` machines with the default
    /// configuration and round-robin placement. It stays because
    /// `benchmark/tests/selftest.rs` calls it.
    pub fn with_defaults(topology: Topology, hosts: usize) -> Self {
        let timeline = SnapshotTimeline::precompute(&topology, &EventSchedule::new());
        KollapsDataplane::with_prepared(
            timeline,
            hosts,
            &HashMap::new(),
            EmulationConfig::default(),
        )
    }

    /// The collapsed topology currently enforced.
    pub fn collapsed(&self) -> &CollapsedTopology {
        &self.collapsed
    }

    /// Metadata traffic accounting (Figures 3 and 4).
    pub fn metadata_accounting(&self) -> &TrafficAccounting {
        self.bus.accounting()
    }

    /// Replaces the dissemination transport. The distributed runtime
    /// injects its socket-backed bus here before any traffic flows; the
    /// replacement must connect the same host set.
    ///
    /// # Panics
    ///
    /// Panics if the emulation loop has already run (swapping transports
    /// mid-run would lose in-flight metadata) or if the host sets differ.
    pub fn set_bus(&mut self, bus: Box<dyn Bus>) {
        assert!(
            !self.started,
            "the metadata bus can only be replaced before the emulation starts"
        );
        assert_eq!(
            bus.hosts(),
            self.bus.hosts(),
            "the replacement bus must connect the same hosts"
        );
        self.bus = bus;
    }

    /// Attaches a flight recorder: lane 0 carries the dataplane's phase
    /// spans, lane `1 + host` carries each manager's spans. Recording is
    /// wall-clock-only and never feeds back into the simulation, so results
    /// are byte-identical with or without it.
    ///
    /// # Panics
    ///
    /// Panics if the emulation loop has already run (spans would start
    /// mid-stream with unbalanced nesting).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        assert!(
            !self.started,
            "the flight recorder can only be attached before the emulation starts"
        );
        for manager in &mut self.managers {
            let lane = 1 + manager.host().0 as usize;
            manager.set_recorder(recorder.clone(), lane);
        }
        self.recorder = recorder;
    }

    /// The attached flight recorder (the disabled no-op handle by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Per-phase wall-clock breakdown of the emulation loop, in
    /// [`LOOP_PHASES`] order. `None` unless a recorder is enabled — the
    /// breakdown is wall-clock data and must not appear in reports of
    /// untraced runs (reports are pinned byte-identical across tracing
    /// on/off).
    pub fn phase_timing(&self) -> Option<Vec<(&'static str, PhaseStats)>> {
        if !self.recorder.is_enabled() {
            return None;
        }
        Some(LOOP_PHASES.iter().copied().zip(self.phase_stats).collect())
    }

    /// Each host's own worst convergence gap per scored loop iteration, one
    /// series per host in host-id order, all of the same length. This is
    /// the only record of the gaps: [`KollapsDataplane::convergence`] folds
    /// it, and the distributed coordinator folds its agents' series the
    /// same way ([`ConvergenceStats::from_host_series`]).
    pub fn host_gap_series(&self) -> &[Vec<f64>] {
        &self.host_gap_series
    }

    /// Number of physical hosts in the deployment.
    pub fn host_count(&self) -> usize {
        self.managers.len()
    }

    /// The per-host Emulation Managers, in host-id order.
    pub fn managers(&self) -> &[EmulationManager] {
        &self.managers
    }

    /// The physical host a container is placed on.
    pub fn placement_of(&self, addr: Addr) -> Option<HostId> {
        host_of(&self.placement, addr)
    }

    /// How close the decentralized enforcement tracked the omniscient
    /// allocation so far: the fold of [`KollapsDataplane::host_gap_series`],
    /// except that `last_gap` reads 0.0 after a loop iteration that scored
    /// no flow (such an iteration adds no sample).
    pub fn convergence(&self) -> ConvergenceStats {
        let mut stats = ConvergenceStats::from_host_series(&self.host_gap_series);
        if self.last_tick_idle {
            stats.last_gap = 0.0;
        }
        stats
    }

    /// Total wall-clock microseconds all managers spent inside the
    /// bandwidth-sharing solver (diagnostic only; the scaling bench divides
    /// this by loop iterations).
    pub fn allocation_micros(&self) -> u64 {
        self.managers.iter().map(|m| m.allocation_micros()).sum()
    }

    /// Work-avoidance counters of the managers' min-max solvers, summed.
    pub fn allocator_stats(&self) -> AllocatorStats {
        let mut total = AllocatorStats::default();
        for stats in self.managers.iter().map(|m| m.allocator_stats()) {
            total.calls += stats.calls;
            total.fast_hits += stats.fast_hits;
            total.components_recomputed += stats.components_recomputed;
        }
        total
    }

    /// Work counters of the packet path between ticks, summed across all
    /// managers.
    pub fn packet_path_stats(&self) -> PacketPathStats {
        let mut stats = PacketPathStats {
            deliver_calls: self.deliver_calls,
            convergence_solves: self.convergence_solves,
            ..PacketPathStats::default()
        };
        for manager in &self.managers {
            let (visited, emitted) = manager.trees_drained();
            stats.trees_visited += visited;
            stats.trees_emitted += emitted;
            stats.chains_installed += manager.chains_installed();
            stats.paths_built += manager.paths_built();
            stats.swap_pairs_visited += manager.swap_pairs_visited();
            stats.enforce_flows_rebuilt += manager.flows_rebuilt();
        }
        stats
    }

    /// The precomputed snapshot timeline of this experiment.
    pub fn timeline(&self) -> &SnapshotTimeline {
        &self.timeline
    }

    /// Runtime accounting of the dynamics engine (events applied, per-event
    /// swap cost, offline precompute time), read off the timeline: the
    /// applied changes are its first deltas, which an extension never
    /// re-derives (see [`KollapsDataplane::extend_timeline`]).
    pub fn dynamics(&self) -> DynamicsStats {
        let applied = self
            .timeline
            .deltas()
            .get(..self.next_delta)
            .unwrap_or_default();
        let costs = applied.iter().map(SnapshotDelta::swap_cost);
        DynamicsStats {
            precompute_micros: self.timeline.stats().precompute_micros,
            snapshots_precomputed: self.timeline.len(),
            snapshots_applied: applied.len(),
            events_applied: applied.iter().map(|d| d.events).sum(),
            changed_paths_last: applied.last().map_or(0, SnapshotDelta::swap_cost),
            changed_paths_total: costs.clone().sum(),
            changed_paths_max: costs.max().unwrap_or(0),
            chains_touched_total: self.chains_touched,
            pair_count: self.timeline.initial().pair_count(),
        }
    }

    /// Extends the precomputed timeline with injected events — the live
    /// steering path. Every event must lie strictly in the future of `now`
    /// (the session validates and reports a typed error; here it is a
    /// debug assertion), which guarantees no already-applied delta moves:
    /// the extension re-derives at most the not-yet-applied suffix, and in
    /// the common case (events after the last delta) only appends. Returns
    /// the number of deltas derived.
    pub fn extend_timeline(&mut self, now: SimTime, extra: &EventSchedule) -> usize {
        debug_assert!(
            extra.events().iter().all(|e| SimTime::ZERO + e.at > now),
            "injected events must be in the future"
        );
        // The extension keeps every delta before its first event; the
        // applied prefix `dynamics()` reads must be among them.
        let last_applied = self.next_delta.checked_sub(1);
        let last_applied = last_applied.and_then(|i| self.timeline.deltas().get(i));
        debug_assert!(
            last_applied
                .zip(extra.events().first())
                .is_none_or(|(applied, first)| applied.at < first.at),
            "injected events must follow the last applied delta"
        );
        let mut span = self.recorder.span(0, "timeline_extend");
        let derived = self.timeline.extend(extra);
        span.arg("events", extra.events().len() as f64);
        span.arg("deltas_derived", derived as f64);
        derived
    }

    /// Links any manager currently observes oversubscribed (its last loop
    /// iteration measured more offered load than capacity), sorted and
    /// deduplicated across hosts. Live telemetry reads this to detect
    /// oversubscription onset.
    pub fn oversubscribed_links(&self) -> Vec<kollaps_topology::model::LinkId> {
        let mut links: Vec<_> = self
            .managers
            .iter()
            .flat_map(|m| m.oversubscribed_links())
            .collect();
        links.sort();
        links.dedup();
        links
    }

    /// The offered load per original-topology link implied by the usage
    /// every manager measured in its **last** loop iteration — the live
    /// counterpart of the report's end-of-run link table. Sorted by link
    /// id.
    pub fn link_usage(&self) -> Vec<(kollaps_topology::model::LinkId, Bandwidth)> {
        let mut load: HashMap<kollaps_topology::model::LinkId, u64> = HashMap::new();
        for manager in &self.managers {
            for &((src, dst), used) in manager.local_usages() {
                let Some(flow) = manager.flow_path(src, dst) else {
                    continue;
                };
                for &link in &flow.path.links {
                    *load.entry(link).or_default() += used.as_bps();
                }
            }
        }
        let mut usage: Vec<_> = load
            .into_iter()
            .map(|(link, bps)| (link, Bandwidth::from_bps(bps)))
            .collect();
        usage.sort_by_key(|&(link, _)| link);
        usage
    }

    /// The bandwidth the owning manager enforced for the (src, dst) pair in
    /// the last emulation loop iteration, if the pair was active.
    pub fn allocation(&self, src: Addr, dst: Addr) -> Option<Bandwidth> {
        self.manager_of(src)?.allocation(src, dst)
    }

    /// The usage the owning manager measured for the (src, dst) pair in the
    /// last loop.
    pub fn measured_usage(&self, src: Addr, dst: Addr) -> Option<Bandwidth> {
        self.manager_of(src)?.measured_usage(src, dst)
    }

    fn manager_of(&self, addr: Addr) -> Option<&EmulationManager> {
        let host = self.placement_of(addr)?;
        self.managers.get(host.0 as usize)
    }

    /// Runs one iteration of the emulation loop at `now`: every manager
    /// measures locally, publishes, absorbs what the network delivered, and
    /// enforces from its own (possibly stale) view.
    fn emulation_loop(&mut self, now: SimTime) {
        // Steps 1-2: each manager reads and clears its local TCAL usage.
        self.phase(0, |dp| {
            for manager in &mut dp.managers {
                manager.collect_usage();
            }
        });
        // Step 3: publish local usage, then drain. With a zero metadata
        // delay this iteration's publications arrive immediately (shared
        // memory semantics); with a nonzero delay managers enforce on last
        // iteration's news — the staleness the paper trades for
        // decentralization. Managers publish in host-id order.
        self.phase(1, |dp| {
            for manager in &dp.managers {
                manager.publish(now, dp.bus.as_mut());
            }
        });
        // Between publish and drain the bus synchronizes: the modeled bus
        // moves due messages, a socket bus blocks until every peer's
        // datagram of this iteration has arrived (the lockstep barrier).
        self.phase(2, |dp| dp.bus.synchronize(now));
        self.phase(3, |dp| {
            for manager in &mut dp.managers {
                let deliveries = dp.bus.drain(now, manager.host());
                manager.absorb(deliveries);
            }
        });
        // Steps 4-5: each manager recomputes and enforces from what it has —
        // the hottest phase (min-max solve + qdisc writes).
        self.phase(4, |dp| {
            for manager in &mut dp.managers {
                manager.enforce(now);
            }
        });
        let span = self.recorder.span(0, "convergence");
        #[cfg(test)]
        let gap = if self.rebuilding {
            self.update_convergence_rebuilding()
        } else {
            self.update_convergence()
        };
        #[cfg(not(test))]
        let gap = self.update_convergence();
        drop(span);
        self.recorder.counter(0, "convergence_gap", gap);
    }

    /// Runs `body` as the loop phase named `LOOP_PHASES[index]`: inside a
    /// lane-0 span of that name, its wall time folded into the phase's
    /// accumulator while tracing.
    fn phase(&mut self, index: usize, body: impl FnOnce(&mut Self)) {
        let span = self
            .recorder
            .span(0, LOOP_PHASES.get(index).copied().unwrap_or_default());
        body(self);
        if self.recorder.is_enabled() {
            if let Some(stats) = self.phase_stats.get_mut(index) {
                stats.record(span.elapsed_micros());
            }
        }
    }

    /// Scores the decentralized decisions against the omniscient allocation
    /// (global instantaneous knowledge — exactly what the old centralized
    /// loop enforced), appends each host's worst gap to its series and
    /// returns the global gap (0.0 when no flow was scored).
    ///
    /// The target depends only on the snapshot and on every manager's
    /// local flows, so it is re-solved only when one of them moved, and
    /// otherwise the kept one is compared against again. Both show in the
    /// managers' local generations: a manager re-derives its local flows
    /// whenever they or its snapshot moved.
    fn update_convergence(&mut self) -> f64 {
        let targets = &mut self.targets;
        let held = targets
            .generations
            .iter()
            .copied()
            .eq(self.managers.iter().map(EmulationManager::local_generation));
        if !held {
            targets.generations.clear();
            targets
                .generations
                .extend(self.managers.iter().map(EmulationManager::local_generation));
            // Managers in host order, each one's flows in pair order.
            let flows: Vec<FlowRef<'_>> = self
                .managers
                .iter()
                .flat_map(EmulationManager::local_flows)
                .collect();
            targets.rates.clear();
            if !flows.is_empty() {
                let table = self.collapsed.link_table();
                targets
                    .rates
                    .extend_from_slice(self.omniscient.solve(&flows, table));
                self.convergence_solves += 1;
            }
        }
        self.last_tick_idle = targets.rates.is_empty();
        if self.last_tick_idle {
            return 0.0;
        }
        let mut unscored: &[Bandwidth] = &targets.rates;
        let mut gap = 0.0f64;
        for (manager, series) in self.managers.iter().zip(&mut self.host_gap_series) {
            let enforced = manager.local_allocations();
            let (mine, rest) = unscored.split_at(enforced.len());
            unscored = rest;
            let mut host_gap = 0.0f64;
            for (&(_, enforced), target) in enforced.iter().zip(mine) {
                let target = target.as_bps() as f64;
                if target <= 0.0 {
                    continue;
                }
                let g = (enforced.as_bps() as f64 - target).abs() / target;
                host_gap = host_gap.max(g);
            }
            series.push(host_gap);
            gap = gap.max(host_gap);
        }
        gap
    }

    /// Applies every precomputed change whose time has come: swaps in the
    /// offline-built snapshot and hands every manager the delta, so only
    /// the qdisc chains the change affected are touched. No topology
    /// mutation, no re-collapse and no event cloning happens here — the
    /// timeline is walked by index over its (sorted) deltas.
    fn apply_dynamic_events(&mut self, now: SimTime) {
        while let Some(delta) = self.timeline.deltas().get(self.next_delta) {
            if SimTime::ZERO + delta.at > now {
                break;
            }
            let mut span = self.recorder.span(0, "timeline_swap");
            self.collapsed = Arc::clone(&delta.snapshot);
            let mut touched = 0;
            for manager in &mut self.managers {
                touched += manager.apply_delta(delta);
            }
            span.arg("swap_cost", delta.swap_cost() as f64);
            span.arg("chains_touched", touched as f64);
            self.chains_touched += touched;
            self.next_delta += 1;
        }
    }
}

impl Addressable for KollapsDataplane {
    fn collapsed(&self) -> &CollapsedTopology {
        &self.collapsed
    }
}

impl Dataplane for KollapsDataplane {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        // Unknown destinations (an address that never belonged to a service
        // of this deployment) are dropped up front instead of being offered
        // to the qdisc tree — same outcome the tree would reach, but with
        // no risk of accounting a doomed packet.
        if self.collapsed.service_at(packet.dst).is_none() {
            return SendOutcome::Dropped(kollaps_netmodel::packet::DropReason::Unreachable);
        }
        let verdict = self
            .placement_of(packet.src)
            .and_then(|host| self.managers.get_mut(host.0 as usize))
            .and_then(|manager| manager.enqueue(now, packet));
        match verdict {
            Some(EgressVerdict::Queued) => SendOutcome::Sent,
            Some(EgressVerdict::Backpressure) => SendOutcome::Backpressure,
            Some(EgressVerdict::Dropped(reason)) => SendOutcome::Dropped(reason),
            None => SendOutcome::Dropped(kollaps_netmodel::packet::DropReason::Unreachable),
        }
    }

    fn next_wakeup(&mut self, _now: SimTime) -> Option<SimTime> {
        // One wake-index head per manager plus the delivery queue's.
        self.managers
            .iter()
            .filter_map(EmulationManager::next_wakeup)
            .chain(self.pending.peek_time())
            .min()
    }

    fn has_room(&self, src: Addr, dst: Addr) -> bool {
        self.placement_of(src)
            .and_then(|host| self.managers.get(host.0 as usize))
            .is_none_or(|manager| manager.has_room(src, dst))
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        self.deliver_calls += 1;
        // Move packets that finished their collapsed-path emulation straight
        // onto the (fast) physical network towards the destination host.
        // Managers in host order, each draining its trees in address order.
        let KollapsDataplane {
            config,
            managers,
            placement,
            pending,
            ..
        } = self;
        for manager in managers.iter_mut() {
            manager.dequeue_ready_with(now, |pkt| {
                let arrival = now + extra_delay(config, placement, pkt.src, pkt.dst);
                pending.push(arrival, pkt);
            });
        }
        // The only allocation of the drain, and only when something arrived.
        std::iter::from_fn(|| pending.pop_due(now)).collect()
    }

    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.started {
            self.started = true;
            return Some(now + self.config.loop_interval);
        }
        let mut span = self.recorder.span(0, "tick");
        span.arg("sim_ms", now.as_millis() as f64);
        self.apply_dynamic_events(now);
        self.emulation_loop(now);
        drop(span);
        Some(now + self.config.loop_interval)
    }
}

/// The eager oracle of first-send chain creation, and the
/// rebuild-everything oracle of the loop's kept state.
#[cfg(test)]
impl KollapsDataplane {
    /// Makes every loop derive its whole solver input afresh, on every
    /// manager and for the omniscient target.
    pub(crate) fn rebuild_every_loop(&mut self) {
        self.rebuilding = true;
        self.managers
            .iter_mut()
            .for_each(EmulationManager::rebuild_every_loop);
    }

    /// The oracle of [`KollapsDataplane::update_convergence`]: the
    /// omniscient input derived afresh from the managers' usage tables and
    /// cached paths, and solved, on every call.
    fn update_convergence_rebuilding(&mut self) -> f64 {
        let collapsed = Arc::clone(&self.collapsed);
        let mut flows: Vec<FlowRef<'_>> = Vec::new();
        let mut keys: Vec<(usize, Addr, Addr)> = Vec::new();
        for (mi, manager) in self.managers.iter().enumerate() {
            // The usage table is already sorted by pair, and every pair
            // with usage has its path cached next to its chain.
            for &((src, dst), _) in manager.local_usages() {
                let Some(flow) = manager.flow_path(src, dst) else {
                    continue;
                };
                flows.push(flow.flow_ref());
                keys.push((mi, src, dst));
            }
        }
        self.last_tick_idle = flows.is_empty();
        if self.last_tick_idle {
            return 0.0;
        }
        let omniscient = self.omniscient.solve(&flows, collapsed.link_table());
        self.convergence_solves += 1;
        let mut host_gaps = vec![0.0f64; self.managers.len()];
        for (&(mi, src, dst), target) in keys.iter().zip(omniscient) {
            let target = target.as_bps() as f64;
            if target <= 0.0 {
                continue;
            }
            let Some(enforced) = self.managers[mi].allocation(src, dst) else {
                continue;
            };
            let g = (enforced.as_bps() as f64 - target).abs() / target;
            host_gaps[mi] = host_gaps[mi].max(g);
        }
        for (series, &g) in self.host_gap_series.iter_mut().zip(&host_gaps) {
            series.push(g);
        }
        host_gaps.into_iter().fold(0.0, f64::max)
    }

    /// Installs the chain of every local pair with a path on every manager
    /// now, and again after every delta.
    pub(crate) fn install_every_chain(&mut self) {
        self.managers
            .iter_mut()
            .for_each(EmulationManager::install_eagerly);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use kollaps_sim::units::Bandwidth;
    use kollaps_topology::events::{DynamicAction, DynamicEvent, LinkChange};
    use kollaps_topology::generators;
    use kollaps_transport::tcp::{TcpSenderConfig, TransferSize};

    #[test]
    fn point_to_point_latency_is_emulated() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(20),
            SimDuration::ZERO,
        );
        let dp = KollapsDataplane::with_defaults(topo, 1);
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        let probe = rt.add_ping(
            client,
            server,
            SimDuration::from_millis(100),
            50,
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(10));
        let rtts = rt.ping_rtts(probe).unwrap();
        assert_eq!(rtts.len(), 50);
        // RTT ≈ 2 × 20 ms plus the (small) container overhead.
        assert!((rtts.mean() - 40.0).abs() < 0.5, "mean rtt {}", rtts.mean());
    }

    #[test]
    fn single_flow_reaches_the_collapsed_bandwidth() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let dp = KollapsDataplane::with_defaults(topo, 1);
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        let flow = rt.add_tcp_flow(
            client,
            server,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(10));
        let bytes = rt.tcp_received_bytes(flow);
        let mbps = DataSize::from_bytes(bytes)
            .rate_over(SimDuration::from_secs(10))
            .as_mbps();
        // Goodput should sit a few percent below the 50 Mb/s shaped rate
        // (header overhead + slow start), like Table 2's -5 % column.
        assert!((42.0..=50.0).contains(&mbps), "goodput {mbps} Mb/s");
    }

    #[test]
    fn two_flows_share_a_bottleneck_by_rtt() {
        // Figure 8, first 120 seconds: C1 and C2 share the 50 Mb/s B1-B2
        // link 23.08 / 26.92 according to their RTTs.
        let (topo, clients, servers) = generators::figure8();
        let collapsed = CollapsedTopology::build(&topo);
        let c1 = collapsed.address_of(clients[0]).unwrap();
        let c2 = collapsed.address_of(clients[1]).unwrap();
        let s1 = collapsed.address_of(servers[0]).unwrap();
        let s2 = collapsed.address_of(servers[1]).unwrap();
        let dp = KollapsDataplane::with_defaults(topo, 2);
        let mut rt = Runtime::new(dp);
        let f1 = rt.add_tcp_flow(
            c1,
            s1,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let f2 = rt.add_tcp_flow(
            c2,
            s2,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(30));
        // Measure over the steady-state second half.
        let half = SimTime::from_secs(15);
        let m1 = rt
            .throughput_series(f1)
            .unwrap()
            .mean_between(half, SimTime::from_secs(30));
        let m2 = rt
            .throughput_series(f2)
            .unwrap()
            .mean_between(half, SimTime::from_secs(30));
        assert!((m1 - 23.08).abs() < 3.0, "C1 got {m1} Mb/s");
        assert!((m2 - 26.92).abs() < 3.0, "C2 got {m2} Mb/s");
        assert!(m2 > m1, "the lower-RTT flow must get the larger share");
    }

    #[test]
    fn dynamic_latency_change_is_applied() {
        let (topo, client_node, server_node) = generators::point_to_point(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
        );
        let mut schedule = EventSchedule::new();
        schedule.push(DynamicEvent {
            at: SimDuration::from_secs(5),
            action: DynamicAction::SetLinkProperties {
                orig: "client".into(),
                dest: "server".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(40)),
                    ..LinkChange::default()
                },
            },
        });
        let _ = (client_node, server_node);
        let dp = KollapsDataplane::with_prepared(
            SnapshotTimeline::precompute(&topo, &schedule),
            1,
            &HashMap::new(),
            EmulationConfig::default(),
        );
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        let probe = rt.add_ping(
            client,
            server,
            SimDuration::from_millis(200),
            50,
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(10));
        let rtts = rt.ping_rtts(probe).unwrap();
        let samples = rtts.samples();
        let early: f64 = samples[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = samples[samples.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!((early - 20.0).abs() < 1.0, "early rtt {early}");
        assert!((late - 80.0).abs() < 2.0, "late rtt {late}");
        let _ = probe;
    }

    /// The dynamics acceptance property at the dataplane level: applying a
    /// precomputed event touches only the qdisc chains of the paths the
    /// event affected, and the dataplane records that swap cost.
    #[test]
    fn dynamic_event_application_touches_only_the_delta() {
        let (topo, _, _) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let mut schedule = EventSchedule::new();
        schedule.push(DynamicEvent {
            at: SimDuration::from_secs(1),
            action: DynamicAction::SetLinkProperties {
                orig: "client-0".into(),
                dest: "bridge-left".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(25)),
                    ..LinkChange::default()
                },
            },
        });
        let dp = KollapsDataplane::with_prepared(
            SnapshotTimeline::precompute(&topo, &schedule),
            1,
            &HashMap::new(),
            EmulationConfig::default(),
        );
        // 8 services: 56 ordered pairs, precomputed as one delta of 14
        // (every pair involving client-0).
        assert_eq!(dp.timeline().len(), 1);
        assert_eq!(dp.timeline().deltas()[0].swap_cost(), 14);
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(4);
        let mut rt = Runtime::new(dp);
        rt.add_udp_flow(client, server, Bandwidth::from_mbps(5), SimTime::ZERO, None);
        let _ = rt.run_until(SimTime::from_secs(2));
        let stats = rt.dataplane.dynamics();
        assert_eq!(stats.snapshots_applied, 1);
        assert_eq!(stats.events_applied, 1);
        assert_eq!(stats.changed_paths_last, 14);
        assert_eq!(stats.changed_paths_max, 14);
        assert_eq!(stats.pair_count, 56);
        // Every touched chain belongs to the single host; far fewer than
        // the 56 chains a full reinstall would rewrite.
        assert_eq!(stats.chains_touched_total, 14);
        assert!(stats.mean_swap_cost() < stats.pair_count as f64);
    }

    #[test]
    fn metadata_traffic_is_zero_on_a_single_host() {
        let (topo, _, _) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let collapsed = CollapsedTopology::build(&topo);
        let pairs: Vec<(Addr, Addr)> = (0..4)
            .map(|i| {
                (
                    collapsed
                        .address_of(topo.node_by_name(&format!("client-{i}")).unwrap())
                        .unwrap(),
                    collapsed
                        .address_of(topo.node_by_name(&format!("server-{i}")).unwrap())
                        .unwrap(),
                )
            })
            .collect();
        for hosts in [1usize, 4] {
            let dp = KollapsDataplane::with_defaults(topo.clone(), hosts);
            let mut rt = Runtime::new(dp);
            for &(c, s) in &pairs {
                rt.add_udp_flow(c, s, Bandwidth::from_mbps(10), SimTime::ZERO, None);
            }
            let _ = rt.run_until(SimTime::from_secs(5));
            let bytes = rt.dataplane.metadata_accounting().total_network_bytes();
            if hosts == 1 {
                assert_eq!(bytes, 0, "single host must not use the network");
            } else {
                assert!(bytes > 0, "multi-host deployments exchange metadata");
            }
        }
    }

    #[test]
    fn unknown_destination_is_dropped_not_panicked() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let mut dp = KollapsDataplane::with_defaults(topo, 1);
        let client = dp.address_of_index(0);
        let ghost = Addr::container(99);
        let pkt = Packet::new(
            1,
            kollaps_netmodel::packet::FlowId(1),
            client,
            ghost,
            kollaps_netmodel::packet::MTU,
            kollaps_netmodel::packet::PacketKind::Udp,
            SimTime::ZERO,
        );
        assert_eq!(
            dp.send(SimTime::ZERO, pkt),
            SendOutcome::Dropped(kollaps_netmodel::packet::DropReason::Unreachable)
        );
        // Driving a whole flow towards the unknown address must not panic
        // the emulation loop either — the packets are simply lost.
        let mut rt = Runtime::new(dp);
        let flow = rt.add_udp_flow(client, ghost, Bandwidth::from_mbps(1), SimTime::ZERO, None);
        let _ = rt.run_until(SimTime::from_secs(2));
        assert_eq!(rt.udp_delivered_bytes(flow), 0);
    }

    #[test]
    fn node_leave_mid_flow_degrades_gracefully() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let mut schedule = EventSchedule::new();
        schedule.push(DynamicEvent {
            at: SimDuration::from_secs(2),
            action: DynamicAction::NodeLeave {
                name: "server".into(),
            },
        });
        let dp = KollapsDataplane::with_prepared(
            SnapshotTimeline::precompute(&topo, &schedule),
            1,
            &HashMap::new(),
            EmulationConfig::default(),
        );
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        let flow = rt.add_tcp_flow(
            client,
            server,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        // The emulation loop used to `expect("active path")` here; now the
        // run completes and the flow just stops making progress.
        let _ = rt.run_until(SimTime::from_secs(6));
        assert!(rt.tcp_received_bytes(flow) > 0, "flow ran before the event");
        let stalled = rt
            .throughput_series(flow)
            .unwrap()
            .mean_between(SimTime::from_secs(4), SimTime::from_secs(6));
        assert!(
            stalled < 1.0,
            "flow must stall after the node left: {stalled}"
        );
    }

    /// Builds a 2-pair dumbbell with each client/server pair pinned to its
    /// own physical host, so the two competing flows are managed by two
    /// different Emulation Managers that only know each other via metadata.
    fn split_dumbbell(config: EmulationConfig) -> (KollapsDataplane, (Addr, Addr), (Addr, Addr)) {
        let (topo, clients, servers) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let pinned: HashMap<kollaps_topology::model::NodeId, u32> = [
            (clients[0], 0),
            (servers[0], 0),
            (clients[1], 1),
            (servers[1], 1),
        ]
        .into_iter()
        .collect();
        let collapsed = CollapsedTopology::build(&topo);
        let c0 = collapsed.address_of(clients[0]).unwrap();
        let s0 = collapsed.address_of(servers[0]).unwrap();
        let c1 = collapsed.address_of(clients[1]).unwrap();
        let s1 = collapsed.address_of(servers[1]).unwrap();
        let timeline = SnapshotTimeline::precompute(&topo, &EventSchedule::new());
        let dp = KollapsDataplane::with_prepared(timeline, 2, &pinned, config);
        assert_eq!(dp.placement_of(c0), Some(kollaps_metadata::bus::HostId(0)));
        assert_eq!(dp.placement_of(c1), Some(kollaps_metadata::bus::HostId(1)));
        (dp, (c0, s0), (c1, s1))
    }

    /// The acceptance test of the decentralization refactor: with a nonzero
    /// metadata delay, a manager reacts to a remote flow exactly one loop
    /// iteration later than with instantaneous metadata, because it enforces
    /// only from what the bus has *delivered*.
    #[test]
    fn reaction_to_a_remote_flow_lags_by_one_loop_with_delayed_metadata() {
        let bottleneck = Bandwidth::from_mbps(50);
        for (delay_us, lagged) in [(0u64, false), (10_000, true)] {
            let config = EmulationConfig {
                metadata_delay: SimDuration::from_micros(delay_us),
                ..EmulationConfig::default()
            };
            let (dp, (c0, s0), (c1, s1)) = split_dumbbell(config);
            let mut rt = Runtime::new(dp);
            // Flow A (host 0) starts immediately; flow B (host 1) joins
            // mid-interval, so its usage is first measured — and published —
            // at the 150 ms loop boundary.
            rt.add_udp_flow(c0, s0, Bandwidth::from_mbps(40), SimTime::ZERO, None);
            rt.add_udp_flow(
                c1,
                s1,
                Bandwidth::from_mbps(40),
                SimTime::from_millis(125),
                None,
            );
            // Just after the 150 ms loop: with instantaneous metadata the
            // host-0 manager already shares the bottleneck; with a 10 ms
            // delay B's publication is still in flight, so A keeps the full
            // 50 Mb/s.
            let _ = rt.run_until(SimTime::from_millis(155));
            let at_150 = rt.dataplane.allocation(c0, s0).expect("A active");
            if lagged {
                assert_eq!(at_150, bottleneck, "stale view must keep the old rate");
                // The convergence metric sees exactly this disagreement: the
                // omniscient allocation already splits the link 25/25.
                let gap = rt.dataplane.convergence().last_gap;
                assert!(gap > 0.5, "expected a large convergence gap, got {gap}");
            } else {
                assert!(
                    (at_150.as_mbps() - 25.0).abs() < 1.0,
                    "instant metadata must share immediately: {at_150}"
                );
            }
            // One loop later the delayed publication has been absorbed and
            // both managers agree with the omniscient split again.
            let _ = rt.run_until(SimTime::from_millis(205));
            let at_200 = rt.dataplane.allocation(c0, s0).expect("A active");
            assert!(
                (at_200.as_mbps() - 25.0).abs() < 1.0,
                "after one loop the share must converge: {at_200}"
            );
            assert!(rt.dataplane.convergence().last_gap < 0.05);
            if lagged {
                assert!(rt.dataplane.convergence().max_gap > 0.5);
            }
        }
    }

    /// The property the distributed runtime's report merge rests on: the
    /// per-host gap series partition the global metric. Each scored
    /// iteration's global gap is the max over that iteration's per-host
    /// gaps, so max/last/mean are all reconstructible from the series.
    #[test]
    fn host_gap_series_partition_the_global_gap() {
        let (dp, (c0, s0), (c1, s1)) = split_dumbbell(EmulationConfig::default());
        let mut rt = Runtime::new(dp);
        rt.add_udp_flow(c0, s0, Bandwidth::from_mbps(40), SimTime::ZERO, None);
        rt.add_udp_flow(
            c1,
            s1,
            Bandwidth::from_mbps(40),
            SimTime::from_millis(125),
            None,
        );
        let _ = rt.run_until(SimTime::from_secs(2));
        let stats = rt.dataplane.convergence();
        assert!(stats.samples > 0);
        let series = rt.dataplane.host_gap_series();
        assert_eq!(series.len(), 2);
        for s in series {
            assert_eq!(s.len() as u64, stats.samples, "series stay sample-aligned");
        }
        let merged: Vec<f64> = (0..stats.samples as usize)
            .map(|i| series.iter().map(|s| s[i]).fold(0.0, f64::max))
            .collect();
        let max = merged.iter().copied().fold(0.0, f64::max);
        let sum: f64 = merged.iter().sum();
        assert!((max - stats.max_gap).abs() < 1e-12);
        assert!((sum - stats.sum_gap).abs() < 1e-9);
        assert!((merged.last().unwrap() - stats.last_gap).abs() < 1e-12);
    }

    /// `from_host_series` against the two folds it replaced: the
    /// dataplane's per-tick fold over each scored flow's gap, and the
    /// coordinator's per-sample fold over series of unequal length. All
    /// four fields must agree bit for bit.
    #[test]
    fn from_host_series_matches_the_per_tick_fold() {
        fn bits(s: ConvergenceStats) -> [u64; 4] {
            [
                s.last_gap.to_bits(),
                s.max_gap.to_bits(),
                s.sum_gap.to_bits(),
                s.samples,
            ]
        }
        let mut rng = SimRng::new(38);
        for case in 0..200 {
            let hosts = if case % 4 == 0 {
                1
            } else {
                1 + rng.gen_index(4)
            };
            let zero_host = rng.gen_index(hosts + 1);
            let gap = |rng: &mut SimRng, host: usize| {
                if host == zero_host || rng.chance(0.2) {
                    0.0
                } else {
                    rng.next_f64() * 2.0
                }
            };

            // Per tick, every scored flow's gap folds into the global gap
            // and its host's gap; the host gaps extend the series.
            let mut per_tick = ConvergenceStats::default();
            let mut series = vec![Vec::new(); hosts];
            for _ in 0..rng.gen_index(30) {
                let mut global = 0.0f64;
                let mut host_gaps = vec![0.0f64; hosts];
                for (host, host_gap) in host_gaps.iter_mut().enumerate() {
                    for _ in 0..rng.gen_index(4) {
                        let g = gap(&mut rng, host);
                        global = global.max(g);
                        *host_gap = host_gap.max(g);
                    }
                }
                per_tick.record(global);
                for (s, g) in series.iter_mut().zip(host_gaps) {
                    s.push(g);
                }
            }
            let folded = ConvergenceStats::from_host_series(&series);
            assert_eq!(bits(folded), bits(per_tick), "case {case}");

            // Unequal lengths: sample `i` is the max over the hosts that
            // have one.
            let series: Vec<Vec<f64>> = (0..hosts)
                .map(|host| {
                    let len = rng.gen_index(20);
                    (0..len).map(|_| gap(&mut rng, host)).collect()
                })
                .collect();
            let mut per_sample = ConvergenceStats::default();
            let len = series.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..len {
                let mut global = 0.0f64;
                for host in &series {
                    if let Some(&g) = host.get(i) {
                        global = global.max(g);
                    }
                }
                per_sample.record(global);
            }
            let folded = ConvergenceStats::from_host_series(&series);
            assert_eq!(bits(folded), bits(per_sample), "case {case}");
        }
    }

    #[test]
    fn convergence_gap_is_zero_on_a_single_host() {
        let (topo, _, _) = generators::figure8();
        let config = EmulationConfig {
            metadata_delay: SimDuration::ZERO,
            ..EmulationConfig::default()
        };
        let dp = KollapsDataplane::with_prepared(
            SnapshotTimeline::precompute(&topo, &EventSchedule::new()),
            1,
            &HashMap::new(),
            config,
        );
        let c1 = dp.address_of_index(0);
        let s1 = dp.address_of_index(6);
        let c2 = dp.address_of_index(1);
        let s2 = dp.address_of_index(7);
        let mut rt = Runtime::new(dp);
        rt.add_udp_flow(c1, s1, Bandwidth::from_mbps(40), SimTime::ZERO, None);
        rt.add_udp_flow(c2, s2, Bandwidth::from_mbps(40), SimTime::ZERO, None);
        let _ = rt.run_until(SimTime::from_secs(2));
        let stats = rt.dataplane.convergence();
        assert!(stats.samples > 0, "loop iterations must be scored");
        assert!(
            stats.max_gap < 1e-9,
            "one host sees everything locally: gap {}",
            stats.max_gap
        );
    }

    #[test]
    fn explicit_placement_pins_containers_to_hosts() {
        let (topo, clients, servers) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        // Pin everything onto host 1 of 3 (round-robin would spread them).
        let pinned: HashMap<kollaps_topology::model::NodeId, u32> = clients
            .iter()
            .chain(servers.iter())
            .map(|&n| (n, 1u32))
            .collect();
        let collapsed = CollapsedTopology::build(&topo);
        let timeline = SnapshotTimeline::precompute(&topo, &EventSchedule::new());
        let dp = KollapsDataplane::with_prepared(timeline, 3, &pinned, EmulationConfig::default());
        assert_eq!(dp.host_count(), 3);
        for (_, addr) in collapsed.addresses() {
            assert_eq!(
                dp.placement_of(addr),
                Some(kollaps_metadata::bus::HostId(1))
            );
        }
        assert_eq!(dp.managers()[1].container_count(), 4);
        assert_eq!(dp.managers()[0].container_count(), 0);
        assert_eq!(dp.managers()[2].container_count(), 0);
    }

    /// Woken by the wake index alone, `deliver` still hands same-instant
    /// packets from different hosts to the delivery queue in (host,
    /// container address) order — whatever order they were sent in.
    #[test]
    fn same_instant_packets_drain_in_host_then_address_order() {
        let (topo, clients, servers) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        let mut dp = KollapsDataplane::with_defaults(topo, 4);
        let addr = |dp: &KollapsDataplane, node| dp.collapsed().address_of(node).unwrap();
        // Every container sends one packet across the trunk to a container
        // on another host: equal path latency, equal physical-hop delay.
        let mut sends: Vec<(Addr, Addr)> = Vec::new();
        for (from, to) in [(&clients, &servers), (&servers, &clients)] {
            for &src in from.iter() {
                let src = addr(&dp, src);
                let dst = to
                    .iter()
                    .map(|&d| addr(&dp, d))
                    .find(|&d| dp.placement_of(d) != dp.placement_of(src))
                    .expect("a peer on another host");
                sends.push((src, dst));
            }
        }
        for (i, &(src, dst)) in sends.iter().rev().enumerate() {
            let pkt = Packet::new(
                i as u64,
                kollaps_netmodel::packet::FlowId(i as u64),
                src,
                dst,
                kollaps_netmodel::packet::MTU,
                kollaps_netmodel::packet::PacketKind::Udp,
                SimTime::ZERO,
            );
            assert_eq!(dp.send(SimTime::ZERO, pkt), SendOutcome::Sent);
        }
        let mut arrived: Vec<Addr> = Vec::new();
        let mut now = SimTime::ZERO;
        // What each `deliver` may poll: the due trees, and no other (no
        // chain is removed here).
        let mut due_trees = 0;
        while let Some(wake) = dp.next_wakeup(now) {
            now = wake.max(now);
            due_trees += dp.managers().iter().map(|m| m.due_trees(now)).sum::<u64>();
            arrived.extend(dp.deliver(now).iter().map(|p| p.src));
        }
        let mut expected: Vec<Addr> = sends.iter().map(|&(src, _)| src).collect();
        expected.sort_by_key(|&a| (dp.placement_of(a), a));
        assert_eq!(arrived, expected);
        assert!(
            expected.windows(2).any(|w| w[0] > w[1]),
            "two containers per host: host order must differ from address order"
        );
        let stats = dp.packet_path_stats();
        assert_eq!(stats.trees_emitted, 8);
        assert_eq!(stats.trees_visited, due_trees);
        assert!(
            stats.trees_visited < stats.deliver_calls * 8,
            "the last `deliver` only empties the delivery queue"
        );
    }

    #[test]
    fn allocation_is_exposed_for_inspection() {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let dp = KollapsDataplane::with_defaults(topo, 1);
        let client = dp.address_of_index(0);
        let server = dp.address_of_index(1);
        let mut rt = Runtime::new(dp);
        rt.add_tcp_flow(
            client,
            server,
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(5));
        let alloc = rt.dataplane.allocation(client, server).unwrap();
        assert!((alloc.as_mbps() - 10.0).abs() < 0.5, "allocation {alloc}");
        assert!(rt.dataplane.measured_usage(client, server).is_some());
    }

    /// First-send chain creation against the eager oracle (a chain for
    /// every local pair with a path, at construction and after every
    /// delta): seeded runs on two hosts must produce the same flows, pings,
    /// metadata, convergence and dynamics counters, `chains_touched`
    /// included. The schedule cuts a bandwidth and edits a latency before
    /// the pairs' first sends, takes a link away and brings it back slower,
    /// then raises it before its first send, drops and restores a link
    /// under traffic within one loop interval, and takes a bridge away and
    /// back; TCP and UDP flows start after those changes.
    ///
    /// Mutation-checked: creating a chain at the current rate instead of
    /// its creation rate, ignoring the creation-rate table, and counting
    /// `chains_touched` only for chains that exist each fail this test.
    #[test]
    fn first_send_chains_match_the_eager_oracle() {
        let (topo, _, _) = generators::dumbbell(
            5,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        let rate = |mbps| LinkChange {
            up: Some(Bandwidth::from_mbps(mbps)),
            down: Some(Bandwidth::from_mbps(mbps)),
            latency: Some(SimDuration::from_millis(1)),
            ..LinkChange::default()
        };
        let event = |ms, action| DynamicEvent {
            at: SimDuration::from_millis(ms),
            action,
        };
        let set = |ms, orig: &str, change| {
            let (orig, dest) = (orig.into(), "bridge-left".into());
            event(ms, DynamicAction::SetLinkProperties { orig, dest, change })
        };
        let join = |ms, orig: &str, dest: &str, change| {
            let (orig, dest) = (orig.into(), dest.into());
            event(ms, DynamicAction::LinkJoin { orig, dest, change })
        };
        let leave = |ms, orig: &str| {
            let (orig, dest) = (orig.into(), "bridge-left".into());
            event(ms, DynamicAction::LinkLeave { orig, dest })
        };
        let mut events = vec![
            set(300, "client-0", rate(5)),
            set(
                300,
                "client-1",
                LinkChange {
                    latency: Some(SimDuration::from_millis(7)),
                    ..LinkChange::default()
                },
            ),
            leave(400, "client-2"),
            join(600, "client-2", "bridge-left", rate(10)),
            set(800, "client-2", rate(50)),
            leave(1_010, "client-3"),
            join(1_030, "client-3", "bridge-left", rate(100)),
            event(
                1_500,
                DynamicAction::NodeLeave {
                    name: "bridge-right".into(),
                },
            ),
            event(
                1_700,
                DynamicAction::NodeJoin {
                    name: "bridge-right".into(),
                },
            ),
            join(1_700, "bridge-left", "bridge-right", rate(50)),
        ];
        for i in 0..5 {
            events.push(join(
                1_700,
                "bridge-right",
                &format!("server-{i}"),
                rate(100),
            ));
        }
        let timeline = SnapshotTimeline::precompute(&topo, &EventSchedule::from_events(events));
        let addr = |name: &str| {
            let node = topo.node_by_name(name).expect("dumbbell node");
            timeline.initial().address_of(node).expect("service")
        };
        let ms = SimTime::from_millis;
        let run = |seed: u64, eager: bool| {
            let config = EmulationConfig {
                seed,
                ..EmulationConfig::default()
            };
            let mut dp =
                KollapsDataplane::with_prepared(timeline.clone(), 2, &HashMap::new(), config);
            if eager {
                dp.install_every_chain();
            }
            let mut rt = Runtime::new(dp);
            let tcp = |rt: &mut Runtime<KollapsDataplane>, src, dst, start| {
                let (src, dst) = (addr(src), addr(dst));
                let config = TcpSenderConfig::default();
                rt.add_tcp_flow(src, dst, TransferSize::Unbounded, config, start)
            };
            let tcp_flows = [
                tcp(&mut rt, "client-3", "server-4", ms(100)),
                tcp(&mut rt, "client-0", "server-0", ms(500)),
                tcp(&mut rt, "client-2", "server-2", ms(1_000)),
                tcp(&mut rt, "server-1", "client-0", ms(2_000)),
            ];
            let udp = |rt: &mut Runtime<KollapsDataplane>, src, dst, mbps, start| {
                let rate = Bandwidth::from_mbps(mbps);
                rt.add_udp_flow(addr(src), addr(dst), rate, start, None)
            };
            let udp_flows = [
                udp(&mut rt, "client-3", "server-3", 8, ms(0)),
                udp(&mut rt, "client-1", "server-1", 20, ms(500)),
            ];
            let ping = rt.add_ping(
                addr("client-4"),
                addr("server-4"),
                SimDuration::from_millis(60),
                40,
                ms(200),
            );
            let events = rt.run_until(SimTime::from_secs(3));
            let outputs = format!(
                "{events:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
                tcp_flows.map(|f| rt.tcp_received_bytes(f)),
                tcp_flows.map(|f| rt.throughput_series(f).cloned()),
                udp_flows.map(|f| rt.udp_delivered_bytes(f)),
                rt.ping_rtts(ping),
                rt.dataplane.metadata_accounting().total_network_bytes(),
                rt.dataplane.convergence(),
                rt.dataplane.dynamics(),
                rt.event_loop_stats(),
                rt.dataplane.packet_path_stats().trees_emitted,
            );
            let dynamics = rt.dataplane.dynamics();
            assert_eq!(dynamics.snapshots_applied, 8, "every change time applied");
            assert!(tcp_flows.iter().all(|&f| rt.tcp_received_bytes(f) > 0));
            assert!(udp_flows.iter().all(|&f| rt.udp_delivered_bytes(f) > 0));
            (
                outputs,
                dynamics.chains_touched_total,
                rt.dataplane.packet_path_stats().chains_installed,
            )
        };
        for seed in [1, 2] {
            let (eager, eager_touched, eager_chains) = run(seed, true);
            let (lazy, lazy_touched, lazy_chains) = run(seed, false);
            assert_eq!(lazy_touched, eager_touched, "seed {seed}: chains_touched");
            assert_eq!(lazy, eager, "seed {seed}");
            // Seven pairs carry traffic (ping and TCP replies included: the
            // reverse pairs send too); the oracle holds a chain for each of
            // the 90 ordered pairs, plus the re-created ones.
            assert!(
                lazy_chains < eager_chains / 4,
                "{lazy_chains} of {eager_chains}"
            );
        }
    }

    /// The loop's kept state against the rebuild-everything oracle,
    /// through the whole dataplane: three hosts, a metadata delay, UDP
    /// flows that join and leave, and deltas that widen a trunk no path is
    /// limited by (so only the link table moves), move an access latency,
    /// and cut a reverse path's capacity. Every loop must leave the same
    /// per-host gap series and enforced rates, and the run the same
    /// deliveries and counters, while the kept run solves the omniscient
    /// target only on the loops whose inputs moved.
    ///
    /// Mutation-checked: keeping the omniscient target across a move of a
    /// manager's local flows, and keeping a manager's local flows across a
    /// snapshot swap, each fail this test.
    #[test]
    fn kept_state_matches_the_rebuilding_oracle_loop_by_loop() {
        let (topo, clients, servers) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(40),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        let event = |ms, orig: &str, dest: &str, change| DynamicEvent {
            at: SimDuration::from_millis(ms),
            action: DynamicAction::SetLinkProperties {
                orig: orig.into(),
                dest: dest.into(),
                change,
            },
        };
        let wider = Some(Bandwidth::from_mbps(60));
        let schedule = EventSchedule::from_events(vec![
            event(
                400,
                "bridge-left",
                "bridge-right",
                LinkChange {
                    up: wider,
                    down: wider,
                    ..LinkChange::default()
                },
            ),
            event(
                700,
                "client-1",
                "bridge-left",
                LinkChange {
                    latency: Some(SimDuration::from_millis(4)),
                    ..LinkChange::default()
                },
            ),
            event(
                1_000,
                "bridge-right",
                "server-2",
                LinkChange {
                    down: Some(Bandwidth::from_mbps(20)),
                    ..LinkChange::default()
                },
            ),
        ]);
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let pinned: HashMap<NodeId, u32> = (0..3)
            .flat_map(|i| [(clients[i], i as u32), (servers[i], i as u32)])
            .collect();
        let addr = |node| timeline.initial().address_of(node).expect("a service");
        let ms = SimTime::from_millis;
        let flows = [
            (clients[0], servers[0], 30, 0, None),
            (clients[1], servers[1], 30, 250, Some(1_300)),
            (servers[2], clients[0], 3, 300, None),
            (clients[2], servers[2], 20, 550, None),
            (clients[0], servers[1], 5, 900, Some(1_100)),
        ];
        let build = |rebuilding: bool| {
            let config = EmulationConfig {
                metadata_delay: SimDuration::from_millis(20),
                ..EmulationConfig::default()
            };
            let mut dp = KollapsDataplane::with_prepared(timeline.clone(), 3, &pinned, config);
            if rebuilding {
                dp.rebuild_every_loop();
            }
            let mut rt = Runtime::new(dp);
            let ids = flows.map(|(src, dst, mbps, start, stop)| {
                let rate = Bandwidth::from_mbps(mbps);
                rt.add_udp_flow(addr(src), addr(dst), rate, ms(start), stop.map(ms))
            });
            (rt, ids)
        };
        let ((mut kept, ids), (mut oracle, _)) = (build(false), build(true));
        let pairs: Vec<(Addr, Addr)> = flows
            .iter()
            .map(|&(src, dst, ..)| (addr(src), addr(dst)))
            .collect();
        for step in 1..=32 {
            let until = ms(50 * step);
            kept.run_until(until);
            oracle.run_until(until);
            let (a, b) = (&kept.dataplane, &oracle.dataplane);
            assert_eq!(a.host_gap_series(), b.host_gap_series(), "step {step}");
            for &(src, dst) in &pairs {
                assert_eq!(
                    a.allocation(src, dst),
                    b.allocation(src, dst),
                    "step {step}"
                );
            }
        }
        let (a, b) = (&kept.dataplane, &oracle.dataplane);
        assert_eq!(a.dynamics().snapshots_applied, 3);
        assert_eq!(a.convergence(), b.convergence());
        assert_eq!(a.allocator_stats(), b.allocator_stats());
        assert_eq!(
            ids.map(|f| kept.udp_delivered_bytes(f)),
            ids.map(|f| oracle.udp_delivered_bytes(f))
        );
        let (ours, theirs) = (a.packet_path_stats(), b.packet_path_stats());
        assert_eq!(
            (ours.trees_visited, ours.chains_installed, ours.paths_built),
            (
                theirs.trees_visited,
                theirs.chains_installed,
                theirs.paths_built
            )
        );
        // The oracle solves on every scored loop; the kept run on the loops
        // whose snapshot or active flows moved, and on no other.
        assert_eq!(theirs.convergence_solves, b.convergence().samples);
        assert!(
            ours.convergence_solves > 3 && ours.convergence_solves < theirs.convergence_solves / 2,
            "{} of {}",
            ours.convergence_solves,
            theirs.convergence_solves
        );
        assert!(ours.enforce_flows_rebuilt > 0);
        assert_eq!(theirs.enforce_flows_rebuilt, 0);
    }
}
