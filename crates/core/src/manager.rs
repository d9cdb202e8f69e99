//! The per-host **Emulation Manager** (paper §4.1–4.2): the decentralized
//! unit of the emulation.
//!
//! Each physical host of a deployment runs one [`EmulationManager`]. The
//! manager owns the egress qdisc trees (TCALs) of exactly the containers
//! placed on its host and, on every iteration of the emulation loop,
//!
//! 1. reads and clears the per-destination usage of its **local** TCALs,
//! 2. publishes that usage on the dissemination bus,
//! 3. absorbs whatever remote metadata the physical network has *actually
//!    delivered* by now — with a nonzero metadata delay this is last
//!    iteration's news, and that staleness is the paper's model, not a bug —
//! 4. recomputes the RTT-aware min-max shares from **local usage plus the
//!    received remote view only** (never from global state), and
//! 5. enforces the resulting rates and congestion loss on its local TCALs.
//!
//! Remote flows are known only through their advertised `(used, link ids)`
//! entries. The manager reconstructs their fairness weight from its own
//! collapsed snapshot: the advertised links identify the path, so the RTT is
//! twice the sum of those links' latencies and the demand cap is the minimum
//! capacity along them. Managers on different hosts may therefore transiently
//! disagree about the allocation — the convergence of those local decisions
//! is exactly what the accuracy-vs-staleness experiment measures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use kollaps_metadata::bus::{Bus, Delivery, HostId};
use kollaps_metadata::codec::{FlowUsage, MetadataMessage};
use kollaps_netmodel::egress::{EgressTree, EgressVerdict};
use kollaps_netmodel::netem::NetemConfig;
use kollaps_netmodel::packet::{Addr, Packet};
use kollaps_sim::prelude::*;
use kollaps_topology::model::{LinkId, NodeId};
use kollaps_trace::Recorder;

use crate::collapse::{CollapsedPath, CollapsedTopology, FlowPath, LinkTable};
use crate::emulation::EmulationConfig;
use crate::sharing::{oversubscription_by_slot, Allocator, AllocatorStats, FlowRef};

/// Congestion loss is injected only once a link has stayed oversubscribed
/// for this many consecutive loop iterations. A one-iteration spike is the
/// normal signature of a flow joining (its competitors' htb rates are cut in
/// the same iteration, so the overload clears by itself); injecting loss on
/// top of the rate cut used to crash the established flows' congestion
/// windows far below their new fair share (the staggered-join inaccuracy).
/// Persistent oversubscription — unresponsive senders, or managers enforcing
/// on stale metadata — still draws loss from the second iteration on.
const CONGESTION_GRACE_LOOPS: u32 = 2;

/// A remote host's usage as last received: the message that carried it,
/// shared with the bus's delivery, plus its publish time (for staleness
/// accounting).
#[derive(Debug, Clone, Default)]
pub struct RemoteUsage {
    /// When the message carrying this view was published.
    pub published: SimTime,
    /// The message; its `flows` are the per-flow usage the remote manager
    /// advertised.
    pub message: Arc<MetadataMessage>,
}

/// The manager's wake index: a binary min-heap of `(wake, slot)` entries.
type WakeHeap = BinaryHeap<Reverse<(SimTime, usize)>>;

/// A local pair's cached path: its path and RTT, and its links as the
/// 16-bit ids the metadata wire carries, built once with it and shared with
/// every message that advertises the pair.
struct PairPath {
    flow: FlowPath,
    wire: Arc<[u16]>,
}

impl PairPath {
    fn new(flow: FlowPath) -> Self {
        // Scenario validation rejects topologies whose link ids need more
        // than 16 bits; should one get here anyway, a link that does not
        // fit is left out (the receivers then see the flow unconstrained
        // there) rather than aliased onto another link.
        let wire = flow
            .path
            .links
            .iter()
            .filter_map(|l| u16::try_from(l.0).ok())
            .collect();
        PairPath { flow, wire }
    }
}

/// One local container's egress tree, the paths of its chains and the wake
/// it holds in the manager's wake index.
struct Tcal {
    tree: EgressTree,
    /// The cached path of every chain of the tree, by destination,
    /// ascending: derived when the chain is created and refreshed when a
    /// delta names the pair or its reverse (the RTT reads the reverse
    /// path's latency). Everything the loop reads of a local pair.
    paths: Vec<(Addr, PairPath)>,
    /// `tree.next_wakeup()` as of the last [`Tcal::reindex`]; `None` when
    /// the tree is idle or stalled on zero-rate classes, and while a poll
    /// that popped the tree's entry is under way. A wake-index entry
    /// `(t, slot)` is live only while its tree's `wake` is `Some(t)`.
    wake: Option<SimTime>,
}

/// The cached path towards `dst` in a [`Tcal::paths`] table.
fn path_to(paths: &[(Addr, PairPath)], dst: Addr) -> Option<&PairPath> {
    let i = paths.binary_search_by_key(&dst, |&(at, _)| at).ok()?;
    Some(&paths[i].1)
}

impl Tcal {
    /// Caches `path` as the path towards `dst`, or forgets it on `None`.
    fn cache(&mut self, dst: Addr, path: Option<FlowPath>) {
        match (self.paths.binary_search_by_key(&dst, |&(at, _)| at), path) {
            (Ok(i), Some(path)) => self.paths[i].1 = PairPath::new(path),
            (Ok(i), None) => {
                self.paths.remove(i);
            }
            (Err(i), Some(path)) => self.paths.insert(i, (dst, PairPath::new(path))),
            (Err(_), None) => {}
        }
    }

    /// Recomputes the tree's wake. A changed wake is pushed as a new entry;
    /// the old one goes stale and is dropped when it reaches the top.
    fn reindex(&mut self, now: SimTime, slot: usize, wakes: &mut WakeHeap) {
        let wake = self.tree.next_wakeup(now).filter(|&t| t < SimTime::MAX);
        if wake != self.wake {
            if let Some(new) = wake {
                wakes.push(Reverse((new, slot)));
            }
            self.wake = wake;
        }
    }
}

/// Restores the wake index's two invariants after entries were pushed or
/// trees re-indexed: its top entry is live (so "when next?" is one read),
/// and it holds at most twice as many entries as there are trees — past
/// that it is rebuilt from the trees' `wake` fields, in place.
fn settle(wakes: &mut WakeHeap, egress: &[Tcal]) {
    if wakes.len() > 2 * egress.len() {
        let mut entries = std::mem::take(wakes).into_vec();
        entries.clear();
        entries.extend(
            egress
                .iter()
                .enumerate()
                .filter_map(|(slot, tcal)| Some(Reverse((tcal.wake?, slot)))),
        );
        *wakes = BinaryHeap::from(entries);
    }
    while let Some(&Reverse((wake, slot))) = wakes.peek() {
        if egress[slot].wake == Some(wake) {
            break;
        }
        wakes.pop();
    }
}

/// "No slot": a link the snapshot does not have.
const NO_SLOT: u32 = u32::MAX;

/// `link`'s slot in `table`, or [`NO_SLOT`].
fn slot_of(table: &LinkTable, link: LinkId) -> u32 {
    table.slot(link).map_or(NO_SLOT, |slot| slot as u32)
}

/// Run `i` of a run table: where the run before it ends, to where it ends.
fn run(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = i.checked_sub(1).map_or(0, |j| ends[j] as usize);
    start..ends[i] as usize
}

/// The slots of a run that the link table has.
fn known_slots(slots: &[u32]) -> impl Iterator<Item = usize> + '_ {
    slots
        .iter()
        .filter(|&&slot| slot != NO_SLOT)
        .map(|&slot| slot as usize)
}

/// The solver rows of one remote host's advertised flows, in reused
/// arenas: per flow its links (the advertised ids, widened) with their
/// slots in the snapshot's link table, and the RTT and demand cap rebuilt
/// from them.
#[derive(Default)]
struct RemoteRows {
    /// The message the rows hold for: the one they were derived from, or a
    /// later one advertising the same link ids.
    message: Option<Arc<MetadataMessage>>,
    links: Vec<LinkId>,
    /// `links[i]`'s slot, or [`NO_SLOT`].
    slots: Vec<u32>,
    /// Where each flow's run of `links` and `slots` ends.
    ends: Vec<u32>,
    rtt: Vec<SimDuration>,
    demand: Vec<Bandwidth>,
}

impl RemoteRows {
    /// Derives the rows of `flows` over `table`. Links this snapshot still
    /// knows about contribute latency and capacity; under dynamic events a
    /// remote advertisement can name links that no longer exist here —
    /// managers transiently disagree, and the solver treats such a link as
    /// unconstrained.
    fn derive(&mut self, flows: &[FlowUsage], table: &LinkTable) {
        self.links.clear();
        self.slots.clear();
        self.ends.clear();
        self.rtt.clear();
        self.demand.clear();
        for flow in flows {
            let start = self.slots.len();
            for &id in flow.link_ids.iter() {
                let link = LinkId(u32::from(id));
                self.links.push(link);
                self.slots.push(slot_of(table, link));
            }
            self.ends.push(self.slots.len() as u32);
            let mut one_way = SimDuration::ZERO;
            let mut demand = Bandwidth::MAX;
            for slot in known_slots(&self.slots[start..]) {
                demand = demand.min(table.capacity(slot));
                one_way += table.latency(slot);
            }
            self.rtt.push(if one_way.is_zero() {
                SimDuration::from_millis(1)
            } else {
                one_way * 2
            });
            self.demand.push(demand);
        }
    }

    /// `true` when these rows hold for `message`: it advertises exactly the
    /// link ids of the message they hold for, flow by flow. An id list the
    /// publisher shared with both messages is the same `Arc` and is not
    /// compared.
    fn hold_for(&self, message: &Arc<MetadataMessage>) -> bool {
        let Some(last) = &self.message else {
            return false;
        };
        Arc::ptr_eq(last, message)
            || last.flows.len() == message.flows.len()
                && last.flows.iter().zip(&message.flows).all(|(old, new)| {
                    Arc::ptr_eq(&old.link_ids, &new.link_ids) || old.link_ids == new.link_ids
                })
    }

    /// The rows as solver input.
    fn refs(&self) -> impl Iterator<Item = FlowRef<'_>> {
        (0..self.ends.len()).map(|i| FlowRef {
            links: &self.links[run(&self.ends, i)],
            rtt: self.rtt[i],
            demand: self.demand[i],
        })
    }
}

/// The solver input of the last loop iteration, kept so that the next one
/// re-derives only what moved: the local flows while the snapshot, the
/// cached paths and the set of local pairs with usage stay the same, a
/// remote host's rows while the snapshot and the link ids its message
/// advertises stay the same. Usages are read where they are measured or
/// received, never copied.
#[derive(Default)]
struct KeptInput {
    /// The snapshot the rows were derived on; `None` before the first
    /// loop iteration.
    snapshot: Option<Arc<CollapsedTopology>>,
    /// Every local pair with usage at the last derivation of the local
    /// flows, sorted.
    usage_keys: Vec<(Addr, Addr)>,
    /// The local flows, the pairs with usage that have a cached path, in
    /// pair order. Per flow: its row in the usage table, and where its
    /// cached path sits (its source's tree slot and the position in that
    /// tree's [`Tcal::paths`]; any change to a cache re-derives these).
    local_rows: Vec<u32>,
    local_trees: Vec<u32>,
    local_paths: Vec<u32>,
    /// The slots of the local flows' links, one run per flow.
    local_slots: Vec<u32>,
    local_ends: Vec<u32>,
    /// Local derivations so far: the local flows change only when this
    /// moves (the omniscient convergence target keys on it).
    local_generation: u64,
    /// Per remote host id, the rows of its last message's flows.
    remote: Vec<RemoteRows>,
}

impl KeptInput {
    /// The cached path of local flow `i`.
    fn local_path<'a>(&self, egress: &'a [Tcal], i: usize) -> &'a PairPath {
        let tcal = &egress[self.local_trees[i] as usize];
        &tcal.paths[self.local_paths[i] as usize].1
    }

    /// The local flows as solver input.
    fn local_refs<'a>(&'a self, egress: &'a [Tcal]) -> impl Iterator<Item = FlowRef<'a>> {
        (0..self.local_rows.len()).map(move |i| self.local_path(egress, i).flow.flow_ref())
    }
}

/// The local pairs of `usages` (sorted by pair) that have a cached path,
/// each with its row in `usages`, the slot of its source's tree, the
/// path's position in that tree's [`Tcal::paths`] and the path: the trees
/// are walked along with the pairs, in address order.
fn with_paths<'a>(
    egress: &'a [Tcal],
    usages: &'a [((Addr, Addr), Bandwidth)],
) -> impl Iterator<Item = (usize, usize, usize, &'a PairPath)> + 'a {
    let mut slot = 0;
    usages
        .iter()
        .enumerate()
        .filter_map(move |(row, &((src, dst), _))| {
            while egress.get(slot).is_some_and(|tcal| tcal.tree.owner() < src) {
                slot += 1;
            }
            let tcal = egress.get(slot).filter(|tcal| tcal.tree.owner() == src)?;
            let at = tcal.paths.binary_search_by_key(&dst, |&(at, _)| at).ok()?;
            Some((row, slot, at, &tcal.paths[at].1))
        })
}

/// One host's Emulation Manager: local TCALs, the received remote view and
/// the enforcement state derived from them.
///
/// The per-loop hot state (`usages`, `last_allocation`, `oversub_streak`) is
/// kept in **sorted contiguous vectors** rather than hash maps: the loop
/// walks these tables in key order anyway (publishing and enforcement are
/// order-sensitive for determinism), so sorted vectors drop both the
/// per-loop re-sorts and the hashing churn that dominated profiles at
/// 10k-flow scale. The usage table is walked together with the
/// address-ordered trees, not searched pair by pair.
///
/// **Enforcement from kept state.** Between topology changes only usage
/// numbers move, so the solver input is kept between loop iterations
/// (`KeptInput`). Each local flow's usage row, the position of its cached
/// path and its links' slots in the link table stay while the snapshot
/// `Arc`, the cached paths and the set of local pairs with usage stay the
/// same. A remote host's rows (its advertised links widened, their slots,
/// the RTT and demand rebuilt from them) stay while the snapshot and its
/// message's per-flow link ids stay the same; each publish is a new `Arc`,
/// so the ids are compared. Usages are read where they are measured or
/// received. The solver still sees every call, and its memo answers the
/// unchanged ones; oversubscription reads the kept slots, and the re-rate
/// walks the kept flows with one chain lookup each. Every active pair is
/// still re-rated: a same-rate `set_bandwidth(now, …)` refills the bucket
/// at `now`, and that is observable.
///
/// **A chain on first send.** The htb → netem chain of a local pair is
/// created by the first [`EmulationManager::enqueue`] that finds none while
/// the pair has a path, so per-pair state grows with the pairs that carry
/// traffic, not with services². It is created in exactly the state an
/// eagerly installed chain (one per local pair at construction, plus one per
/// pair a delta gave a path) would be in after idling until then: an idle
/// htb bucket is full whatever its rate, re-configures reset only the rate
/// and the netem settings, and the netem stream is keyed by destination —
/// but the burst and queue limit keep the size the rate the chain was
/// *created* at gave them. So the chain is created at that rate (the
/// initial snapshot's, or the one `creation_rates` kept for a pair a delta
/// gave a path) and then re-configured to the current path.
/// [`EmulationManager::apply_delta`] re-configures and removes only chains
/// that exist, but counts the chains an eager install would have touched.
///
/// **Paths next to their chains.** A snapshot holds trees, not paths (see
/// `crate::collapse`): the manager derives a pair's path and RTT when it
/// creates the pair's chain and keeps them in `Tcal::paths`, so the loop
/// reads a local pair with two binary searches and nothing is derived per
/// iteration. A delta refreshes exactly the cached pairs it names, and
/// those whose reverse it names.
pub struct EmulationManager {
    host: HostId,
    config: EmulationConfig,
    /// This manager's own collapsed snapshot of the topology. Snapshots are
    /// distributed ahead of time (dynamic events are part of the experiment
    /// description), but *usage* only ever arrives through the bus. Shared
    /// read-only (its trees are `O(services × nodes)` — one copy, not one
    /// per host).
    collapsed: Arc<CollapsedTopology>,
    /// The snapshot the manager was built with: a chain first sent on along
    /// a path no delta re-created is created at this snapshot's rate.
    initial: Arc<CollapsedTopology>,
    /// Local pairs a delta gave a path while they had no chain, with the
    /// rate an eager install would have created the chain at then; sorted
    /// by pair. An entry goes when its chain is created or its pair loses
    /// its path.
    creation_rates: Vec<((Addr, Addr), Bandwidth)>,
    /// Chains created since construction (deterministic work counter).
    chains_installed: u64,
    /// Paths derived since construction, for a new chain or a refresh
    /// (deterministic work counter).
    paths_built: u64,
    /// Delta pairs `apply_delta` visited since construction: its local
    /// sources' runs, plus the reverse pairs its refresh found
    /// (deterministic work counter).
    swap_pairs_visited: u64,
    /// The eager oracle: every local pair with a path holds a chain, also
    /// right after a delta.
    #[cfg(test)]
    eager: bool,
    /// Egress qdisc tree per **local** container, one slot each in address
    /// order: trees are drained in that order so that same-instant packets
    /// enter the delivery queue deterministically.
    egress: Vec<Tcal>,
    /// The **wake index**: a binary min-heap holding a live `(wake, slot)`
    /// entry for every local tree that needs service at a finite time, so
    /// the per-event question "when next?" is one read of its top instead
    /// of a poll of every deployed tree. An entry is live only while the
    /// tree's [`Tcal::wake`] equals its time: a re-index pushes the new
    /// wake and leaves the old entry stale, a poll pops the due entries
    /// and clears the wakes they name (so the re-index after it pushes the
    /// tree's next wake, whatever it is), and stale entries are dropped when they reach the top (see
    /// [`settle`], which also bounds the heap to twice the tree count).
    /// Exact, not a hint: the htb refills at `max(dequeue_cursor,
    /// enqueued_at)`, never at the poll time, so a tree's wake is a pure
    /// function of its state and moves only where [`Tcal::reindex`] is
    /// called — an enqueue into an empty htb class, a poll,
    /// `set_bandwidth`, `install_path` and `remove_path`.
    wakes: WakeHeap,
    /// Slots of the local trees that lost a chain since the last poll. The
    /// removed chain's entry stays in that tree's active list until a poll
    /// compacts it, and where the compaction lands among later enqueues
    /// decides the order same-instant packets leave in, so the next
    /// `dequeue_ready_with` polls these trees whatever their wake.
    revisit: Vec<usize>,
    /// Trees `dequeue_ready_with` polled / polled and got packets from,
    /// since construction (deterministic work counters).
    trees_visited: u64,
    trees_emitted: u64,
    /// Latest received usage by remote host id (empty if never heard from).
    remote: Vec<RemoteUsage>,
    /// Local usage measured in the current loop iteration, sorted by pair.
    usages: Vec<((Addr, Addr), Bandwidth)>,
    /// Rates enforced on local pairs in the last iteration, sorted by pair.
    /// Doubles as the set of chains currently holding a non-default rate —
    /// enforcement only rewrites chains entering or leaving this set plus
    /// the active ones, never the full O(pairs²) sweep.
    last_allocation: Vec<((Addr, Addr), Bandwidth)>,
    /// Consecutive loop iterations each link has been oversubscribed,
    /// sorted by link.
    oversub_streak: Vec<(LinkId, u32)>,
    /// The min-max solver; its memo holds across snapshot swaps that keep
    /// every link its flows cross.
    allocator: Allocator,
    /// The solver input, kept between loop iterations.
    kept: KeptInput,
    /// The grants of the local flows, by local flow: a buffer reused by
    /// every `enforce`.
    rates: Vec<Bandwidth>,
    /// `true` once a cached path was added, replaced or dropped since the
    /// local rows were last derived.
    paths_moved: bool,
    /// Local plus remote flows whose solver rows were derived afresh, since
    /// construction (deterministic work counter).
    flows_rebuilt: u64,
    /// The rebuild-everything oracle: `enforce` derives its whole input
    /// afresh on every call.
    #[cfg(test)]
    rebuilding: bool,
    /// Wall-clock microseconds spent in the solver (diagnostic only).
    alloc_micros: u64,
    /// Flight recorder (disabled by default) and this manager's lane in it.
    recorder: Recorder,
    lane: usize,
}

/// Binary-search lookup in a sorted `(key, value)` table.
fn table_get<K: Ord + Copy, V: Copy>(table: &[(K, V)], key: K) -> Option<V> {
    table
        .binary_search_by(|probe| probe.0.cmp(&key))
        .ok()
        .map(|i| table[i].1)
}

/// Removes `key` from a sorted `(key, value)` table if present.
fn table_remove<K: Ord + Copy, V>(table: &mut Vec<(K, V)>, key: K) {
    if let Ok(i) = table.binary_search_by(|probe| probe.0.cmp(&key)) {
        table.remove(i);
    }
}

/// The slot of a local container's tree in the address-ordered `egress`,
/// and the tree.
fn local_tcal(egress: &mut [Tcal], addr: Addr) -> Option<(usize, &mut Tcal)> {
    let slot = egress
        .binary_search_by_key(&addr, |tcal| tcal.tree.owner())
        .ok()?;
    Some((slot, egress.get_mut(slot)?))
}

/// The run of a `(src, dst)`-sorted pair list whose source is `src`.
fn source_run(pairs: &[(NodeId, NodeId)], src: NodeId) -> &[(NodeId, NodeId)] {
    let start = pairs.partition_point(|&(s, _)| s < src);
    let end = start + pairs[start..].partition_point(|&(s, _)| s == src);
    &pairs[start..end]
}

/// The cached path of the local pair `(src, dst)`, if it has a chain.
fn cached(egress: &[Tcal], src: Addr, dst: Addr) -> Option<&FlowPath> {
    let slot = egress
        .binary_search_by_key(&src, |tcal| tcal.tree.owner())
        .ok()?;
    path_to(&egress[slot].paths, dst).map(|pair| &pair.flow)
}

/// The netem stage of a collapsed path's chain.
fn netem_of(path: &CollapsedPath) -> NetemConfig {
    NetemConfig {
        delay: path.latency,
        jitter: path.jitter,
        loss: path.loss,
        ..NetemConfig::default()
    }
}

impl EmulationManager {
    /// Builds the manager for `host`, owning the TCALs of `local` containers.
    /// No chain is installed yet: each is created on its pair's first send.
    pub fn new(
        host: HostId,
        config: EmulationConfig,
        collapsed: Arc<CollapsedTopology>,
        local: &[Addr],
        rng: &SimRng,
    ) -> Self {
        let mut egress: Vec<Tcal> = Vec::new();
        for &addr in local {
            let tree = EgressTree::new(addr, rng.derive(u64::from(addr.as_u32())));
            egress.push(Tcal {
                tree,
                paths: Vec::new(),
                wake: None,
            });
        }
        egress.sort_unstable_by_key(|tcal| tcal.tree.owner());
        egress.dedup_by_key(|tcal| tcal.tree.owner());
        EmulationManager {
            host,
            config,
            initial: Arc::clone(&collapsed),
            collapsed,
            creation_rates: Vec::new(),
            chains_installed: 0,
            paths_built: 0,
            swap_pairs_visited: 0,
            #[cfg(test)]
            eager: false,
            egress,
            wakes: WakeHeap::new(),
            revisit: Vec::new(),
            trees_visited: 0,
            trees_emitted: 0,
            remote: Vec::new(),
            usages: Vec::new(),
            last_allocation: Vec::new(),
            oversub_streak: Vec::new(),
            allocator: Allocator::default(),
            kept: KeptInput::default(),
            rates: Vec::new(),
            paths_moved: false,
            flows_rebuilt: 0,
            #[cfg(test)]
            rebuilding: false,
            alloc_micros: 0,
            recorder: Recorder::disabled(),
            lane: 0,
        }
    }

    /// Attaches a flight recorder: this manager's worker and allocation
    /// spans will land in `lane`. Recording never feeds back into the
    /// emulation (wall-clock-only).
    pub fn set_recorder(&mut self, recorder: Recorder, lane: usize) {
        self.recorder = recorder;
        self.lane = lane;
    }

    /// The physical host this manager runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Number of containers placed on this host.
    pub fn container_count(&self) -> usize {
        self.egress.len()
    }

    /// The rate this manager enforced for a local (src, dst) pair in the
    /// last loop iteration, if the pair was active.
    pub fn allocation(&self, src: Addr, dst: Addr) -> Option<Bandwidth> {
        table_get(&self.last_allocation, (src, dst))
    }

    /// The local usage measured in the last loop iteration.
    pub fn measured_usage(&self, src: Addr, dst: Addr) -> Option<Bandwidth> {
        table_get(&self.usages, (src, dst))
    }

    /// The local usage table of the last loop iteration, sorted by pair.
    pub fn local_usages(&self) -> &[((Addr, Addr), Bandwidth)] {
        &self.usages
    }

    /// Wall-clock microseconds spent inside the bandwidth-sharing solver
    /// since construction (diagnostic only — never feeds back into the
    /// simulation).
    pub fn allocation_micros(&self) -> u64 {
        self.alloc_micros
    }

    /// Work-avoidance counters of the min-max solver.
    pub fn allocator_stats(&self) -> AllocatorStats {
        self.allocator.stats()
    }

    /// Links this manager observed oversubscribed in its most recent loop
    /// iteration (streak ≥ 1 — before the congestion grace period elapses,
    /// so onset is visible even when no loss is injected yet).
    pub fn oversubscribed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.oversub_streak.iter().map(|&(link, _)| link)
    }

    /// Offers a packet from a local container to its egress tree, creating
    /// the chain towards its destination first if the pair has a path but
    /// no chain yet.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> Option<EgressVerdict> {
        let (slot, tcal) = local_tcal(&mut self.egress, packet.src)?;
        let pair = (packet.src, packet.dst);
        if !tcal.tree.has_path(pair.1) {
            if let Some(flow) = self.collapsed.flow_path(pair.0, pair.1) {
                self.paths_built += 1;
                let max_bandwidth = flow.path.max_bandwidth;
                let created_at = match self.creation_rates.binary_search_by_key(&pair, |e| e.0) {
                    Ok(i) => self.creation_rates.remove(i).1,
                    Err(_) => self
                        .initial
                        .max_bandwidth_by_addr(pair.0, pair.1)
                        .unwrap_or(max_bandwidth),
                };
                // Created, then re-configured to the current path: the
                // burst and queue limit keep the creation rate's size.
                let netem = netem_of(&flow.path);
                tcal.tree.install_path(pair.1, netem, created_at);
                tcal.tree.install_path(pair.1, netem, max_bandwidth);
                tcal.cache(pair.1, Some(flow));
                self.paths_moved = true;
                self.chains_installed += 1;
            }
        }
        let (verdict, new_head) = tcal.tree.offer(now, packet);
        if new_head {
            tcal.reindex(now, slot, &mut self.wakes);
            settle(&mut self.wakes, &self.egress);
        }
        Some(verdict)
    }

    /// `true` unless the htb class from local container `src` towards `dst`
    /// is full, i.e. unless an [`EmulationManager::enqueue`] of such a
    /// packet now would be back-pressured.
    pub fn has_room(&self, src: Addr, dst: Addr) -> bool {
        self.egress
            .binary_search_by_key(&src, |tcal| tcal.tree.owner())
            .map_or(true, |slot| self.egress[slot].tree.has_room(dst))
    }

    /// Hands `sink` the packets that finished their collapsed-path
    /// emulation on this host, tree by tree in container-address order.
    /// Only two sets of trees are polled, each re-indexed after: those
    /// whose wake is due by `now` (their entries are popped off the wake
    /// index), and those that lost a chain since the last poll. Polling any
    /// other tree would release nothing and change none of its state.
    pub fn dequeue_ready_with(&mut self, now: SimTime, mut sink: impl FnMut(Packet)) {
        let mut slots = std::mem::take(&mut self.revisit);
        while let Some(&Reverse((wake, slot))) = self.wakes.peek() {
            if wake > now {
                break;
            }
            self.wakes.pop();
            let tcal = &mut self.egress[slot];
            if tcal.wake == Some(wake) {
                tcal.wake = None;
                slots.push(slot);
            }
        }
        slots.sort_unstable();
        slots.dedup();
        for &slot in &slots {
            let tcal = &mut self.egress[slot];
            let mut emitted = false;
            tcal.tree.dequeue_ready_with(now, |pkt| {
                emitted = true;
                sink(pkt);
            });
            self.trees_visited += 1;
            self.trees_emitted += u64::from(emitted);
            tcal.reindex(now, slot, &mut self.wakes);
        }
        settle(&mut self.wakes, &self.egress);
        // Hand the emptied buffer back so the next poll reuses it.
        slots.clear();
        self.revisit = slots;
    }

    /// Earliest time any local TCAL needs service.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.wakes.peek().map(|&Reverse((wake, _))| wake)
    }

    /// `(visited, emitted)`: trees `dequeue_ready_with` polled, and polled with
    /// at least one packet coming out, since construction.
    pub fn trees_drained(&self) -> (u64, u64) {
        (self.trees_visited, self.trees_emitted)
    }

    /// Chains created since construction: on first sends, plus those a
    /// delta re-created for a destination that still counts usage.
    pub fn chains_installed(&self) -> u64 {
        self.chains_installed
    }

    /// Paths derived since construction: one per chain created, plus one
    /// per refresh of a cached pair a delta named (or whose reverse it
    /// named).
    pub fn paths_built(&self) -> u64 {
        self.paths_built
    }

    /// Delta pairs [`EmulationManager::apply_delta`] visited since
    /// construction: the entries of its local sources' runs, plus one per
    /// cached pair whose reverse a delta named.
    pub fn swap_pairs_visited(&self) -> u64 {
        self.swap_pairs_visited
    }

    /// The path and RTT of the local pair `(src, dst)` as this manager's
    /// chain uses them; `None` unless the pair has a chain.
    pub fn flow_path(&self, src: Addr, dst: Addr) -> Option<&FlowPath> {
        cached(&self.egress, src, dst)
    }

    /// Local plus remote flows whose solver rows `enforce` derived afresh,
    /// since construction; every other flow of a loop iteration kept the
    /// rows of the loop before.
    pub fn flows_rebuilt(&self) -> u64 {
        self.flows_rebuilt
    }

    /// The local flows of the last `enforce` as solver input, in pair
    /// order, one per entry of [`EmulationManager::local_allocations`].
    /// They point into the path cache: read them before the next send or
    /// delta.
    pub(crate) fn local_flows(&self) -> impl Iterator<Item = FlowRef<'_>> {
        self.kept.local_refs(&self.egress)
    }

    /// Moves exactly when the local flows' rows are re-derived, which every
    /// snapshot swap does: while it holds, the local flows and the snapshot
    /// they are solved over are those of the last time it moved.
    pub(crate) fn local_generation(&self) -> u64 {
        self.kept.local_generation
    }

    /// The rates the last `enforce` set on local pairs, sorted by pair.
    pub(crate) fn local_allocations(&self) -> &[((Addr, Addr), Bandwidth)] {
        &self.last_allocation
    }

    /// Loop steps 1–2: reads and clears the per-destination usage of every
    /// local TCAL.
    pub fn collect_usage(&mut self) {
        let mut span = self.recorder.span(self.lane, "worker:collect");
        let interval = self.config.loop_interval;
        self.usages.clear();
        for Tcal { tree, .. } in &mut self.egress {
            let src = tree.owner();
            for (dst, bytes) in tree.usage() {
                let mut rate = bytes.rate_over(interval);
                // The token bucket lets a burst through above the shaped
                // rate; reporting that transient as usage would make a
                // single well-behaved flow look like it oversubscribes its
                // own link and draw injected congestion loss. Clamp to the
                // rate the class was actually configured to.
                if let Some(shaped) = tree.bandwidth(dst) {
                    rate = rate.min(shaped);
                }
                if rate.as_bps() > 0 {
                    self.usages.push(((src, dst), rate));
                }
            }
            tree.clear_usage();
        }
        // One sort here replaces the per-loop re-sorts `publish` and
        // `enforce` used to do (a tree yields its usage in the order the
        // destinations first saw bytes).
        self.usages.sort_unstable_by_key(|&(key, _)| key);
        span.arg("local_flows", self.usages.len() as f64);
    }

    /// Loop step 3a: publishes this host's local usage on the bus. Idle
    /// managers publish an empty heartbeat so subscribers can retire the
    /// host's previous advertisement instead of enforcing on it forever.
    pub fn publish(&self, now: SimTime, bus: &mut dyn Bus) {
        // The bus stamps the sender/publish-time header fields; the manager
        // only supplies the payload.
        let mut message = MetadataMessage::new();
        message.flows.reserve(self.usages.len());
        for (row, _, _, pair) in with_paths(&self.egress, &self.usages) {
            let (_, used) = self.usages[row];
            message
                .flows
                .push(FlowUsage::new(used, Arc::clone(&pair.wire)));
        }
        bus.publish(now, self.host, message);
    }

    /// Loop step 3b: absorbs delivered metadata, keeping the newest message
    /// per sender (deliveries can bunch up when the loop outpaces the
    /// network delay).
    pub fn absorb(&mut self, deliveries: Vec<Delivery>) {
        for delivery in deliveries {
            let host = delivery.from.0 as usize;
            if host >= self.remote.len() {
                self.remote.resize_with(host + 1, RemoteUsage::default);
            }
            let view = &mut self.remote[host];
            if view.published <= delivery.published {
                *view = RemoteUsage {
                    published: delivery.published,
                    message: delivery.message,
                };
            }
        }
    }

    /// Loop steps 4–5: recomputes the RTT-aware min-max shares from local
    /// usage plus the received (possibly stale) remote view, and enforces
    /// the resulting rates and congestion loss on the local TCALs.
    pub fn enforce(&mut self, now: SimTime) {
        #[cfg(test)]
        if self.rebuilding {
            return self.enforce_rebuilding(now);
        }
        let mut worker_span = self.recorder.span(self.lane, "worker:enforce");
        let collapsed = Arc::clone(&self.collapsed);
        let table = collapsed.link_table();
        self.refresh_input(&collapsed);

        // The competing flow set, as *this* manager can know it: the local
        // pairs first, then the remote views in host order.
        let kept = &self.kept;
        let local = kept.local_rows.len();
        let mut rates = std::mem::take(&mut self.rates);
        let remote: usize = kept.remote.iter().map(|rows| rows.ends.len()).sum();
        let mut flows: Vec<FlowRef<'_>> = Vec::with_capacity(local + remote);
        flows.extend(kept.local_refs(&self.egress));
        for rows in &kept.remote {
            flows.extend(rows.refs());
        }
        {
            let mut alloc_span = self.recorder.span(self.lane, "allocate");
            let before = self.allocator.stats();
            // kollaps-analyze: allow(wall-clock) -- solver-time diagnostic only; never feeds back into the emulation (pinned by the traced-vs-untraced identity test)
            let start = std::time::Instant::now();
            let grants = self.allocator.solve(&flows, table);
            let micros = start.elapsed().as_micros() as u64;
            // Copying the local grants out ends the allocator's borrow
            // before the qdisc writes below.
            rates.clear();
            rates.extend_from_slice(&grants[..local]);
            self.alloc_micros += micros;
            let delta = self.allocator.stats().since(before);
            alloc_span.arg("flows", flows.len() as f64);
            alloc_span.arg("micros", micros as f64);
            alloc_span.arg("fast_hits", delta.fast_hits as f64);
            alloc_span.arg("components_recomputed", delta.components_recomputed as f64);
        }
        drop(flows);
        // Links whose oversubscription outlasted the grace period, sorted.
        let usages = &self.usages;
        let local_rows = (0..local).map(|i| {
            let slots = &kept.local_slots[run(&kept.local_ends, i)];
            (known_slots(slots), usages[kept.local_rows[i] as usize].1)
        });
        let remote_rows = kept
            .remote
            .iter()
            .zip(&self.remote)
            .flat_map(|(rows, view)| {
                let flows = &view.message.flows;
                (0..rows.ends.len()).map(move |i| {
                    let slots = &rows.slots[run(&rows.ends, i)];
                    (known_slots(slots), flows[i].used())
                })
            });
        let raw = oversubscription_by_slot(local_rows.chain(remote_rows), table);
        // `raw` ascends by link, and so does the streak table built from it.
        self.oversub_streak = raw
            .iter()
            .map(|&(link, _)| (link, table_get(&self.oversub_streak, link).unwrap_or(0) + 1))
            .collect();
        let over: Vec<(LinkId, f64)> = raw
            .into_iter()
            .zip(&self.oversub_streak)
            .filter(|&(_, &(_, streak))| streak >= CONGESTION_GRACE_LOOPS)
            .map(|(ratio, _)| ratio)
            .collect();

        // Enforcement: active local pairs get their computed share; pairs
        // enforced last loop that went idle are restored to the path
        // maximum **once** so new flows are not throttled by stale limits.
        // Chains that were at their defaults and stay idle are not touched
        // at all — the old all-pairs sweep was O(containers²) per loop and
        // capped scaling.
        let previously = std::mem::take(&mut self.last_allocation);
        // Trees (by slot) whose rates were rewritten, re-indexed once each at the end.
        let mut touched: Vec<usize> = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            let (pair, _) = self.usages[kept.local_rows[i] as usize];
            let slot = kept.local_trees[i] as usize;
            let Tcal { tree, paths, .. } = &mut self.egress[slot];
            let (dst, PairPath { flow, .. }) = &paths[kept.local_paths[i] as usize];
            debug_assert_eq!(*dst, pair.1, "a kept path position outlived its cache");
            // Congestion loss: combine the path's intrinsic loss with the
            // worst (persistent) oversubscription along the path.
            let mut congestion = 0.0f64;
            if !over.is_empty() {
                for &link in &flow.path.links {
                    if let Some(o) = table_get(&over, link) {
                        congestion = congestion.max(o);
                    }
                }
            }
            let loss = 1.0 - (1.0 - flow.path.loss) * (1.0 - congestion);
            tree.set_rate_and_loss(now, pair.1, rate, loss);
            if touched.last() != Some(&slot) {
                touched.push(slot);
            }
            // Local flows ascend by pair, so pushes keep the table sorted.
            self.last_allocation.push((pair, rate));
        }
        let mut active = self
            .last_allocation
            .iter()
            .map(|&(pair, _)| pair)
            .peekable();
        for &((src, dst), _) in &previously {
            while active.next_if(|&pair| pair < (src, dst)).is_some() {}
            if active.peek() == Some(&(src, dst)) {
                continue;
            }
            let Some((slot, Tcal { tree, paths, .. })) = local_tcal(&mut self.egress, src) else {
                continue;
            };
            // A pair whose path disappeared had its chain and its path
            // removed by the delta application; nothing to restore then.
            if let Some(PairPath { flow, .. }) = path_to(paths, dst) {
                tree.set_rate_and_loss(now, dst, flow.path.max_bandwidth, flow.path.loss);
                touched.push(slot);
            }
        }
        self.rates = rates;
        self.reindex(now, touched);
        worker_span.arg("enforced_pairs", self.last_allocation.len() as f64);
    }

    /// Brings the kept solver input up to this loop iteration (see
    /// `KeptInput`): re-derives the local flows when the snapshot, the
    /// cached paths or the set of local pairs with usage moved, and a
    /// remote host's rows when the snapshot or its advertised link ids
    /// moved.
    fn refresh_input(&mut self, collapsed: &Arc<CollapsedTopology>) {
        let kept = &mut self.kept;
        let table = collapsed.link_table();
        let same_snapshot = kept
            .snapshot
            .as_ref()
            .is_some_and(|snapshot| Arc::ptr_eq(snapshot, collapsed));
        if !same_snapshot {
            kept.snapshot = Some(Arc::clone(collapsed));
        }
        let same_pairs = kept.usage_keys.len() == self.usages.len()
            && kept
                .usage_keys
                .iter()
                .zip(&self.usages)
                .all(|(kept, (pair, _))| kept == pair);
        if !same_snapshot || !same_pairs || self.paths_moved {
            self.paths_moved = false;
            kept.local_generation += 1;
            kept.usage_keys.clear();
            kept.usage_keys
                .extend(self.usages.iter().map(|&(pair, _)| pair));
            kept.local_rows.clear();
            kept.local_trees.clear();
            kept.local_paths.clear();
            kept.local_slots.clear();
            kept.local_ends.clear();
            for (row, slot, at, pair) in with_paths(&self.egress, &self.usages) {
                kept.local_rows.push(row as u32);
                kept.local_trees.push(slot as u32);
                kept.local_paths.push(at as u32);
                let links = pair.flow.path.links.iter();
                kept.local_slots
                    .extend(links.map(|&link| slot_of(table, link)));
                kept.local_ends.push(kept.local_slots.len() as u32);
            }
            self.flows_rebuilt += kept.local_rows.len() as u64;
        }
        kept.remote
            .resize_with(self.remote.len(), RemoteRows::default);
        for (rows, view) in kept.remote.iter_mut().zip(&self.remote) {
            let flows = &view.message.flows;
            if !same_snapshot || !rows.hold_for(&view.message) {
                rows.derive(flows, table);
                self.flows_rebuilt += flows.len() as u64;
            }
            rows.message = Some(Arc::clone(&view.message));
        }
    }

    /// Applies one precomputed change: swaps the snapshot `Arc` and updates
    /// **only** the existing qdisc chains of local pairs the delta names.
    /// Returns the number of chains an eager install would have touched —
    /// every local pair the delta re-configures or removes, whether its
    /// chain exists yet or not: the per-host share of the swap cost (no
    /// path is recomputed here; the timeline did that offline).
    ///
    /// The delta's lists are sorted by `(src, dst)`, and service ids ascend
    /// like the addresses of the local trees, so each local tree visits only
    /// its own source's run of each list (two binary searches per list), and
    /// the reverse refresh looks each cached pair's reverse up in both
    /// lists. A swap therefore costs `O(trees · log pairs)` plus the local
    /// sources' runs and the cached pairs — not the length of the delta —
    /// and allocates nothing.
    ///
    /// A pair that gains a path here (the delta lists it in
    /// `gained_paths`, read in step with the source's run of
    /// `changed_paths`) and has no chain gets none yet; its creation rate
    /// is kept for its first send. The one exception is a
    /// destination whose removed chain's bytes are still counted this loop
    /// interval: the usage the loop reads next is clamped to the chain's
    /// rate, so that chain is created now, as an eager install would.
    pub fn apply_delta(&mut self, delta: &crate::timeline::SnapshotDelta) -> usize {
        debug_assert!(
            delta.changed_paths.is_sorted()
                && delta.gained_paths.is_sorted()
                && delta.removed_paths.is_sorted(),
            "a delta's pair lists are in (src, dst) order"
        );
        self.collapsed = Arc::clone(&delta.snapshot);
        let collapsed = Arc::clone(&self.collapsed);
        let now = SimTime::ZERO + delta.at;
        let (mut touched, mut removed, mut created) = (0, false, false);
        // Every step below reads and writes one local tree's state only
        // (its chains, its cached paths and its pairs' rows of the sorted
        // tables), so the trees are taken one by one, in slot order — the
        // source order of the lists.
        for slot in 0..self.egress.len() {
            let src = self.egress[slot].tree.owner();
            let Some(node) = collapsed.service_at(src) else {
                continue;
            };
            let tcal = &mut self.egress[slot];
            let mut moved = false;
            let gone = source_run(&delta.removed_paths, node);
            let named = source_run(&delta.changed_paths, node);
            self.swap_pairs_visited += (gone.len() + named.len()) as u64;
            for dst in gone
                .iter()
                .filter_map(|&(_, dst)| collapsed.address_of(dst))
            {
                touched += 1;
                removed = true;
                tcal.cache(dst, None);
                self.paths_moved = true;
                if tcal.tree.remove_path(dst) {
                    moved = true;
                    self.revisit.push(slot);
                }
                table_remove(&mut self.last_allocation, (src, dst));
            }
            // A changed pair has a path (one that lost it is removed), and
            // the gained ones are a sorted subset of the changed ones. A
            // path is walked only for a chain to re-configure or a creation
            // rate to keep.
            let mut gained = source_run(&delta.gained_paths, node).iter().peekable();
            for &pair in named {
                let had_none = gained.next_if(|&&next| next == pair).is_some();
                let Some(dst) = collapsed.address_of(pair.1) else {
                    continue;
                };
                debug_assert!(collapsed.reaches(src, dst), "a changed pair has a path");
                touched += 1;
                let rate = |max_bandwidth| {
                    table_get(&self.last_allocation, (src, dst))
                        .unwrap_or(max_bandwidth)
                        .min(max_bandwidth)
                };
                let exists = tcal.tree.has_path(dst);
                if exists || tcal.tree.has_usage(dst) {
                    if let Some(flow) = collapsed.flow_path(src, dst) {
                        self.paths_built += 1;
                        let rate = rate(flow.path.max_bandwidth);
                        tcal.tree.install_path(dst, netem_of(&flow.path), rate);
                        tcal.cache(dst, Some(flow));
                        self.paths_moved = true;
                        self.chains_installed += u64::from(!exists);
                        moved = true;
                    }
                } else if had_none {
                    // The pair had no path: an eager install creates the
                    // chain here, at `rate`.
                    if let Some(max_bandwidth) = collapsed.max_bandwidth_by_addr(src, dst) {
                        self.creation_rates.push(((src, dst), rate(max_bandwidth)));
                        created = true;
                    }
                }
            }
            // A cached RTT reads the reverse path: refresh every cached pair
            // whose reverse the delta names.
            tcal.paths.retain_mut(|(dst, pair)| {
                let Some(back) = collapsed.service_at(*dst).map(|dst| (dst, node)) else {
                    return true;
                };
                if delta.changed_paths.binary_search(&back).is_err()
                    && delta.removed_paths.binary_search(&back).is_err()
                {
                    return true;
                }
                self.swap_pairs_visited += 1;
                self.paths_built += 1;
                self.paths_moved = true;
                let Some(flow) = collapsed.flow_path(src, *dst) else {
                    return false;
                };
                *pair = PairPath::new(flow);
                true
            });
            if moved {
                tcal.reindex(now, slot, &mut self.wakes);
            }
        }
        settle(&mut self.wakes, &self.egress);
        // Only local pairs hold a creation rate: one the delta removed goes,
        // one it gave a path joins in pair order.
        if removed && !self.creation_rates.is_empty() {
            self.creation_rates.retain(|&((src, dst), _)| {
                let pair = collapsed.service_at(src).zip(collapsed.service_at(dst));
                pair.is_none_or(|pair| delta.removed_paths.binary_search(&pair).is_err())
            });
        }
        if created {
            self.creation_rates.sort_unstable_by_key(|&(pair, _)| pair);
        }
        #[cfg(test)]
        if self.eager {
            self.install_local_paths();
        }
        touched
    }

    /// Re-indexes the wake of every listed local tree (by slot), once each.
    fn reindex(&mut self, now: SimTime, mut slots: Vec<usize>) {
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            if let Some(tcal) = self.egress.get_mut(slot) {
                tcal.reindex(now, slot, &mut self.wakes);
            }
        }
        settle(&mut self.wakes, &self.egress);
    }
}

/// A chain's pair, rate and netem settings, as the oracle tests compare
/// them.
#[cfg(test)]
type ChainSettings = ((Addr, Addr), Option<Bandwidth>, Option<NetemConfig>);

/// Test-only oracles: the eager chain installation that first-send
/// creation replaced, the rebuild-everything enforcement that the kept
/// solver input replaced, the brute-force "when next?" the wake index
/// replaced, the poll of every tree that the index-driven drain replaced,
/// and the swap that walked every pair of a delta.
#[cfg(test)]
impl EmulationManager {
    /// The oracle of [`EmulationManager::apply_delta`]: every pair of both
    /// lists is looked up, forward and again for the reverse refresh,
    /// whatever its source.
    fn apply_delta_walking_every_pair(&mut self, delta: &crate::timeline::SnapshotDelta) -> usize {
        let previous = std::mem::replace(&mut self.collapsed, Arc::clone(&delta.snapshot));
        let collapsed = Arc::clone(&self.collapsed);
        let addresses = |&(src, dst): &(NodeId, NodeId)| {
            Some((collapsed.address_of(src)?, collapsed.address_of(dst)?))
        };
        let mut touched = 0;
        let mut trees: Vec<usize> = Vec::new();
        let mut gone: Vec<(Addr, Addr)> = Vec::new();
        for (src, dst) in delta.removed_paths.iter().filter_map(addresses) {
            if let Some((slot, tcal)) = local_tcal(&mut self.egress, src) {
                touched += 1;
                tcal.cache(dst, None);
                self.paths_moved = true;
                if tcal.tree.remove_path(dst) {
                    trees.push(slot);
                    self.revisit.push(slot);
                }
                table_remove(&mut self.last_allocation, (src, dst));
                gone.push((src, dst));
            }
        }
        gone.sort_unstable();
        self.creation_rates
            .retain(|(pair, _)| gone.binary_search(pair).is_err());
        for (src, dst) in delta.changed_paths.iter().filter_map(addresses) {
            let Some((slot, tcal)) = local_tcal(&mut self.egress, src) else {
                continue;
            };
            if !collapsed.reaches(src, dst) {
                continue;
            }
            touched += 1;
            let rate = |max_bandwidth| {
                table_get(&self.last_allocation, (src, dst))
                    .unwrap_or(max_bandwidth)
                    .min(max_bandwidth)
            };
            let exists = tcal.tree.has_path(dst);
            if exists || tcal.tree.has_usage(dst) {
                if let Some(flow) = collapsed.flow_path(src, dst) {
                    self.paths_built += 1;
                    let rate = rate(flow.path.max_bandwidth);
                    tcal.tree.install_path(dst, netem_of(&flow.path), rate);
                    tcal.cache(dst, Some(flow));
                    self.paths_moved = true;
                    self.chains_installed += u64::from(!exists);
                    trees.push(slot);
                }
            } else if !previous.reaches(src, dst) {
                if let Some(max_bandwidth) = collapsed.max_bandwidth_by_addr(src, dst) {
                    self.creation_rates.push(((src, dst), rate(max_bandwidth)));
                }
            }
        }
        self.creation_rates.sort_unstable_by_key(|&(pair, _)| pair);
        let named = delta.changed_paths.iter().chain(&delta.removed_paths);
        for (src, dst) in named.filter_map(addresses) {
            let Some((_, tcal)) = local_tcal(&mut self.egress, dst) else {
                continue;
            };
            if path_to(&tcal.paths, src).is_some() {
                self.paths_built += 1;
                tcal.cache(src, collapsed.flow_path(dst, src));
                self.paths_moved = true;
            }
        }
        self.reindex(SimTime::ZERO + delta.at, trees);
        touched
    }

    /// Turns this manager into the eager oracle: every local pair with a
    /// path gets its chain now, and again after every delta, as if no
    /// chain waited for its first send.
    pub(crate) fn install_eagerly(&mut self) {
        self.eager = true;
        self.install_local_paths();
    }

    /// Installs the chain of every local pair that has a path in the
    /// current snapshot and no chain yet, at the path's maximum bandwidth —
    /// the rate an eager install creates a chain at, at construction and
    /// for a pair a delta gave a path.
    fn install_local_paths(&mut self) {
        let collapsed = Arc::clone(&self.collapsed);
        for tcal in &mut self.egress {
            let src = tcal.tree.owner();
            for (_, dst) in collapsed.addresses() {
                if dst == src || tcal.tree.has_path(dst) {
                    continue;
                }
                let Some(flow) = collapsed.flow_path(src, dst) else {
                    continue;
                };
                self.paths_built += 1;
                tcal.tree
                    .install_path(dst, netem_of(&flow.path), flow.path.max_bandwidth);
                tcal.cache(dst, Some(flow));
                self.paths_moved = true;
                self.chains_installed += 1;
            }
        }
    }

    /// Turns this manager into the oracle of enforcement from kept state:
    /// every `enforce` derives its whole input afresh.
    pub(crate) fn rebuild_every_loop(&mut self) {
        self.rebuilding = true;
    }

    /// The oracle of [`EmulationManager::enforce`]: the whole solver input
    /// derived afresh from the usage table, the cached paths and the remote
    /// messages, and every pair looked up one by one.
    fn enforce_rebuilding(&mut self, now: SimTime) {
        let collapsed = Arc::clone(&self.collapsed);
        // The competing flow set, as *this* manager can know it: solver input
        // and measured usage by flow position, the local pairs first.
        let mut flows: Vec<FlowRef<'_>> = Vec::new();
        let mut usages: Vec<Bandwidth> = Vec::new();
        let mut local_keys: Vec<(Addr, Addr)> = Vec::new();

        for &((src, dst), used) in &self.usages {
            let Some(flow) = cached(&self.egress, src, dst) else {
                continue;
            };
            flows.push(flow.flow_ref());
            usages.push(used);
            local_keys.push((src, dst));
        }

        // Remote paths arrive as 16-bit wire ids: widen them all into the
        // reused arena first, then hand each flow its run of it. Views are
        // walked in host order.
        let mut remote_links: Vec<LinkId> = Vec::new();
        for view in &self.remote {
            for flow in &view.message.flows {
                remote_links.extend(flow.link_ids.iter().map(|&l| LinkId(u32::from(l))));
            }
        }
        let table = collapsed.link_table();
        let mut unassigned: &[LinkId] = &remote_links;
        for view in &self.remote {
            for flow in &view.message.flows {
                let (links, rest) = unassigned.split_at(flow.link_ids.len());
                unassigned = rest;
                // Links this snapshot still knows about contribute latency
                // and capacity; under dynamic events a remote advertisement
                // can reference links that no longer exist here — managers
                // transiently disagree, and the solver treats such a link as
                // unconstrained.
                let mut one_way = SimDuration::ZERO;
                let mut demand = Bandwidth::MAX;
                for slot in links.iter().filter_map(|&link| table.slot(link)) {
                    demand = demand.min(table.capacity(slot));
                    one_way += table.latency(slot);
                }
                let rtt = if one_way.is_zero() {
                    SimDuration::from_millis(1)
                } else {
                    one_way * 2
                };
                flows.push(FlowRef { links, rtt, demand });
                usages.push(flow.used());
            }
        }

        // Rates computed for the local pairs, aligned with `local_keys` (the
        // first flows). Reading the allocator's result out here ends its
        // borrow before the qdisc writes below and bounds the allocation
        // span to the solve.
        let local_rates: Vec<Bandwidth> = {
            let grants = self.allocator.solve(&flows, table);
            grants.iter().take(local_keys.len()).copied().collect()
        };
        // Links whose oversubscription outlasted the grace period, sorted.
        let raw = crate::sharing::oversubscription(&flows, &usages, table);
        // `raw` ascends by link, and so does the streak table built from it.
        self.oversub_streak = raw
            .iter()
            .map(|&(link, _)| (link, table_get(&self.oversub_streak, link).unwrap_or(0) + 1))
            .collect();
        let over: Vec<(LinkId, f64)> = raw
            .into_iter()
            .zip(&self.oversub_streak)
            .filter(|&(_, &(_, streak))| streak >= CONGESTION_GRACE_LOOPS)
            .map(|(ratio, _)| ratio)
            .collect();

        // Enforcement: active local pairs get their computed share; pairs
        // enforced last loop that went idle are restored to the path
        // maximum **once** so new flows are not throttled by stale limits.
        // Chains that were at their defaults and stay idle are not touched
        // at all — the old all-pairs sweep was O(containers²) per loop and
        // capped scaling.
        let previously: Vec<(Addr, Addr)> =
            self.last_allocation.iter().map(|&(key, _)| key).collect();
        self.last_allocation.clear();
        // Trees (by slot) whose rates were rewritten, re-indexed once each at the end.
        let mut touched: Vec<usize> = Vec::new();
        for (&(src, dst), &rate) in local_keys.iter().zip(&local_rates) {
            let Some((slot, Tcal { tree, paths, .. })) = local_tcal(&mut self.egress, src) else {
                continue;
            };
            let Some(PairPath {
                flow: FlowPath { path, .. },
                ..
            }) = path_to(paths, dst)
            else {
                continue;
            };
            // Congestion loss: combine the path's intrinsic loss with the
            // worst (persistent) oversubscription along the path.
            let mut congestion = 0.0f64;
            for &link in &path.links {
                if let Some(o) = table_get(&over, link) {
                    congestion = congestion.max(o);
                }
            }
            let loss = 1.0 - (1.0 - path.loss) * (1.0 - congestion);
            tree.set_bandwidth(now, dst, rate);
            tree.set_loss(dst, loss);
            touched.push(slot);
            // `local_keys` is sorted by pair, so pushes keep the table sorted.
            self.last_allocation.push(((src, dst), rate));
        }
        for &(src, dst) in &previously {
            if table_get(&self.last_allocation, (src, dst)).is_some() {
                continue;
            }
            let Some((slot, Tcal { tree, paths, .. })) = local_tcal(&mut self.egress, src) else {
                continue;
            };
            // A pair whose path disappeared had its chain and its path
            // removed by the delta application; nothing to restore then.
            if let Some(PairPath {
                flow: FlowPath { path, .. },
                ..
            }) = path_to(paths, dst)
            {
                tree.set_bandwidth(now, dst, path.max_bandwidth);
                tree.set_loss(dst, path.loss);
                touched.push(slot);
            }
        }
        self.reindex(now, touched);
    }

    /// [`EmulationManager::dequeue_ready_with`], collected into a `Vec`.
    pub(crate) fn dequeue_ready(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.dequeue_ready_with(now, |pkt| out.push(pkt));
        out
    }

    fn scan_next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.egress
            .iter_mut()
            .filter_map(|tcal| tcal.tree.next_wakeup(now))
            .filter(|&t| t < SimTime::MAX)
            .min()
    }

    /// The oracle for `dequeue_ready`: every local tree polled, whatever
    /// the wake index and the revisit list say.
    fn scan_dequeue_ready(&mut self, now: SimTime) -> Vec<Packet> {
        self.revisit.clear();
        let mut out = Vec::new();
        for (slot, tcal) in self.egress.iter_mut().enumerate() {
            out.extend(tcal.tree.dequeue_ready(now));
            if tcal.wake.is_some_and(|wake| wake <= now) {
                tcal.reindex(now, slot, &mut self.wakes);
            }
        }
        settle(&mut self.wakes, &self.egress);
        out
    }

    /// Local trees whose wake is due by `now`: what `dequeue_ready` polls
    /// when no chain was removed since the last poll.
    pub(crate) fn due_trees(&self, now: SimTime) -> u64 {
        self.egress
            .iter()
            .filter(|tcal| tcal.wake.is_some_and(|wake| wake <= now))
            .count() as u64
    }

    /// `(entries, live trees)`: entries in the wake index, stale ones
    /// included, and the local trees holding a wake.
    fn wake_entries(&self) -> (usize, usize) {
        let live = self.egress.iter().filter(|tcal| tcal.wake.is_some());
        (self.wakes.len(), live.count())
    }

    /// Every chain's rate and netem settings, by pair.
    fn chain_settings(&self) -> Vec<ChainSettings> {
        let mut settings = Vec::new();
        for Tcal { tree, paths, .. } in &self.egress {
            for &(dst, _) in paths {
                let pair = (tree.owner(), dst);
                settings.push((pair, tree.bandwidth(dst), tree.netem_config(dst)));
            }
        }
        settings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{SnapshotDelta, SnapshotTimeline};
    use kollaps_netmodel::packet::{FlowId, PacketKind, MTU};
    use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule, LinkChange};
    use kollaps_topology::generators;
    use kollaps_topology::model::{LinkProperties, Topology};

    /// Two managers built alike take the same seeded op sequence. After
    /// every op the wake index must equal the brute-force minimum over every
    /// tree and hold at most two entries per tree, stale ones included, and
    /// the production drain (the due trees plus those that lost a chain,
    /// nothing else) must return the packet sequence that polling every tree
    /// on every drain returns.
    #[test]
    fn wake_index_matches_the_brute_force_scan() {
        let (topo, clients, servers) = generators::dumbbell(
            8,
            Bandwidth::from_mbps(2),
            Bandwidth::from_mbps(3),
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        );
        let collapsed = Arc::new(CollapsedTopology::build(&topo));
        let nodes: Vec<NodeId> = clients.iter().chain(&servers).copied().collect();
        let addr = |node: NodeId| collapsed.address_of(node).expect("service has an address");
        let local: Vec<Addr> = nodes.iter().map(|&n| addr(n)).collect();
        assert!(local.len() >= 16);
        let build = || {
            EmulationManager::new(
                HostId(0),
                EmulationConfig::default(),
                Arc::clone(&collapsed),
                &local,
                &SimRng::new(11),
            )
        };
        let (mut indexed, mut scanned) = (build(), build());
        let (mut skipped_polls, mut polls_for_a_removal) = (0, 0);

        let mut rng = SimRng::new(0x5eed);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let (mut drained, mut backpressured, mut stalled, mut rate_moved_wake) = (0, 0, 0, 0);
        let mut stale_entries = 0;
        for step in 0..6_000 {
            // A few hot sources keep queues (and back-pressure) building.
            let pick = |rng: &mut SimRng| {
                let hot = rng.chance(0.5);
                nodes[rng.gen_index(if hot { 3 } else { nodes.len() })]
            };
            let (src, dst) = loop {
                let (s, d) = (pick(&mut rng), pick(&mut rng));
                if s != d {
                    break (s, d);
                }
            };
            match rng.gen_range(0, 100) {
                0..=59 => {
                    next_id += 1;
                    let packet = Packet::new(
                        next_id,
                        FlowId(next_id % 7),
                        addr(src),
                        addr(dst),
                        MTU,
                        PacketKind::Udp,
                        now,
                    );
                    let verdict = scanned.enqueue(now, packet.clone());
                    assert_eq!(
                        indexed.enqueue(now, packet),
                        verdict,
                        "step {step}: enqueue verdict"
                    );
                    backpressured += usize::from(verdict == Some(EgressVerdict::Backpressure));
                }
                60..=84 => {
                    // Sometimes the same instant again, sometimes far ahead.
                    now += SimDuration::from_micros(match rng.gen_range(0, 4) {
                        0 => 0,
                        1 => rng.gen_range(1, 200),
                        2 => rng.gen_range(200, 3_000),
                        _ => rng.gen_range(3_000, 10_000),
                    });
                    let got = scanned.scan_dequeue_ready(now);
                    let due = indexed.due_trees(now);
                    let mut revisit = indexed.revisit.clone();
                    revisit.sort_unstable();
                    revisit.dedup();
                    let visited = indexed.trees_visited;
                    assert_eq!(
                        indexed.dequeue_ready(now),
                        got,
                        "step {step}: drained packets"
                    );
                    // Every due tree, every revisited one, and nothing else.
                    let polled = indexed.trees_visited - visited;
                    assert!(polled >= due.max(revisit.len() as u64), "step {step}");
                    assert!(polled <= due + revisit.len() as u64, "step {step}");
                    assert!(indexed.revisit.is_empty(), "step {step}");
                    skipped_polls += usize::from(polled == 0);
                    polls_for_a_removal += usize::from(due == 0 && polled > 0);
                    drained += got.len();
                }
                85..=90 => {
                    // Direct rate writes, including classes that stall
                    // forever (`SimTime::MAX` is not a wakeup).
                    let rate = if rng.chance(0.4) {
                        Bandwidth::ZERO
                    } else {
                        Bandwidth::from_kbps(rng.gen_range(64, 50_000))
                    };
                    for m in [&mut indexed, &mut scanned] {
                        let (slot, tcal) = local_tcal(&mut m.egress, addr(src)).expect("local");
                        tcal.tree.set_bandwidth(now, addr(dst), rate);
                        let wake = tcal.tree.next_wakeup(now);
                        stalled += usize::from(wake == Some(SimTime::MAX));
                        m.reindex(now, vec![slot]);
                    }
                }
                91..=93 => {
                    // The production `set_bandwidth` path.
                    let before = indexed.next_wakeup();
                    for m in [&mut indexed, &mut scanned] {
                        m.collect_usage();
                        m.enforce(now);
                    }
                    rate_moved_wake += usize::from(indexed.next_wakeup() != before);
                }
                _ => {
                    // `remove_path` / `install_path` through the production
                    // delta path; the snapshot keeps the removed pair's
                    // path, so its chain comes back with the pair's next
                    // send.
                    let mut pairs = vec![(src, dst), (dst, src)];
                    pairs.sort_unstable();
                    let remove = rng.chance(0.5);
                    let delta = SnapshotDelta {
                        at: now - SimTime::ZERO,
                        events: 1,
                        changed_links: Vec::new(),
                        changed_paths: if remove { Vec::new() } else { pairs.clone() },
                        gained_paths: Vec::new(),
                        removed_paths: if remove { pairs } else { Vec::new() },
                        snapshot: Arc::clone(&collapsed),
                    };
                    let touched = scanned.apply_delta(&delta);
                    assert_eq!(indexed.apply_delta(&delta), touched);
                }
            }
            for m in [&mut indexed, &mut scanned] {
                assert_eq!(
                    m.next_wakeup(),
                    m.scan_next_wakeup(now),
                    "step {step}: wakeup"
                );
                // Stale entries stay bounded by the rebuild.
                let (entries, live) = m.wake_entries();
                assert!(entries <= 2 * m.container_count(), "step {step}");
                stale_entries += usize::from(entries > live);
            }
        }
        // The sequence must actually have exercised the interesting states.
        assert!(drained > 1_000, "only {drained} packets drained");
        assert!(backpressured > 0, "no class ever filled up");
        assert!(stalled > 0, "no tree ever stalled on a zero-rate class");
        assert!(rate_moved_wake > 0, "enforcement never moved the head wake");
        assert!(stale_entries > 0, "no wake-index entry ever went stale");
        assert!(skipped_polls > 0, "every drain polled a tree");
        assert!(
            polls_for_a_removal > 0,
            "a removed chain never forced a poll with nothing due"
        );
        let (visited, emitted) = indexed.trees_drained();
        assert!(emitted > 0 && visited >= emitted);
    }

    /// `settle` drops stale entries that reach the top, and rebuilds the
    /// heap from the trees' wakes once it holds more than two entries per
    /// tree.
    ///
    /// Mutation-checked: without the rebuild, or with a stale top kept,
    /// this test fails.
    #[test]
    fn settle_keeps_a_live_top_and_at_most_two_entries_per_tree() {
        let rng = SimRng::new(1);
        let mut egress: Vec<Tcal> = (0..2)
            .map(|i| Tcal {
                tree: EgressTree::new(Addr::container(i), rng.derive(u64::from(i))),
                paths: Vec::new(),
                wake: None,
            })
            .collect();
        let at = SimTime::from_millis;
        let mut wakes = WakeHeap::new();
        let set = |egress: &mut [Tcal], wakes: &mut WakeHeap, slot: usize, ms: u64| {
            egress[slot].wake = Some(at(ms));
            wakes.push(Reverse((at(ms), slot)));
            settle(wakes, egress);
        };
        // Tree 0 holds an early wake; tree 1's moves four times below it.
        set(&mut egress, &mut wakes, 0, 1);
        for ms in [9, 7, 8] {
            set(&mut egress, &mut wakes, 1, ms);
        }
        assert_eq!(wakes.len(), 4, "stale entries below a live top stay");
        set(&mut egress, &mut wakes, 1, 6);
        assert_eq!(wakes.len(), 2, "five entries for two trees: rebuilt");
        assert_eq!(wakes.peek(), Some(&Reverse((at(1), 0))));
        // Tree 0's wake moves past tree 1's: its old entry is a stale top.
        set(&mut egress, &mut wakes, 0, 8);
        assert_eq!(wakes.peek(), Some(&Reverse((at(6), 1))));
        assert_eq!(wakes.len(), 2);
    }

    /// The egress slot order is the drain order: same-instant packets
    /// from different local containers leave in container-address order,
    /// whatever order they were offered in.
    #[test]
    fn same_instant_packets_leave_in_address_order() {
        let (topo, clients, servers) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let collapsed = Arc::new(CollapsedTopology::build(&topo));
        let addr = |node| collapsed.address_of(node).expect("service has an address");
        let mut sources: Vec<Addr> = clients.iter().map(|&c| addr(c)).collect();
        sources.sort();
        let dst = addr(servers[0]);
        let mut manager = EmulationManager::new(
            HostId(0),
            EmulationConfig::default(),
            Arc::clone(&collapsed),
            &sources,
            &SimRng::new(7),
        );
        for (i, &src) in sources.iter().rev().enumerate() {
            let id = i as u64;
            let packet = Packet::new(
                id,
                FlowId(id),
                src,
                dst,
                MTU,
                PacketKind::Udp,
                SimTime::ZERO,
            );
            assert_eq!(
                manager.enqueue(SimTime::ZERO, packet),
                Some(EgressVerdict::Queued)
            );
        }
        let drained = manager.dequeue_ready(SimTime::from_secs(1));
        let order: Vec<Addr> = drained.iter().map(|p| p.src).collect();
        assert_eq!(order, sources);
    }

    /// A removed chain is compacted out of its tree's active list by the
    /// manager's next poll even when nothing is due then: the chain that
    /// enters the list afterwards must find it as polling on every event
    /// left it, or packets released together later leave in another order.
    ///
    /// Mutation-checked: without the revisit list the production drain
    /// returns the last packet first.
    #[test]
    fn a_removed_chain_is_compacted_by_the_next_poll_with_nothing_due() {
        let (topo, clients, servers) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let collapsed = Arc::new(CollapsedTopology::build(&topo));
        let addr = |node: NodeId| collapsed.address_of(node).expect("service has an address");
        let src = addr(clients[0]);
        let build = || {
            EmulationManager::new(
                HostId(0),
                EmulationConfig::default(),
                Arc::clone(&collapsed),
                &[src],
                &SimRng::new(5),
            )
        };
        let packet = |id: u64, dst: NodeId| {
            Packet::new(
                id,
                FlowId(id),
                src,
                addr(dst),
                MTU,
                PacketKind::Udp,
                SimTime::ZERO,
            )
        };
        let cut = SnapshotDelta {
            at: SimDuration::ZERO,
            events: 1,
            changed_links: Vec::new(),
            changed_paths: Vec::new(),
            gained_paths: Vec::new(),
            removed_paths: vec![(clients[0], servers[0])],
            snapshot: Arc::clone(&collapsed),
        };
        type Drain = fn(&mut EmulationManager, SimTime) -> Vec<Packet>;
        let drains: [Drain; 2] = [
            EmulationManager::dequeue_ready,
            EmulationManager::scan_dequeue_ready,
        ];
        let [indexed, scanned] = drains.map(|drain| {
            let mut m = build();
            for (id, &dst) in servers[..3].iter().enumerate() {
                let verdict = m.enqueue(SimTime::ZERO, packet(id as u64, dst));
                assert_eq!(verdict, Some(EgressVerdict::Queued));
            }
            // Through the shaper on its burst, into the 3 ms netem delay.
            assert!(drain(&mut m, SimTime::ZERO).is_empty());
            assert_eq!(m.apply_delta(&cut), 1);
            let soon = SimTime::from_millis(1);
            assert!(m.next_wakeup().is_some_and(|wake| wake > soon));
            assert!(drain(&mut m, soon).is_empty());
            let verdict = m.enqueue(soon, packet(3, servers[3]));
            assert_eq!(verdict, Some(EgressVerdict::Queued));
            let released = drain(&mut m, SimTime::from_secs(1));
            released.iter().map(|p| p.id).collect::<Vec<u64>>()
        });
        assert_eq!(indexed, [2, 3, 1]);
        assert_eq!(indexed, scanned);
    }

    /// With nothing due, the poll after a delta visits exactly the local
    /// trees that lost a chain — once each, however many chains — and the
    /// poll after that visits none. Chains are created on first send, so
    /// each removed pair sends one packet first.
    ///
    /// Mutation-checked: not pushing the slot in `apply_delta`, or not
    /// emptying the list in `dequeue_ready`, fails this test.
    #[test]
    fn the_poll_after_a_removal_visits_exactly_the_trees_that_lost_a_chain() {
        let (topo, clients, servers) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let collapsed = Arc::new(CollapsedTopology::build(&topo));
        let local: Vec<Addr> = clients
            .iter()
            .map(|&c| collapsed.address_of(c).expect("service has an address"))
            .collect();
        let mut manager = EmulationManager::new(
            HostId(0),
            EmulationConfig::default(),
            Arc::clone(&collapsed),
            &local,
            &SimRng::new(9),
        );
        // Two chains off the first client's tree, one off the second's,
        // and one off a tree another host owns.
        let sent = [
            (clients[0], servers[0]),
            (clients[0], servers[1]),
            (clients[1], servers[0]),
        ];
        let mut removed_paths = [&sent[..], &[(servers[0], clients[0])]].concat();
        removed_paths.sort_unstable();
        let cut = SnapshotDelta {
            at: SimDuration::ZERO,
            events: 1,
            changed_links: Vec::new(),
            changed_paths: Vec::new(),
            gained_paths: Vec::new(),
            removed_paths,
            snapshot: Arc::clone(&collapsed),
        };
        for (id, &(src, dst)) in sent.iter().enumerate() {
            let addr = |node| collapsed.address_of(node).expect("service has an address");
            let id = id as u64;
            let packet = Packet::new(
                id,
                FlowId(id),
                addr(src),
                addr(dst),
                MTU,
                PacketKind::Udp,
                SimTime::ZERO,
            );
            let verdict = manager.enqueue(SimTime::ZERO, packet);
            assert_eq!(verdict, Some(EgressVerdict::Queued));
        }
        let now = SimTime::from_millis(1);
        assert_eq!(manager.apply_delta(&cut), 3);
        assert_eq!(manager.next_wakeup(), None, "nothing is due");
        let visits = |manager: &mut EmulationManager| {
            let (before, _) = manager.trees_drained();
            assert!(manager.dequeue_ready(now).is_empty());
            manager.trees_drained().0 - before
        };
        assert_eq!(visits(&mut manager), 2);
        assert_eq!(visits(&mut manager), 0);
    }

    /// A chain a delta removed and another re-created within one loop
    /// interval leaves bytes counted towards its destination, so the next
    /// loop clamps and enforces on the re-created chain. Under eager install
    /// that chain exists at once; a first-send chain created later would
    /// miss the enforced rate and release the pair's next packets at another
    /// pace. The re-created chain must therefore be created by the delta.
    ///
    /// Mutation-checked: leaving that chain to the pair's next send fails
    /// this test.
    #[test]
    fn a_chain_recreated_while_its_bytes_count_is_created_by_the_delta() {
        let (topo, clients, servers) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(2),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let at = SimDuration::from_millis;
        let schedule = EventSchedule::from_events(vec![
            DynamicEvent {
                at: at(10),
                action: DynamicAction::LinkLeave {
                    orig: "client-0".into(),
                    dest: "bridge-left".into(),
                },
            },
            DynamicEvent {
                at: at(20),
                action: DynamicAction::LinkJoin {
                    orig: "client-0".into(),
                    dest: "bridge-left".into(),
                    change: LinkChange {
                        latency: Some(at(1)),
                        up: Some(Bandwidth::from_mbps(100)),
                        ..LinkChange::default()
                    },
                },
            },
        ]);
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let collapsed = Arc::clone(timeline.initial());
        let addr = |node: NodeId| collapsed.address_of(node).expect("service has an address");
        let pairs = [0, 1].map(|i| (addr(clients[i]), addr(servers[i])));
        let run = |eager: bool| {
            let mut m = EmulationManager::new(
                HostId(0),
                EmulationConfig::default(),
                Arc::clone(&collapsed),
                &pairs.map(|(src, _)| src),
                &SimRng::new(4),
            );
            if eager {
                m.install_eagerly();
            }
            let mut next_id = 0;
            let mut send = |m: &mut EmulationManager, now: SimTime, count: usize| {
                for &(src, dst) in &pairs {
                    for _ in 0..count {
                        next_id += 1;
                        let packet =
                            Packet::new(next_id, FlowId(0), src, dst, MTU, PacketKind::Udp, now);
                        assert_eq!(m.enqueue(now, packet), Some(EgressVerdict::Queued));
                    }
                }
            };
            send(&mut m, SimTime::ZERO, 3);
            let mut released = m.dequeue_ready(SimTime::from_millis(5));
            for delta in timeline.deltas() {
                m.apply_delta(delta);
            }
            let now = SimTime::from_millis(50);
            m.collect_usage();
            m.enforce(now);
            let enforced = m.allocation(pairs[0].0, pairs[0].1);
            let (_, tcal) = local_tcal(&mut m.egress, pairs[0].0).expect("local");
            let shaped = tcal.tree.bandwidth(pairs[0].1);
            send(&mut m, now, 4);
            let mut log: Vec<(SimTime, u64)> = Vec::new();
            while let Some(wake) = m.next_wakeup().filter(|&t| t <= SimTime::from_secs(1)) {
                log.extend(m.dequeue_ready(wake).iter().map(|p| (wake, p.id)));
            }
            released.retain(|p| p.src == pairs[0].0);
            assert_eq!(released.len(), 2, "two packets left on the burst");
            (enforced, shaped, log)
        };
        let (enforced, shaped, log) = run(false);
        assert!(enforced.is_some_and(|rate| rate < Bandwidth::from_mbps(2)));
        assert_eq!(shaped, enforced);
        assert_eq!((enforced, shaped, log), run(true));
    }

    /// A pair's cached RTT reads its reverse path. A delta that changes
    /// only the reverse of an active pair — here `s → b2`, a one-way link
    /// only the way back crosses — names only the reverse pair, and the
    /// cached path of the forward pair must follow it all the same.
    ///
    /// Mutation-checked: without the refresh of pairs whose reverse a delta
    /// names, the cached RTT stays at 4 ms and this test fails.
    #[test]
    fn a_delta_on_the_reverse_path_only_moves_the_cached_rtt() {
        let mut topo = Topology::new();
        let c = topo.add_service("c", 0, "img");
        let s = topo.add_service("s", 0, "img");
        let (b1, b2) = (topo.add_bridge("b1"), topo.add_bridge("b2"));
        let hop = LinkProperties::new(SimDuration::from_millis(1), Bandwidth::from_mbps(10));
        // The way there runs over b1, the way back over b2.
        topo.add_link(c, b1, hop, "net");
        topo.add_link(b1, s, hop, "net");
        topo.add_link(s, b2, hop, "net");
        topo.add_link(b2, c, hop, "net");
        let schedule = EventSchedule::from_events(vec![DynamicEvent {
            at: SimDuration::from_secs(1),
            action: DynamicAction::SetLinkProperties {
                orig: "s".into(),
                dest: "b2".into(),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(20)),
                    ..LinkChange::default()
                },
            },
        }]);
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let collapsed = Arc::clone(timeline.initial());
        let (src, dst) = (
            collapsed.address_of(c).expect("a service"),
            collapsed.address_of(s).expect("a service"),
        );
        let mut manager = EmulationManager::new(
            HostId(0),
            EmulationConfig::default(),
            Arc::clone(&collapsed),
            &[src],
            &SimRng::new(5),
        );
        let packet = Packet::new(1, FlowId(0), src, dst, MTU, PacketKind::Udp, SimTime::ZERO);
        assert_eq!(
            manager.enqueue(SimTime::ZERO, packet),
            Some(EgressVerdict::Queued)
        );
        let rtt =
            |manager: &EmulationManager| manager.flow_path(src, dst).map(|f| f.flow_ref().rtt);
        assert_eq!(rtt(&manager), Some(SimDuration::from_millis(4)));
        assert_eq!(manager.paths_built(), 1);

        let [delta] = timeline.deltas() else {
            panic!("one change time, one delta");
        };
        assert_eq!(delta.changed_paths, [(s, c)], "only the way back changed");
        manager.apply_delta(delta);
        assert_eq!(rtt(&manager), Some(SimDuration::from_millis(2 + 21)));
        assert_eq!(
            manager.flow_path(src, dst),
            delta.snapshot.flow_path(src, dst).as_ref()
        );
        assert_eq!(manager.paths_built(), 2);
    }

    /// A remote advertisement may name a link this snapshot does not have
    /// (normal under dynamics), repeat a link, or name none at all. None of
    /// it may panic, and the enforced rates are those of the map-based
    /// solver (expected values recorded at the commit that still had it).
    #[test]
    fn enforce_tolerates_unknown_duplicated_and_empty_remote_link_lists() {
        let (topo, clients, servers) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        );
        let collapsed = Arc::new(CollapsedTopology::build(&topo));
        let addr = |node: NodeId| collapsed.address_of(node).expect("service has an address");
        let (c0, c1) = (addr(clients[0]), addr(clients[1]));
        let (s0, s1) = (addr(servers[0]), addr(servers[1]));
        let mut manager = EmulationManager::new(
            HostId(0),
            EmulationConfig::default(),
            Arc::clone(&collapsed),
            &[c0, c1],
            &SimRng::new(3),
        );
        let trunk = collapsed
            .path(clients[0], servers[0])
            .expect("dumbbell pairs are connected")
            .links
            .iter()
            .copied()
            .find(|&l| collapsed.link_capacity(l) == Some(Bandwidth::from_mbps(50)))
            .expect("every client-server path crosses the trunk");
        let trunk_id = u16::try_from(trunk.0).expect("small topology");
        // The largest wire id lies past the end of this snapshot's table.
        let past_the_end = LinkId(u32::from(u16::MAX));
        let table = collapsed.link_table();
        assert!(table.ids().last().is_some_and(|&last| last < past_the_end));
        assert_eq!(table.slot(past_the_end), None);
        // Usage is only ever measured on a chain, and the loop reads a
        // pair's path next to its chain: give every local pair one.
        manager.install_eagerly();
        manager.usages = vec![
            ((c0, s0), Bandwidth::from_mbps(40)),
            ((c1, s1), Bandwidth::from_mbps(30)),
        ];
        manager.usages.sort_unstable_by_key(|&(key, _)| key);
        let mut message = MetadataMessage::new();
        message.flows = vec![
            // The trunk plus a link no snapshot of this size has: weighs in
            // with the trunk's RTT alone.
            FlowUsage::new(Bandwidth::from_mbps(20), vec![trunk_id, u16::MAX]),
            // The trunk twice: twice the latency, and twice the weight on it.
            FlowUsage::new(Bandwidth::from_mbps(10), vec![trunk_id, trunk_id]),
            // No links: competes with nobody.
            FlowUsage::new(Bandwidth::from_mbps(5), Vec::new()),
            // Only links past the end of the table: competes with nobody
            // either, and offers nothing to any link.
            FlowUsage::new(Bandwidth::from_mbps(70), vec![u16::MAX, u16::MAX - 1]),
        ];
        manager.absorb(vec![Delivery {
            from: HostId(1),
            published: SimTime::ZERO,
            message: Arc::new(message),
        }]);
        for tick in 1..=2u64 {
            manager.enforce(SimTime::ZERO + SimDuration::from_millis(50 * tick));
            // 50 Mb/s · 100 / (100 + 100 + 166.6 + 2 · 83.3) per local pair.
            for (src, dst) in [(c0, s0), (c1, s1)] {
                assert_eq!(
                    manager.allocation(src, dst),
                    Some(Bandwidth::from_bps(9_375_000)),
                    "tick {tick}"
                );
            }
            // 40 + 30 + 20 + 2 · 10 Mb/s offered to the 50 Mb/s trunk.
            assert_eq!(manager.oversubscribed_links().collect::<Vec<_>>(), [trunk]);
        }
        assert_eq!(manager.allocator_stats().fast_hits, 1);
    }

    /// A delta can change a capacity and leave the RTT, demand and links of
    /// every active flow as they were — here the flows are limited by their
    /// 40 Mb/s access links, not by the trunk that changes. The solver's
    /// memo then sees the flows of the previous loop again, and only the new
    /// link table the delta carries makes it solve again.
    ///
    /// Mutation-checked: a memo that does not compare the table, or a delta
    /// that keeps its parent's table, fails this test.
    #[test]
    fn a_capacity_change_through_a_delta_moves_the_enforced_rates() {
        let (topo, clients, servers) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(40),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        );
        let wider = Some(Bandwidth::from_mbps(60));
        let schedule = EventSchedule::from_events(vec![DynamicEvent {
            at: SimDuration::from_secs(1),
            action: DynamicAction::SetLinkProperties {
                orig: "bridge-left".into(),
                dest: "bridge-right".into(),
                change: LinkChange {
                    up: wider,
                    down: wider,
                    ..LinkChange::default()
                },
            },
        }]);
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let collapsed = Arc::clone(timeline.initial());
        let addr = |node: NodeId| collapsed.address_of(node).expect("service has an address");
        let pairs = [
            (addr(clients[0]), addr(servers[0])),
            (addr(clients[1]), addr(servers[1])),
        ];
        let mut manager = EmulationManager::new(
            HostId(0),
            EmulationConfig::default(),
            Arc::clone(&collapsed),
            &[pairs[0].0, pairs[1].0],
            &SimRng::new(3),
        );
        // Usage is only ever measured on a chain, and the loop reads a
        // pair's path next to its chain: give every local pair one.
        manager.install_eagerly();
        manager.usages = pairs
            .iter()
            .map(|&pair| (pair, Bandwidth::from_mbps(30)))
            .collect();
        manager.usages.sort_unstable_by_key(|&(key, _)| key);
        let enforced = |manager: &EmulationManager| {
            pairs.map(|(src, dst)| manager.allocation(src, dst).map(|rate| rate.as_bps()))
        };

        manager.enforce(SimTime::from_millis(950));
        assert_eq!(enforced(&manager), [Some(25_000_000); 2]);

        let [delta] = timeline.deltas() else {
            panic!("one change time, one delta");
        };
        assert_eq!(delta.swap_cost(), 0, "no collapsed path changed");
        manager.apply_delta(delta);
        manager.enforce(SimTime::from_millis(1_000));
        assert_eq!(enforced(&manager), [Some(30_000_000); 2]);
    }

    /// The topology of the kept-input differential test: the sources
    /// `c0`…`c2`, `r0`, `r1` and `q0` reach the servers `s0` (over a
    /// 20 Mb/s link) and `s1` (30 Mb/s) through the bridge `f`; the way
    /// back runs over the bridge `b`. Every path is two links long.
    fn forward_and_back() -> Topology {
        let mut topo = Topology::new();
        let hop = |ms, mbps| {
            LinkProperties::new(SimDuration::from_millis(ms), Bandwidth::from_mbps(mbps))
        };
        let (f, b) = (topo.add_bridge("f"), topo.add_bridge("b"));
        for name in ["c0", "c1", "c2", "r0", "r1", "q0"] {
            let source = topo.add_service(name, 0, "img");
            topo.add_link(source, f, hop(1, 100), "net");
            topo.add_link(b, source, hop(1, 100), "net");
        }
        for (name, ms, mbps) in [("s0", 2, 20), ("s1", 3, 30)] {
            let server = topo.add_service(name, 0, "img");
            topo.add_link(f, server, hop(ms, mbps), "net");
            topo.add_link(server, b, hop(1, 100), "net");
        }
        topo
    }

    /// Enforcement from kept state against the rebuild-everything oracle.
    /// Two managers take the same seeded loop iterations and must enforce
    /// the same rates and losses, keep the same oversubscription streaks,
    /// count the same solver calls and fast hits and release the same
    /// packets. The iterations have local flows joining and leaving; remote
    /// messages that keep their link ids, move a flow to other ids of the
    /// same run lengths, drop to an empty heartbeat, name a link no
    /// snapshot has, or arrive one or more loops late; and deltas that move
    /// a forward latency, a reverse-only latency, a bottleneck capacity and
    /// a capacity no path is limited by.
    ///
    /// Mutation-checked: not re-deriving on a snapshot swap, and comparing
    /// only the run lengths of a remote message, each fail this test.
    #[test]
    fn kept_input_matches_the_rebuilding_oracle() {
        let topo = forward_and_back();
        let at = SimDuration::from_millis;
        let set = |ms, orig: &str, dest: &str, change| DynamicEvent {
            at: at(ms),
            action: DynamicAction::SetLinkProperties {
                orig: orig.into(),
                dest: dest.into(),
                change,
            },
        };
        let latency = |ms| LinkChange {
            latency: Some(at(ms)),
            ..LinkChange::default()
        };
        let capacity = |mbps| LinkChange {
            up: Some(Bandwidth::from_mbps(mbps)),
            ..LinkChange::default()
        };
        let schedule = EventSchedule::from_events(vec![
            set(300, "f", "s0", latency(6)),
            set(600, "s1", "b", latency(9)),
            set(900, "f", "s1", capacity(12)),
            set(1_200, "c0", "f", capacity(25)),
        ]);
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let addr = |name: &str| {
            let node = topo.node_by_name(name).expect("a service");
            timeline.initial().address_of(node).expect("a service")
        };
        let [s0, s1] = ["s0", "s1"].map(addr);
        let local = ["c0", "c1", "c2"].map(addr);
        let build = || {
            EmulationManager::new(
                HostId(0),
                EmulationConfig::default(),
                Arc::clone(timeline.initial()),
                &local,
                &SimRng::new(17),
            )
        };
        let (mut kept, mut oracle) = (build(), build());
        oracle.rebuild_every_loop();
        let pairs: Vec<(Addr, Addr)> = local
            .iter()
            .flat_map(|&src| [(src, s0), (src, s1)])
            .collect();

        let mut rng = SimRng::new(0xc0ffee);
        let mut active = vec![false; pairs.len()];
        let mut snapshot = Arc::clone(timeline.initial());
        let mut next_delta = 0;
        let mut next_id = 0u64;
        // Remote host 1 sends `r1 → s0`, always over the same links; host 2
        // sends `r0` to one server and `q0 → s1`, or nothing. Messages wait
        // in flight.
        let mut r0_to = s0;
        let mut in_flight: Vec<Delivery> = Vec::new();
        let (mut switched, mut heartbeats, mut late, mut congested) = (0, 0, 0, 0);
        let (mut local_rebuilt, mut remote_enforced) = (0u64, 0u64);
        let interval = at(50);
        for step in 1..=40u64 {
            let end = SimTime::ZERO + interval * step;
            let start = end - interval;
            for (on, _) in active.iter_mut().zip(&pairs) {
                if rng.chance(0.25) {
                    *on = !*on;
                }
            }
            // Traffic through both managers; every drain must agree.
            for k in 0..25u64 {
                let now = start + at(2) * k;
                for (&(src, dst), _) in pairs.iter().zip(&active).filter(|(_, &on)| on) {
                    if rng.chance(0.6) {
                        next_id += 1;
                        let packet =
                            Packet::new(next_id, FlowId(0), src, dst, MTU, PacketKind::Udp, now);
                        let verdict = oracle.enqueue(now, packet.clone());
                        assert_eq!(kept.enqueue(now, packet), verdict, "step {step}");
                    }
                }
                while let Some(wake) = oracle.next_wakeup().filter(|&wake| wake <= now) {
                    assert_eq!(kept.next_wakeup(), Some(wake), "step {step}");
                    let ids = |m: &mut EmulationManager| {
                        m.dequeue_ready(wake)
                            .iter()
                            .map(|p| p.id)
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(ids(&mut kept), ids(&mut oracle), "step {step}");
                }
            }
            while let Some(delta) = timeline.deltas().get(next_delta) {
                if SimTime::ZERO + delta.at > end {
                    break;
                }
                assert_eq!(kept.apply_delta(delta), oracle.apply_delta(delta));
                snapshot = Arc::clone(&delta.snapshot);
                next_delta += 1;
            }
            // This loop's remote publications, on this loop's snapshot.
            let ids = |src: &str, dst: Addr| -> Vec<u16> {
                let path = snapshot.path_by_addr(addr(src), dst).expect("a path");
                path.links
                    .iter()
                    .map(|l| u16::try_from(l.0).expect("small"))
                    .collect()
            };
            let mbps = |rng: &mut SimRng| Bandwidth::from_mbps(rng.gen_range(2, 30));
            if rng.chance(0.3) {
                r0_to = if r0_to == s0 { s1 } else { s0 };
                switched += 1;
            }
            let mut host1 = MetadataMessage::new();
            host1
                .flows
                .push(FlowUsage::new(mbps(&mut rng), ids("r1", s0)));
            let mut host2 = MetadataMessage::new();
            if rng.chance(0.2) {
                heartbeats += 1;
            } else {
                host2
                    .flows
                    .push(FlowUsage::new(mbps(&mut rng), ids("r0", r0_to)));
                host2
                    .flows
                    .push(FlowUsage::new(mbps(&mut rng), ids("q0", s1)));
                if rng.chance(0.3) {
                    let mut unknown = ids("q0", s0);
                    unknown.push(u16::MAX);
                    host2.flows.push(FlowUsage::new(mbps(&mut rng), unknown));
                }
            }
            for (host, message) in [(1, host1), (2, host2)] {
                in_flight.push(Delivery {
                    from: HostId(host),
                    published: end,
                    message: Arc::new(message),
                });
            }
            // The loop itself: what has arrived is what was published at
            // least one loop ago, less what is still held up.
            for m in [&mut kept, &mut oracle] {
                m.collect_usage();
            }
            let (arrived, held): (Vec<Delivery>, Vec<Delivery>) = in_flight
                .drain(..)
                .partition(|d| d.published < end && !rng.chance(0.15));
            late += held.iter().filter(|d| d.published < end).count();
            in_flight = held;
            kept.absorb(arrived.clone());
            oracle.absorb(arrived);
            let generation = kept.local_generation();
            kept.enforce(end);
            if kept.local_generation() != generation {
                local_rebuilt += kept.kept.local_rows.len() as u64;
            }
            oracle.enforce(end);
            assert_eq!(kept.last_allocation, oracle.last_allocation, "step {step}");
            assert_eq!(kept.oversub_streak, oracle.oversub_streak, "step {step}");
            assert_eq!(
                kept.allocator_stats(),
                oracle.allocator_stats(),
                "step {step}"
            );
            let settings = kept.chain_settings();
            assert_eq!(settings, oracle.chain_settings(), "step {step}");
            congested += usize::from(
                settings
                    .iter()
                    .any(|(_, _, netem)| netem.is_some_and(|netem| netem.loss > 0.0)),
            );
            remote_enforced += kept
                .remote
                .iter()
                .map(|view| view.message.flows.len() as u64)
                .sum::<u64>();
        }
        assert_eq!(next_delta, 4, "every change applied");
        assert!(
            switched > 0 && heartbeats > 0 && late > 0,
            "{switched} {heartbeats} {late}"
        );
        assert!(congested > 0, "no congestion loss was ever enforced");
        // Rows were kept across loops, local and remote alike.
        assert!(
            kept.local_generation() < 40,
            "local flows derived every loop"
        );
        let remote_rebuilt = kept.flows_rebuilt() - local_rebuilt;
        assert!(
            remote_rebuilt > 0 && 2 * remote_rebuilt < remote_enforced,
            "{remote_rebuilt} of {remote_enforced} remote flows derived"
        );
        assert_eq!(oracle.flows_rebuilt(), 0);
    }

    /// Six services: `s0`–`s2` on bridge `l`, `s3` and `s4` on bridge `r`,
    /// one-way trunk links `l → r` and `r → l`, and `s5`, reached over
    /// `r → s5` but leaving over `s5 → x → l`, so that a change of `x → l`
    /// or a cut of `s5 → x` names only pairs from `s5`. The deltas name
    /// only the way back of every pair towards `s5`, cut `s2` off and let
    /// it join again, cut `s5`'s way out, slow the trunk both ways, and cut
    /// `s2` off once more.
    fn swap_cases() -> (Topology, EventSchedule) {
        let mut topo = Topology::new();
        let s: Vec<NodeId> = (0..6)
            .map(|i| topo.add_service(&format!("s{i}"), 0, "img"))
            .collect();
        let (l, r, x) = (
            topo.add_bridge("l"),
            topo.add_bridge("r"),
            topo.add_bridge("x"),
        );
        let props = |ms, mbps| {
            LinkProperties::new(SimDuration::from_millis(ms), Bandwidth::from_mbps(mbps))
        };
        for (i, &service) in s[..5].iter().enumerate() {
            let bridge = if i < 3 { l } else { r };
            topo.add_bidirectional_link(service, bridge, props(1, 100), "net");
        }
        topo.add_link(l, r, props(2, 10), "net");
        topo.add_link(r, l, props(2, 10), "net");
        topo.add_link(r, s[5], props(1, 100), "net");
        topo.add_link(s[5], x, props(1, 100), "net");
        topo.add_link(x, l, props(1, 100), "net");
        let latency = |ms| LinkChange {
            latency: Some(SimDuration::from_millis(ms)),
            ..LinkChange::default()
        };
        let event = |secs, action| DynamicEvent {
            at: SimDuration::from_secs(secs),
            action,
        };
        let ends = |orig: &str, dest: &str| (orig.to_string(), dest.to_string());
        let set = |secs, (orig, dest), change| {
            event(
                secs,
                DynamicAction::SetLinkProperties { orig, dest, change },
            )
        };
        let leave = |secs, (orig, dest)| event(secs, DynamicAction::LinkLeave { orig, dest });
        let join = LinkChange {
            up: Some(Bandwidth::from_mbps(100)),
            ..latency(1)
        };
        let schedule = EventSchedule::from_events(vec![
            set(1, ends("x", "l"), latency(3)),
            leave(2, ends("s2", "l")),
            event(3, {
                let (orig, dest) = ends("s2", "l");
                DynamicAction::LinkJoin {
                    orig,
                    dest,
                    change: join,
                }
            }),
            leave(4, ends("s5", "x")),
            set(5, ends("l", "r"), latency(4)),
            leave(6, ends("s2", "l")),
        ]);
        (topo, schedule)
    }

    /// `apply_delta` visits only its local sources' runs of a delta and
    /// looks each cached pair's reverse up, where the swap it replaced
    /// walked every pair of both lists twice. Over the deltas of
    /// [`swap_cases`] plus one naming only remote sources, a manager
    /// owning `s0`, `s2` and `s3` must leave the same chains, cached paths,
    /// creation rates, wakes and counters as that full walk (kept as the
    /// oracle), return the touched count a brute force over the full lists
    /// gives, keep every cached path equal to its snapshot's, and visit
    /// exactly its sources' pairs plus the reverse pairs it found. The
    /// cases: pairs from remote sources only (nothing visited, nothing
    /// touched); local and remote sources mixed; a change of only the way
    /// back; removed pairs, also only the way back; a pair that gains a
    /// path without a chain (a creation rate, dropped again by the last
    /// cut); and a destination whose bytes still count when it gains its
    /// path back (its chain is created by the delta).
    ///
    /// Mutation-checked: looking the reverse up in `changed_paths` only,
    /// or skipping the removed run, fails this test.
    #[test]
    fn apply_delta_visits_only_its_own_sources_and_matches_the_full_walk() {
        let (topo, schedule) = swap_cases();
        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        let initial = Arc::clone(timeline.initial());
        let services: Vec<(NodeId, Addr)> = initial.addresses().collect();
        let local: Vec<Addr> = [0, 2, 3].iter().map(|&i| services[i].1).collect();
        let is_local = |node| initial.address_of(node).is_some_and(|a| local.contains(&a));
        let node_at = |addr| initial.service_at(addr).expect("a service");
        let build = || {
            EmulationManager::new(
                HostId(0),
                EmulationConfig::default(),
                Arc::clone(&initial),
                &local,
                &SimRng::new(3),
            )
        };
        let (mut m, mut oracle) = (build(), build());
        let mut deltas = timeline.deltas().to_vec();
        assert_eq!(deltas.len(), 6);
        let last = deltas.last().expect("deltas").clone();
        let (s1, s4) = (services[1].0, services[4].0);
        deltas.push(SnapshotDelta {
            at: last.at + SimDuration::from_secs(1),
            events: 0,
            changed_links: Vec::new(),
            changed_paths: vec![(s1, s4), (s4, s1)],
            gained_paths: Vec::new(),
            removed_paths: Vec::new(),
            snapshot: Arc::clone(&last.snapshot),
        });
        // `s2 → s3` sends only once the rejoin gave it a creation rate;
        // `s3 → s2` never sends, so the last cut drops its rate.
        let (s2, s3) = (local[1], local[2]);
        let rejoin = 2;
        let (mut next_id, mut reverse_only, mut reverse_removed) = (0, 0, 0);
        let (mut removed_local, mut mixed, mut created, mut nothing_visited) = (0, 0, 0, 0);
        let (mut rates_kept, mut rates_dropped) = (0, 0);
        for (k, delta) in deltas.iter().enumerate() {
            let at = SimTime::ZERO + delta.at;
            let mut packets = Vec::new();
            for &src in &local {
                for &(_, dst) in &services {
                    let held = (src, dst) == (s3, s2) || (src, dst) == (s2, s3) && k <= rejoin;
                    if src != dst && !held {
                        next_id += 1;
                        let sent = at - SimDuration::from_millis(400);
                        let kind = PacketKind::Udp;
                        let packet = Packet::new(next_id, FlowId(0), src, dst, MTU, kind, sent);
                        packets.push(packet);
                    }
                }
            }
            for manager in [&mut m, &mut oracle] {
                // The loop reads usage before every delta but the rejoin:
                // the bytes towards `s2` from before its cut still count.
                if k != rejoin {
                    manager.collect_usage();
                    manager.enforce(at - SimDuration::from_millis(500));
                }
                for packet in &packets {
                    manager.enqueue(packet.sent_at, packet.clone());
                }
                manager.dequeue_ready(at - SimDuration::from_millis(100));
            }
            if k == rejoin + 1 {
                assert!(
                    m.flow_path(s2, s3).is_some(),
                    "first send at a creation rate"
                );
            }
            let cached_before: Vec<Option<FlowPath>> = local
                .iter()
                .flat_map(|&src| services.iter().map(move |&(_, dst)| (src, dst)))
                .map(|(src, dst)| m.flow_path(src, dst).cloned())
                .collect();
            let rates_before = m.creation_rates.clone();
            let (installed, visited) = (m.chains_installed, m.swap_pairs_visited);

            let touched = m.apply_delta(delta);
            assert_eq!(
                oracle.apply_delta_walking_every_pair(delta),
                touched,
                "delta {k}"
            );
            let snapshot = &delta.snapshot;
            let addr = |node| snapshot.address_of(node).expect("a service");
            let reaches = |&&(src, dst): &&(NodeId, NodeId)| snapshot.reaches(addr(src), addr(dst));
            let own = |&&(src, _): &&(NodeId, NodeId)| is_local(src);
            let gone = delta.removed_paths.iter().filter(own).count();
            let named = delta.changed_paths.iter().filter(own);
            assert_eq!(
                touched,
                gone + named.clone().filter(reaches).count(),
                "delta {k}"
            );
            assert_eq!(m.chain_settings(), oracle.chain_settings(), "delta {k}");
            assert_eq!(m.creation_rates, oracle.creation_rates, "delta {k}");
            assert_eq!(m.paths_built, oracle.paths_built, "delta {k}");
            assert_eq!(m.chains_installed, oracle.chains_installed, "delta {k}");
            assert_eq!(m.revisit, oracle.revisit, "delta {k}");
            assert_eq!(m.next_wakeup(), oracle.next_wakeup(), "delta {k}");
            let is_named = |pair: &(NodeId, NodeId)| {
                delta.changed_paths.contains(pair) || delta.removed_paths.contains(pair)
            };
            let mut reverse_found = 0;
            let pairs = local
                .iter()
                .flat_map(|&src| services.iter().map(move |&(_, dst)| (src, dst)));
            for ((src, dst), before) in pairs.zip(&cached_before) {
                let cached = m.flow_path(src, dst);
                assert_eq!(cached, oracle.flow_path(src, dst), "delta {k}");
                let Some(flow) = cached else {
                    continue;
                };
                let fresh = snapshot.flow_path(src, dst);
                assert_eq!(Some(flow), fresh.as_ref(), "delta {k}: a stale cached path");
                let back = (node_at(dst), node_at(src));
                if is_named(&back) {
                    reverse_found += 1;
                    let moved = before.as_ref() != Some(flow);
                    let forward = is_named(&(back.1, back.0));
                    reverse_only += usize::from(moved && !forward);
                    reverse_removed += usize::from(moved && delta.removed_paths.contains(&back));
                }
            }
            let own_pairs = gone + named.count();
            let visits = m.swap_pairs_visited - visited;
            assert_eq!(visits, (own_pairs + reverse_found) as u64, "delta {k}");

            let sources = delta.changed_paths.iter().chain(&delta.removed_paths);
            let remote_sources = sources.clone().filter(|&&(src, _)| !is_local(src)).count();
            removed_local += gone;
            mixed += usize::from(own_pairs > 0 && remote_sources > 0);
            created += usize::from(m.chains_installed > installed);
            nothing_visited += usize::from(remote_sources > 0 && visits == 0 && touched == 0);
            rates_kept += m
                .creation_rates
                .iter()
                .filter(|r| !rates_before.contains(r))
                .count();
            rates_dropped += rates_before
                .iter()
                .filter(|r| !m.creation_rates.contains(r))
                .count();
        }
        // Every case of the swap was exercised.
        assert!(reverse_only > 0, "no change of only the way back");
        assert!(reverse_removed > 0, "no removal of only the way back");
        assert!(removed_local > 0, "no removed pair from a local source");
        assert!(mixed > 0, "no delta naming local and remote sources");
        assert!(created > 0, "no chain created by a delta");
        assert!(nothing_visited > 0, "no delta left for other hosts");
        assert!(rates_kept > 0, "no creation rate kept");
        assert!(rates_dropped > 0, "no creation rate dropped");
    }
}
