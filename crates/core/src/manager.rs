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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kollaps_metadata::bus::{Bus, Delivery, HostId};
use kollaps_metadata::codec::{FlowUsage, MetadataMessage};
use kollaps_netmodel::egress::{EgressTree, EgressVerdict};
use kollaps_netmodel::netem::NetemConfig;
use kollaps_netmodel::packet::{Addr, Packet};
use kollaps_sim::prelude::*;
use kollaps_topology::model::LinkId;
use kollaps_trace::Recorder;

use crate::collapse::CollapsedTopology;
use crate::emulation::EmulationConfig;
use crate::sharing::{oversubscription, AllocatorStats, FlowDemand, IncrementalAllocator};

/// Congestion loss is injected only once a link has stayed oversubscribed
/// for this many consecutive loop iterations. A one-iteration spike is the
/// normal signature of a flow joining (its competitors' htb rates are cut in
/// the same iteration, so the overload clears by itself); injecting loss on
/// top of the rate cut used to crash the established flows' congestion
/// windows far below their new fair share (the staggered-join inaccuracy).
/// Persistent oversubscription — unresponsive senders, or managers enforcing
/// on stale metadata — still draws loss from the second iteration on.
const CONGESTION_GRACE_LOOPS: u32 = 2;

/// A remote host's usage as last received: the advertised flows plus the
/// publish time of the message they came from (for staleness accounting).
#[derive(Debug, Clone, Default)]
pub struct RemoteUsage {
    /// When the message carrying this view was published.
    pub published: SimTime,
    /// The per-flow usage the remote manager advertised.
    pub flows: Vec<FlowUsage>,
}

/// One host's Emulation Manager: local TCALs, the received remote view and
/// the enforcement state derived from them.
///
/// The per-loop hot state (`usages`, `last_allocation`, `oversub_streak`) is
/// kept in **sorted contiguous vectors** rather than hash maps: the loop
/// walks these tables in key order anyway (publishing and enforcement are
/// order-sensitive for determinism), so sorted vectors drop both the
/// per-loop re-sorts and the hashing churn that dominated profiles at
/// 10k-flow scale. Point lookups are binary searches.
pub struct EmulationManager {
    host: HostId,
    config: EmulationConfig,
    /// This manager's own collapsed snapshot of the topology. Snapshots are
    /// distributed ahead of time (dynamic events are part of the experiment
    /// description), but *usage* only ever arrives through the bus. Shared
    /// read-only (the paths map is O(services²) — one copy, not one per
    /// host).
    collapsed: Arc<CollapsedTopology>,
    /// Egress qdisc tree per **local** container, in address order: trees
    /// are drained in that order so that same-instant packets enter the
    /// delivery queue deterministically.
    egress: BTreeMap<Addr, EgressTree>,
    /// Latest received usage per remote host.
    remote: HashMap<HostId, RemoteUsage>,
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
    /// Component-caching min-max solver; invalidated on snapshot swaps.
    allocator: IncrementalAllocator,
    /// Wall-clock microseconds spent in the solver (diagnostic only).
    alloc_micros: u64,
    /// Flight recorder (disabled by default) and this manager's lane in it.
    /// Lanes are per-manager, not per-thread: the scoped worker pool
    /// respawns threads every tick, but a manager's spans always land in
    /// the same lane regardless of which worker stepped it.
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

impl EmulationManager {
    /// Builds the manager for `host`, owning the TCALs of `local` containers.
    pub fn new(
        host: HostId,
        config: EmulationConfig,
        collapsed: Arc<CollapsedTopology>,
        local: &[Addr],
        rng: &SimRng,
    ) -> Self {
        let mut egress = BTreeMap::new();
        for &addr in local {
            egress.insert(
                addr,
                EgressTree::new(addr, rng.derive(u64::from(addr.as_u32()))),
            );
        }
        let mut manager = EmulationManager {
            host,
            config,
            collapsed,
            egress,
            remote: HashMap::new(),
            usages: Vec::new(),
            last_allocation: Vec::new(),
            oversub_streak: Vec::new(),
            allocator: IncrementalAllocator::new(),
            alloc_micros: 0,
            recorder: Recorder::disabled(),
            lane: 0,
        };
        manager.install_local_paths();
        manager
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

    /// Work-avoidance counters of the incremental min-max solver.
    pub fn allocator_stats(&self) -> AllocatorStats {
        self.allocator.stats()
    }

    /// Links this manager observed oversubscribed in its most recent loop
    /// iteration (streak ≥ 1 — before the congestion grace period elapses,
    /// so onset is visible even when no loss is injected yet).
    pub fn oversubscribed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.oversub_streak.iter().map(|&(link, _)| link)
    }

    /// Offers a packet from a local container to its egress tree.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> Option<EgressVerdict> {
        self.egress
            .get_mut(&packet.src)
            .map(|tree| tree.enqueue(now, packet))
    }

    /// Packets that finished their collapsed-path emulation on this host,
    /// tree by tree in container-address order.
    pub fn dequeue_ready(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        for tree in self.egress.values_mut() {
            out.extend(tree.dequeue_ready(now));
        }
        out
    }

    /// Earliest time any local TCAL needs service.
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.egress
            .values_mut()
            .filter_map(|tree| tree.next_wakeup(now))
            .filter(|&t| t < SimTime::MAX)
            .min()
    }

    /// Loop steps 1–2: reads and clears the per-destination usage of every
    /// local TCAL.
    pub fn collect_usage(&mut self) {
        let mut span = self.recorder.span(self.lane, "worker:collect");
        let interval = self.config.loop_interval;
        self.usages.clear();
        for (&src, tree) in &mut self.egress {
            for (&dst, &bytes) in tree.usage() {
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
        // `enforce` used to do (a tree's usage map iterates in arbitrary
        // order).
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
        for &((src, dst), used) in &self.usages {
            let Some(path) = self.collapsed.path_by_addr(src, dst) else {
                continue;
            };
            let ids: Vec<u16> = path.links.iter().map(|l| l.0 as u16).collect();
            message.flows.push(FlowUsage::new(used, ids));
        }
        bus.publish(now, self.host, &message);
    }

    /// Loop step 3b: absorbs delivered metadata, keeping the newest message
    /// per sender (deliveries can bunch up when the loop outpaces the
    /// network delay).
    pub fn absorb(&mut self, deliveries: Vec<Delivery>) {
        for delivery in deliveries {
            let newer = self
                .remote
                .get(&delivery.from)
                .is_none_or(|prev| prev.published <= delivery.published);
            if newer {
                self.remote.insert(
                    delivery.from,
                    RemoteUsage {
                        published: delivery.published,
                        flows: delivery.message.flows,
                    },
                );
            }
        }
    }

    /// Loop steps 4–5: recomputes the RTT-aware min-max shares from local
    /// usage plus the received (possibly stale) remote view, and enforces
    /// the resulting rates and congestion loss on the local TCALs.
    pub fn enforce(&mut self, now: SimTime) {
        let mut worker_span = self.recorder.span(self.lane, "worker:enforce");
        // The competing flow set, as *this* manager can know it.
        let mut flows: Vec<FlowDemand> = Vec::new();
        let mut usage_by_id: HashMap<u64, Bandwidth> = HashMap::new();
        let mut local_keys: Vec<(u64, Addr, Addr)> = Vec::new();

        for &((src, dst), used) in &self.usages {
            let id = flows.len() as u64;
            let Some(demand) = self.collapsed.flow_demand(id, src, dst) else {
                continue;
            };
            flows.push(demand);
            usage_by_id.insert(id, used);
            local_keys.push((id, src, dst));
        }

        let mut remote_views: Vec<(&HostId, &RemoteUsage)> = self.remote.iter().collect();
        remote_views.sort_by_key(|(&host, _)| host);
        for (_, view) in remote_views {
            for flow in &view.flows {
                let links: Vec<LinkId> = flow
                    .link_ids
                    .iter()
                    .map(|&l| LinkId(u32::from(l)))
                    .collect();
                // Links this snapshot still knows about; under dynamic
                // events a remote advertisement can reference links that no
                // longer exist here — managers transiently disagree.
                let known: Vec<LinkId> = links
                    .iter()
                    .copied()
                    .filter(|l| self.collapsed.link_capacity(*l).is_some())
                    .collect();
                let one_way = known
                    .iter()
                    .filter_map(|&l| self.collapsed.link_latency(l))
                    .fold(SimDuration::ZERO, |acc, d| acc + d);
                let rtt = if one_way.is_zero() {
                    SimDuration::from_millis(1)
                } else {
                    one_way * 2
                };
                let demand = known
                    .iter()
                    .filter_map(|&l| self.collapsed.link_capacity(l))
                    .min()
                    .unwrap_or(Bandwidth::MAX);
                let id = flows.len() as u64;
                flows.push(FlowDemand {
                    id,
                    links,
                    rtt,
                    demand,
                });
                usage_by_id.insert(id, flow.used());
            }
        }

        // Rates computed for the local pairs, aligned with `local_keys`.
        // Reading the allocator's result out here ends its borrow before the
        // qdisc writes below and bounds the allocation span to the solve.
        let local_rates: Vec<Bandwidth> = if self.config.bandwidth_sharing {
            let mut alloc_span = self.recorder.span(self.lane, "allocate");
            let before = self.allocator.stats();
            // kollaps-analyze: allow(wall-clock) -- solver-time diagnostic only; never feeds back into the emulation (pinned by the traced-vs-untraced identity test)
            let start = std::time::Instant::now();
            let allocation = self
                .allocator
                .allocate(&flows, self.collapsed.link_capacities());
            let micros = start.elapsed().as_micros() as u64;
            let rates = local_keys
                .iter()
                .map(|&(id, _, _)| allocation.of(id))
                .collect();
            self.alloc_micros += micros;
            let delta = self.allocator.stats().since(before);
            alloc_span.arg("flows", flows.len() as f64);
            alloc_span.arg("micros", micros as f64);
            alloc_span.arg("fast_hits", delta.fast_hits as f64);
            alloc_span.arg("components_reused", delta.components_reused as f64);
            alloc_span.arg("components_recomputed", delta.components_recomputed as f64);
            rates
        } else {
            Vec::new()
        };
        let over = if self.config.congestion_loss {
            let raw = oversubscription(&flows, &usage_by_id, self.collapsed.link_capacities());
            let mut streaks: Vec<(LinkId, u32)> = raw
                .keys()
                .map(|&link| (link, table_get(&self.oversub_streak, link).unwrap_or(0) + 1))
                .collect();
            streaks.sort_unstable_by_key(|&(link, _)| link);
            self.oversub_streak = streaks;
            raw.into_iter()
                .filter(|(link, _)| {
                    table_get(&self.oversub_streak, *link).unwrap_or(0) >= CONGESTION_GRACE_LOOPS
                })
                .collect()
        } else {
            self.oversub_streak.clear();
            BTreeMap::new()
        };

        // Enforcement: active local pairs get their computed share (or keep
        // the path maximum when sharing is disabled); pairs enforced last
        // loop that went idle are restored to the path maximum **once** so
        // new flows are not throttled by stale limits. Chains that were at
        // their defaults and stay idle are not touched at all — the old
        // all-pairs sweep was O(containers²) per loop and capped scaling.
        let previously: Vec<(Addr, Addr)> =
            self.last_allocation.iter().map(|&(key, _)| key).collect();
        self.last_allocation.clear();
        for (i, &(_, src, dst)) in local_keys.iter().enumerate() {
            let Some(path) = self.collapsed.path_by_addr(src, dst) else {
                continue;
            };
            let rate = if self.config.bandwidth_sharing {
                local_rates[i]
            } else {
                path.max_bandwidth
            };
            // Congestion loss: combine the path's intrinsic loss with the
            // worst (persistent) oversubscription along the path.
            let mut congestion = 0.0f64;
            for link in &path.links {
                if let Some(&o) = over.get(link) {
                    congestion = congestion.max(o);
                }
            }
            let loss = 1.0 - (1.0 - path.loss) * (1.0 - congestion);
            if let Some(tree) = self.egress.get_mut(&src) {
                tree.set_bandwidth(now, dst, rate);
                tree.set_loss(dst, loss);
            }
            // `local_keys` is sorted by pair, so pushes keep the table sorted.
            self.last_allocation.push(((src, dst), rate));
        }
        for &(src, dst) in &previously {
            if table_get(&self.last_allocation, (src, dst)).is_some() {
                continue;
            }
            let Some(tree) = self.egress.get_mut(&src) else {
                continue;
            };
            // A pair whose path disappeared had its chain removed by the
            // delta application; nothing to restore then.
            if let Some(path) = self.collapsed.path_by_addr(src, dst) {
                tree.set_bandwidth(now, dst, path.max_bandwidth);
                tree.set_loss(dst, path.loss);
            }
        }
        worker_span.arg("enforced_pairs", self.last_allocation.len() as f64);
    }

    /// Applies one precomputed change: swaps the snapshot `Arc` and updates
    /// **only** the qdisc chains of local pairs the delta names. Returns the
    /// number of chains touched — the per-host share of the swap cost, which
    /// scales with the paths the event affected rather than with the
    /// topology size (no path is recomputed here; the timeline did that
    /// offline).
    pub fn apply_delta(&mut self, delta: &crate::timeline::SnapshotDelta) -> usize {
        self.collapsed = Arc::clone(&delta.snapshot);
        // Capacities changed: the component cache keys on flow shapes only.
        self.allocator.invalidate();
        let collapsed = Arc::clone(&self.collapsed);
        let mut touched = 0;
        for &(src, dst) in &delta.removed_paths {
            let (Some(src_addr), Some(dst_addr)) =
                (collapsed.address_of(src), collapsed.address_of(dst))
            else {
                continue;
            };
            if let Some(tree) = self.egress.get_mut(&src_addr) {
                if tree.remove_path(dst_addr) {
                    touched += 1;
                }
                table_remove(&mut self.last_allocation, (src_addr, dst_addr));
            }
        }
        for &(src, dst) in &delta.changed_paths {
            let (Some(src_addr), Some(dst_addr)) =
                (collapsed.address_of(src), collapsed.address_of(dst))
            else {
                continue;
            };
            let Some(tree) = self.egress.get_mut(&src_addr) else {
                continue;
            };
            let Some(path) = collapsed.path(src, dst) else {
                continue;
            };
            let netem = NetemConfig {
                delay: path.latency,
                jitter: path.jitter,
                loss: path.loss,
                ..NetemConfig::default()
            };
            let rate = table_get(&self.last_allocation, (src_addr, dst_addr))
                .unwrap_or(path.max_bandwidth)
                .min(path.max_bandwidth);
            tree.install_path(dst_addr, netem, rate);
            touched += 1;
        }
        touched
    }

    /// Installs the per-destination chains of every (still empty) local TCAL
    /// from the initial collapsed snapshot; later snapshots arrive as deltas.
    fn install_local_paths(&mut self) {
        let collapsed = Arc::clone(&self.collapsed);
        for (src_node, src_addr) in collapsed.addresses() {
            let Some(tree) = self.egress.get_mut(&src_addr) else {
                continue;
            };
            for (dst_node, dst_addr) in collapsed.addresses() {
                if dst_addr == src_addr {
                    continue;
                }
                let Some(path) = collapsed.path(src_node, dst_node) else {
                    continue;
                };
                let netem = NetemConfig {
                    delay: path.latency,
                    jitter: path.jitter,
                    loss: path.loss,
                    ..NetemConfig::default()
                };
                // The htb class starts at the collapsed maximum bandwidth;
                // the emulation loop tightens it as soon as competing flows
                // appear.
                tree.install_path(dst_addr, netem, path.max_bandwidth);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_netmodel::packet::{FlowId, PacketKind, MTU};
    use kollaps_topology::generators;

    /// The egress map's key order is the drain order: same-instant packets
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
}
