//! RTT-aware Min-Max bandwidth sharing with the work-conserving
//! maximization step (paper §3).
//!
//! On every link, each active flow `f` receives a share proportional to the
//! inverse of its round-trip time:
//!
//! ```text
//! Share(f) = ( RTT(f) · Σ_i 1/RTT(f_i) )⁻¹ · capacity
//! ```
//!
//! which is the allocation TCP Reno converges to. A flow may be unable to
//! use its share — it is limited by another link of its path, by its own
//! demand, or by the collapsed path's maximum bandwidth. In that case the
//! unused capacity is redistributed among the remaining flows of the link
//! proportionally to their original shares (the *maximization step*),
//! iterated until a fixed point. The solver implements this as weighted
//! progressive filling: repeatedly fix demand-limited flows, then saturate
//! the most contended link, until every flow is fixed. Kollaps enforces the
//! result per destination rather than per flow.
//!
//! # The dense kernel
//!
//! There is one solver, the private `Kernel`, behind both entry points:
//! [`allocate`], the keyed one-shot (grants by flow id), and
//! [`Allocator::solve`], the positional one the emulation loop calls
//! (grants by position, buffers reused, a memo of the previous call). The
//! kernel never keys anything by [`LinkId`] inside its loops:
//!
//! 1. **Link slots.** The links are numbered by the snapshot's
//!    [`LinkTable`], ascending by id, and every per-link quantity —
//!    remaining capacity, weight of the unfixed flows, union-find parent —
//!    is a `Vec` indexed by that slot. The emulation loop hands the kernel
//!    the table its snapshot already carries
//!    ([`crate::collapse::CollapsedTopology::link_table`]), so nothing is
//!    renumbered per call; only [`allocate`] builds one, from its map. Each
//!    flow's path is translated to slots once per call, in path order and
//!    with duplicates kept; a link the table does not have (advertised by a
//!    remote manager whose snapshot differs) or holds at
//!    [`Bandwidth::MAX`] is unconstrained and takes no part. The tables are
//!    sized by the link table, never by an id found in a flow.
//! 2. **Partition.** Two flows interact only when their paths share a
//!    constrained link, so a union-find over the slots splits the input into
//!    independent *contention components*. Components are numbered by their
//!    first member flow; members keep input order, links ascending id order.
//! 3. **Progressive filling per component.** Each round zeroes and refills
//!    the per-slot weight sums of the component's links, derives every
//!    unfixed flow's tentative share, then either fixes all demand-limited
//!    flows or saturates the bottleneck link, and compacts the unfixed list
//!    once.
//!
//! # Operand order is part of the contract
//!
//! The distributed runtime replays this computation on every host and the
//! reports are compared byte for byte, so the result must not depend on how
//! the tables are laid out. Floating-point addition is not associative:
//! the kernel therefore adds weights per link in (flow position, path
//! position) order, subtracts grants from a link's remaining capacity in the
//! order flows are fixed (position order within a round), breaks bottleneck
//! ties on the lower link id, and evaluates `capacity · weight / Σweight`
//! left to right — exactly what the map-based solver it replaced did, which
//! survives as the test oracle `reference_allocate`. Solving component by
//! component is bit-identical to the oracle's single pass over all flows
//! for the same reason: restricted to a component, the global round
//! sequence performs the same operations on the same operands in the same
//! order. The memo of [`Allocator::solve`] rests on it too: grants are a
//! function of the RTT, demand and links at every position (ids never enter
//! the arithmetic) and of the presence and capacity of those links only,
//! taken in ascending-id order, so an input equal in those over any table
//! that agrees on those links — the same one ([`Arc::ptr_eq`]: a snapshot
//! never mutates its table) or a swapped-in one — gets the same grants.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use kollaps_topology::model::LinkId;

use crate::collapse::LinkTable;

/// A flow competing for bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowDemand {
    /// Opaque identifier chosen by the caller (Kollaps uses one entry per
    /// source/destination container pair). Ids must be unique within one
    /// solver input.
    pub id: u64,
    /// The links of the flow's collapsed path.
    pub links: Vec<LinkId>,
    /// The flow's round-trip time (used as the fairness weight).
    pub rtt: SimDuration,
    /// Upper bound on what the flow can use: the minimum of the collapsed
    /// path's maximum bandwidth and the application demand, when known.
    pub demand: Bandwidth,
}

impl FlowDemand {
    /// The borrowed view the solver reads.
    pub fn borrowed(&self) -> FlowRef<'_> {
        FlowRef {
            links: &self.links,
            rtt: self.rtt,
            demand: self.demand,
        }
    }
}

/// A [`FlowDemand`] whose links are borrowed — from a collapsed path, or
/// from an arena the caller refills every loop iteration — so that building
/// the solver input allocates nothing per flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRef<'a> {
    /// See [`FlowDemand::links`].
    pub links: &'a [LinkId],
    /// See [`FlowDemand::rtt`].
    pub rtt: SimDuration,
    /// See [`FlowDemand::demand`].
    pub demand: Bandwidth,
}

impl FlowRef<'_> {
    /// Fairness weight `1 / RTT(f)` in 1/seconds (clamped to avoid division
    /// by zero for co-located containers).
    fn weight(&self) -> f64 {
        1.0 / self.rtt.as_secs_f64().max(1e-6)
    }
}

/// The allocation computed by [`allocate`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Bandwidth allocated to each flow, keyed by [`FlowDemand::id`].
    pub per_flow: HashMap<u64, Bandwidth>,
}

impl Allocation {
    /// Allocated bandwidth of a flow (zero if unknown).
    pub fn of(&self, id: u64) -> Bandwidth {
        self.per_flow.get(&id).copied().unwrap_or(Bandwidth::ZERO)
    }

    fn keyed(flows: &[FlowDemand], grants: &[Bandwidth]) -> Self {
        Allocation {
            per_flow: flows
                .iter()
                .map(|f| f.id)
                .zip(grants.iter().copied())
                .collect(),
        }
    }
}

/// Computes the RTT-aware min-max allocation for `flows` over the links with
/// the given capacities.
///
/// Links missing from `capacities` are treated as unconstrained. The flows
/// are partitioned into contention components and each component is solved
/// by progressive filling, which terminates after at most one round per
/// member flow because every round fixes at least one.
pub fn allocate(flows: &[FlowDemand], capacities: &BTreeMap<LinkId, Bandwidth>) -> Allocation {
    let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowDemand::borrowed).collect();
    let mut grants = Vec::new();
    Kernel::default().solve(&refs, &LinkTable::from_capacities(capacities), &mut grants);
    Allocation::keyed(flows, &grants)
}

/// "No component" in the `u32` index tables.
const NONE: u32 = u32::MAX;

/// `rows[offsets[i]..offsets[i + 1]]`: row `i` of a flat table.
fn row<'a, T>(offsets: &[u32], rows: &'a [T], i: usize) -> &'a [T] {
    &rows[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Builds the flat table whose row `r` lists, ascending, every position `i`
/// with `keys[i] == r` ([`NONE`] keys are left out): a counting sort.
fn group_rows(
    row_count: usize,
    keys: impl Iterator<Item = u32> + Clone,
    offsets: &mut Vec<u32>,
    rows: &mut Vec<u32>,
) {
    // Count row `r` into `offsets[r + 2]`; the running sum then leaves the
    // start of row `r` in `offsets[r + 1]`, which the fill below advances to
    // the row's end — the start of row `r + 1`, right where it belongs once
    // the spare last entry is dropped.
    offsets.clear();
    offsets.resize(row_count + 2, 0);
    for key in keys.clone().filter(|&key| key != NONE) {
        offsets[key as usize + 2] += 1;
    }
    let mut total = 0;
    for offset in offsets.iter_mut() {
        total += *offset;
        *offset = total;
    }
    rows.clear();
    rows.resize(total as usize, 0);
    for (i, key) in keys.enumerate().filter(|&(_, key)| key != NONE) {
        let at = &mut offsets[key as usize + 1];
        rows[*at as usize] = i as u32;
        *at += 1;
    }
    offsets.pop();
}

/// The contention components of one solver input.
#[derive(Debug, Default)]
struct Partition {
    /// Component of every link slot; [`NONE`] when no flow crosses it.
    component_of_slot: Vec<u32>,
    /// Row `c` of `members`: the flows of component `c`, by position in the
    /// input, ascending.
    member_offsets: Vec<u32>,
    members: Vec<u32>,
    /// Row `c` of `links`: the link slots of component `c`, ascending.
    link_offsets: Vec<u32>,
    links: Vec<u32>,
}

impl Partition {
    fn len(&self) -> usize {
        self.member_offsets.len().saturating_sub(1)
    }

    fn members(&self, component: usize) -> &[u32] {
        row(&self.member_offsets, &self.members, component)
    }

    fn links(&self, component: usize) -> &[u32] {
        row(&self.link_offsets, &self.links, component)
    }
}

/// The solver: dense per-flow and per-link-slot tables, reused across calls
/// by [`Allocator`]. See the module documentation.
#[derive(Debug, Default)]
struct Kernel {
    partition: Partition,
    /// Per flow, by position: weight and demand in b/s.
    weight: Vec<f64>,
    demand: Vec<f64>,
    /// Row `i` of `slots`: the constrained link slots of flow `i`, in path
    /// order, duplicates kept (a link listed twice weighs and pays twice).
    slot_offsets: Vec<u32>,
    slots: Vec<u32>,
    /// Per link slot: capacity not yet granted, the weight sum of the
    /// current round's unfixed flows, and the union-find forest.
    remaining: Vec<f64>,
    weight_on: Vec<f64>,
    parent: Vec<u32>,
    /// Tentative share per flow (by position) in the current round.
    share: Vec<f64>,
    /// The component's flows not fixed yet, ascending.
    unfixed: Vec<u32>,
}

fn find(parent: &mut [u32], mut slot: u32) -> u32 {
    while parent[slot as usize] != slot {
        let up = parent[parent[slot as usize] as usize];
        parent[slot as usize] = up;
        slot = up;
    }
    slot
}

/// Grants `granted_bps` to a flow crossing `slots`.
fn fix_flow(slots: &[u32], granted_bps: f64, remaining: &mut [f64], grant: &mut Bandwidth) {
    let granted = granted_bps.max(0.0);
    for &slot in slots {
        let left = &mut remaining[slot as usize];
        *left = (*left - granted).max(0.0);
    }
    *grant = Bandwidth::from_bps(granted.round() as u64);
}

impl Kernel {
    /// Solves `flows` over `capacities` into `grants`, one entry per flow by
    /// position, component by component of `self.partition`.
    fn solve(&mut self, flows: &[FlowRef<'_>], links: &LinkTable, grants: &mut Vec<Bandwidth>) {
        self.load(flows, links, grants);
        for component in 0..self.partition.len() {
            self.solve_component(component, grants);
        }
    }

    /// Translates `flows` to the dense tables, partitions them, and sizes
    /// `grants` to one entry per flow — already final for flows crossing no
    /// constrained link (they get their demand), zero for the members of a
    /// component until it is solved.
    fn load(&mut self, flows: &[FlowRef<'_>], links: &LinkTable, grants: &mut Vec<Bandwidth>) {
        let partition = &mut self.partition;
        let slot_count = links.len();
        self.remaining.clear();
        self.remaining
            .extend((0..slot_count).map(|slot| links.capacity(slot).as_bps() as f64));
        self.weight_on.clear();
        self.weight_on.resize(slot_count, 0.0);
        self.parent.clear();
        self.parent.extend(0..slot_count as u32);

        self.weight.clear();
        self.demand.clear();
        self.slots.clear();
        self.slot_offsets.clear();
        self.slot_offsets.push(0);
        for flow in flows {
            self.weight.push(flow.weight());
            self.demand.push(flow.demand.as_bps() as f64);
            let first = self.slots.len();
            for &link in flow.links {
                let Some(slot) = links
                    .slot(link)
                    .filter(|&slot| links.capacity(slot) != Bandwidth::MAX)
                else {
                    continue;
                };
                let slot = slot as u32;
                if let Some(&head) = self.slots.get(first) {
                    let (a, b) = (find(&mut self.parent, head), find(&mut self.parent, slot));
                    self.parent[a as usize] = b;
                }
                self.slots.push(slot);
            }
            self.slot_offsets.push(self.slots.len() as u32);
        }
        self.share.clear();
        self.share.resize(flows.len(), f64::INFINITY);

        // Number the components by first member flow. Until the slot pass
        // below, `component_of_slot` is only meaningful at union-find roots.
        partition.component_of_slot.clear();
        partition.component_of_slot.resize(slot_count, NONE);
        grants.clear();
        grants.resize(flows.len(), Bandwidth::ZERO);
        let mut components = 0u32;
        for (i, grant) in grants.iter_mut().enumerate() {
            let Some(&head) = row(&self.slot_offsets, &self.slots, i).first() else {
                // No constrained link: the flow gets its demand (or path
                // cap) — a fix against an infinite share.
                fix_flow(&[], self.demand[i], &mut self.remaining, grant);
                continue;
            };
            let root = find(&mut self.parent, head) as usize;
            if partition.component_of_slot[root] == NONE {
                partition.component_of_slot[root] = components;
                components += 1;
            }
        }
        for slot in 0..slot_count {
            let root = find(&mut self.parent, slot as u32) as usize;
            partition.component_of_slot[slot] = partition.component_of_slot[root];
        }

        let component_of_slot = &partition.component_of_slot;
        group_rows(
            components as usize,
            component_of_slot.iter().copied(),
            &mut partition.link_offsets,
            &mut partition.links,
        );
        let component_of_flow = |i| {
            row(&self.slot_offsets, &self.slots, i)
                .first()
                .map_or(NONE, |&head| component_of_slot[head as usize])
        };
        group_rows(
            components as usize,
            (0..flows.len()).map(component_of_flow),
            &mut partition.member_offsets,
            &mut partition.members,
        );
    }

    /// Weighted progressive filling over one component of the loaded input;
    /// writes the members' grants.
    fn solve_component(&mut self, component: usize, grants: &mut [Bandwidth]) {
        let Kernel {
            partition,
            weight,
            demand,
            slot_offsets,
            slots,
            remaining,
            weight_on,
            share,
            unfixed,
            ..
        } = self;
        let slots_of = |i: u32| row(slot_offsets, slots, i as usize);
        let links = partition.links(component);
        unfixed.clear();
        unfixed.extend_from_slice(partition.members(component));

        while !unfixed.is_empty() {
            // Sum of weights of unfixed flows per link.
            for &slot in links {
                weight_on[slot as usize] = 0.0;
            }
            for &i in unfixed.iter() {
                for &slot in slots_of(i) {
                    weight_on[slot as usize] += weight[i as usize];
                }
            }

            // Tentative share of each unfixed flow: the minimum over its
            // links of its weighted share of the remaining capacity.
            for &i in unfixed.iter() {
                let mut s = f64::INFINITY;
                for &slot in slots_of(i) {
                    let w = weight_on[slot as usize];
                    if w > 0.0 {
                        s = s.min(remaining[slot as usize] * weight[i as usize] / w);
                    }
                }
                share[i as usize] = s;
            }

            // 1. Fix every flow whose demand (or path cap) is below its share —
            //    these are the flows the maximization step takes capacity from.
            let before = unfixed.len();
            unfixed.retain(|&i| {
                let limited = demand[i as usize] <= share[i as usize] + 1e-9;
                if limited {
                    let granted = demand[i as usize];
                    fix_flow(slots_of(i), granted, remaining, &mut grants[i as usize]);
                }
                !limited
            });
            if unfixed.len() < before {
                continue;
            }

            // 2. Otherwise saturate the most contended link: the one offering
            //    the smallest capacity per unit of weight. `links` ascends by
            //    link id and only a strictly smaller offer replaces the
            //    candidate, so ties break on the lower link id.
            let mut bottleneck: Option<(u32, f64)> = None;
            for &slot in links {
                let w = weight_on[slot as usize];
                if w > 0.0 {
                    let per_weight = remaining[slot as usize] / w;
                    if bottleneck.is_none_or(|(_, best)| per_weight < best) {
                        bottleneck = Some((slot, per_weight));
                    }
                }
            }
            match bottleneck {
                Some((link, per_weight)) => unfixed.retain(|&i| {
                    let on_link = slots_of(i).contains(&link);
                    if on_link {
                        let granted = (per_weight * weight[i as usize]).min(demand[i as usize]);
                        fix_flow(slots_of(i), granted, remaining, &mut grants[i as usize]);
                    }
                    !on_link
                }),
                None => {
                    // No constrained links left: every remaining flow gets
                    // its demand (or path cap).
                    for &i in unfixed.iter() {
                        let granted = demand[i as usize];
                        fix_flow(slots_of(i), granted, remaining, &mut grants[i as usize]);
                    }
                    unfixed.clear();
                }
            }
        }
    }
}

/// Counters describing how much work [`Allocator`] avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Calls answered entirely from the previous result (identical input).
    pub fast_hits: u64,
    /// Always 0: the allocator has no per-component reuse. The field stays
    /// because the repo benchmark's layered pass reads it.
    pub components_reused: u64,
    /// Contention components solved (every component of every call that
    /// missed the identical-input fast path).
    pub components_recomputed: u64,
    /// Total [`Allocator::solve`] calls.
    pub calls: u64,
}

impl AllocatorStats {
    /// Counters accumulated since `earlier` was captured — the per-call (or
    /// per-span) delta the flight recorder attaches to allocation spans.
    pub fn since(&self, earlier: AllocatorStats) -> AllocatorStats {
        AllocatorStats {
            fast_hits: self.fast_hits - earlier.fast_hits,
            components_reused: self.components_reused - earlier.components_reused,
            components_recomputed: self.components_recomputed - earlier.components_recomputed,
            calls: self.calls - earlier.calls,
        }
    }
}

/// The previous call: its input, in everything the positional result
/// depends on, and its grants.
#[derive(Debug, Default)]
struct Memo {
    /// The link table the input was solved over; `None` before the first
    /// call.
    table: Option<Arc<LinkTable>>,
    /// Per flow, by position.
    rtt: Vec<SimDuration>,
    demand: Vec<Bandwidth>,
    /// Row `i` of `links`: the full path of flow `i` (constrained or not).
    link_offsets: Vec<u32>,
    links: Vec<LinkId>,
    grants: Vec<Bandwidth>,
}

impl Memo {
    /// `true` when `flows` over `table` is this call's input again: the
    /// same RTT, demand and links at every position (ids never enter the
    /// arithmetic), over a table that agrees with the memoised one on
    /// every link those flows cross.
    fn same_input(&self, flows: &[FlowRef<'_>], table: &Arc<LinkTable>) -> bool {
        let Some(last) = &self.table else {
            return false;
        };
        self.rtt.len() == flows.len()
            && flows.iter().enumerate().all(|(i, flow)| {
                self.rtt[i] == flow.rtt
                    && self.demand[i] == flow.demand
                    && row(&self.link_offsets, &self.links, i) == flow.links
            })
            && (Arc::ptr_eq(last, table) || self.same_links(last, table))
    }

    /// `true` when every link of every memoised flow has the same presence
    /// and the same capacity in `last` and `table`. The kernel reads no
    /// other link, and the links it reads keep their ascending-id order
    /// however the tables number them, so the grants carry over bit for
    /// bit.
    fn same_links(&self, last: &LinkTable, table: &LinkTable) -> bool {
        let capacity = |links: &LinkTable, link| links.slot(link).map(|slot| links.capacity(slot));
        self.links
            .iter()
            .all(|&link| capacity(last, link) == capacity(table, link))
    }

    /// Records the input `flows` over `table` (the grants are written in
    /// place by the caller).
    fn record(&mut self, flows: &[FlowRef<'_>], table: &Arc<LinkTable>) {
        self.table = Some(Arc::clone(table));
        self.rtt.clear();
        self.demand.clear();
        self.links.clear();
        self.link_offsets.clear();
        self.link_offsets.push(0);
        for flow in flows {
            self.rtt.push(flow.rtt);
            self.demand.push(flow.demand);
            self.links.extend_from_slice(flow.links);
            self.link_offsets.push(self.links.len() as u32);
        }
    }
}

/// The min-max solver of the emulation loop: the dense kernel with its
/// buffers reused across calls, plus a memo of the previous call. An input
/// identical to the previous one — the steady state of an emulation at
/// scale — is answered from the memo; any other input is solved in full.
///
/// The result is **bit-identical** to [`allocate`] on the same input, by
/// position instead of by id (see the module documentation).
///
/// A snapshot's table never changes, and a timeline delta that moves a
/// capacity or a latency carries a new one. The memo compares tables by
/// identity ([`Arc::ptr_eq`]) first; only a different table is compared by
/// value, and only at the links the memoised flows cross: when each has
/// the same presence and capacity in both, the call is a hit and the memo
/// adopts the new table. A swap that moved links no flow crosses therefore
/// costs no solve, while one that moved a crossed link's capacity (or took
/// the link away) misses. The memo holds its table, so the address cannot
/// be reused by another table while it is compared against.
#[derive(Debug, Default)]
pub struct Allocator {
    last: Memo,
    kernel: Kernel,
    stats: AllocatorStats,
}

impl Allocator {
    /// Work-avoidance counters since construction.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// The grants of `allocate` for the same flows and the capacities of
    /// `links`, by position in `flows`.
    pub fn solve(&mut self, flows: &[FlowRef<'_>], links: &Arc<LinkTable>) -> &[Bandwidth] {
        self.stats.calls += 1;
        if self.last.same_input(flows, links) {
            self.stats.fast_hits += 1;
            // A hit over another table adopts it: the next call over it
            // compares pointers only.
            self.last.table = Some(Arc::clone(links));
            return &self.last.grants;
        }
        self.kernel.solve(flows, links, &mut self.last.grants);
        self.stats.components_recomputed += self.kernel.partition.len() as u64;
        self.last.record(flows, links);
        &self.last.grants
    }
}

/// Per-link oversubscription ratios given the *demanded* (not allocated)
/// bandwidth of each flow — `usages[i]` is what `flows[i]` used —
/// `max(0, (Σ demand - capacity) / Σ demand)`, for the oversubscribed links
/// of `links` only, in ascending link order. A link the table does not
/// have, or holds at [`Bandwidth::MAX`], is never oversubscribed.
///
/// Kollaps uses this to inject packet loss proportional to the excess when
/// reliable flows push more traffic than a link can carry (paper §3,
/// "Congestion"), so that TCP's congestion avoidance sees loss even though
/// the htb qdisc itself only back-pressures.
pub fn oversubscription(
    flows: &[FlowRef<'_>],
    usages: &[Bandwidth],
    links: &LinkTable,
) -> Vec<(LinkId, f64)> {
    let rows = flows
        .iter()
        .zip(usages)
        .map(|(flow, &used)| (flow.links.iter().filter_map(|&link| links.slot(link)), used));
    oversubscription_by_slot(rows, links)
}

/// [`oversubscription`] over flows given as the slots of their links in
/// `links` (links the table does not have left out) and their usage: the
/// form a caller that keeps its flows' slots between calls hands in.
pub(crate) fn oversubscription_by_slot<S: IntoIterator<Item = usize>>(
    rows: impl IntoIterator<Item = (S, Bandwidth)>,
    links: &LinkTable,
) -> Vec<(LinkId, f64)> {
    let mut demanded = vec![0.0f64; links.len()];
    for (slots, used) in rows {
        for slot in slots {
            demanded[slot] += used.as_bps() as f64;
        }
    }
    let mut out = Vec::new();
    for (slot, (&link, &demand)) in links.ids().iter().zip(&demanded).enumerate() {
        let capacity = links.capacity(slot);
        if capacity == Bandwidth::MAX {
            continue;
        }
        let capacity = capacity.as_bps() as f64;
        if demand > capacity {
            out.push((link, (demand - capacity) / demand));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::rng::SimRng;

    impl FlowDemand {
        fn weight(&self) -> f64 {
            self.borrowed().weight()
        }
    }

    /// The map-based solver the dense kernel replaced, verbatim: the oracle
    /// of the differential tests below. It solves all flows in one pass,
    /// with a fresh `BTreeMap`/`HashMap` per round.
    fn reference_allocate(
        flows: &[FlowDemand],
        capacities: &BTreeMap<LinkId, Bandwidth>,
    ) -> Allocation {
        let mut allocation = Allocation::default();
        if flows.is_empty() {
            return allocation;
        }

        // Remaining capacity per constrained link. Ordered map: the solver
        // iterates it (bottleneck search) and the distributed runtime replays
        // this computation on every host, so iteration order must be stable.
        let mut remaining: BTreeMap<LinkId, f64> = capacities
            .iter()
            .filter(|(_, c)| **c != Bandwidth::MAX)
            .map(|(&l, &c)| (l, c.as_bps() as f64))
            .collect();

        let mut unfixed: Vec<usize> = (0..flows.len()).collect();

        while !unfixed.is_empty() {
            // Sum of weights of unfixed flows per link.
            let mut weight_on_link: BTreeMap<LinkId, f64> = BTreeMap::new();
            for &i in &unfixed {
                for link in &flows[i].links {
                    if remaining.contains_key(link) {
                        *weight_on_link.entry(*link).or_default() += flows[i].weight();
                    }
                }
            }

            // Tentative share of each unfixed flow: the minimum over its
            // constrained links of its weighted share of the remaining capacity.
            let mut share: HashMap<usize, f64> = HashMap::new();
            for &i in &unfixed {
                let mut s = f64::INFINITY;
                for link in &flows[i].links {
                    if let Some(&cap) = remaining.get(link) {
                        let w = weight_on_link.get(link).copied().unwrap_or(0.0);
                        if w > 0.0 {
                            s = s.min(cap * flows[i].weight() / w);
                        }
                    }
                }
                share.insert(i, s);
            }

            // 1. Fix every flow whose demand (or path cap) is below its share —
            //    these are the flows the maximization step takes capacity from.
            let demand_limited: Vec<usize> = unfixed
                .iter()
                .copied()
                .filter(|&i| {
                    let cap = flows[i].demand.as_bps() as f64;
                    cap <= share[&i] + 1e-9
                })
                .collect();
            if !demand_limited.is_empty() {
                for i in demand_limited {
                    let granted = flows[i].demand.as_bps() as f64;
                    reference_fix_flow(&flows[i], granted, &mut remaining, &mut allocation);
                    unfixed.retain(|&u| u != i);
                }
                continue;
            }

            // 2. Otherwise saturate the most contended link: the one offering the
            //    smallest capacity per unit of weight. Ties break on the lower
            //    link id so the result never depends on HashMap iteration order
            //    (the distributed runtime replays this computation on every host
            //    and requires bit-identical outcomes across processes).
            let bottleneck = weight_on_link
                .iter()
                .filter(|(_, &w)| w > 0.0)
                .map(|(&l, &w)| (l, remaining.get(&l).copied().unwrap_or(f64::INFINITY) / w))
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });

            match bottleneck {
                Some((link, per_weight)) => {
                    let on_link: Vec<usize> = unfixed
                        .iter()
                        .copied()
                        .filter(|&i| flows[i].links.contains(&link))
                        .collect();
                    for i in on_link {
                        let granted =
                            (per_weight * flows[i].weight()).min(flows[i].demand.as_bps() as f64);
                        reference_fix_flow(&flows[i], granted, &mut remaining, &mut allocation);
                        unfixed.retain(|&u| u != i);
                    }
                }
                None => {
                    // No constrained links left: every remaining flow gets its
                    // demand (or path cap).
                    for &i in &unfixed {
                        let granted = flows[i].demand.as_bps() as f64;
                        reference_fix_flow(&flows[i], granted, &mut remaining, &mut allocation);
                    }
                    unfixed.clear();
                }
            }
        }

        allocation
    }

    fn reference_fix_flow(
        flow: &FlowDemand,
        granted_bps: f64,
        remaining: &mut BTreeMap<LinkId, f64>,
        allocation: &mut Allocation,
    ) {
        let granted = granted_bps.max(0.0);
        for link in &flow.links {
            if let Some(cap) = remaining.get_mut(link) {
                *cap = (*cap - granted).max(0.0);
            }
        }
        allocation
            .per_flow
            .insert(flow.id, Bandwidth::from_bps(granted.round() as u64));
    }

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps_f64(m)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Builds the Figure 8 scenario: returns `(flows for C1..Cn, capacities)`.
    ///
    /// Link ids: 0 = C1-B1 (50), 1 = C2-B1 (50), 2 = C3-B1 (10),
    /// 3 = C4-B2 (50), 4 = C5-B2 (50), 5 = C6-B2 (10), 6 = B1-B2 (50),
    /// 7 = B2-B3 (100), 10+i = Si-B3 (50).
    fn figure8(n_clients: usize) -> (Vec<FlowDemand>, BTreeMap<LinkId, Bandwidth>) {
        let mut caps = BTreeMap::new();
        for (i, c) in [50u64, 50, 10, 50, 50, 10].iter().enumerate() {
            caps.insert(LinkId(i as u32), Bandwidth::from_mbps(*c));
        }
        caps.insert(LinkId(6), Bandwidth::from_mbps(50));
        caps.insert(LinkId(7), Bandwidth::from_mbps(100));
        for i in 0..6u32 {
            caps.insert(LinkId(10 + i), Bandwidth::from_mbps(50));
        }
        // Path links and RTTs (2 × one-way latency) per client.
        let paths: Vec<(Vec<u32>, u64, f64)> = vec![
            (vec![0, 6, 7, 10], 70, 50.0), // C1
            (vec![1, 6, 7, 11], 60, 50.0), // C2
            (vec![2, 6, 7, 12], 60, 10.0), // C3
            (vec![3, 7, 13], 50, 50.0),    // C4
            (vec![4, 7, 14], 40, 50.0),    // C5
            (vec![5, 7, 15], 40, 10.0),    // C6
        ];
        let flows = paths
            .into_iter()
            .take(n_clients)
            .enumerate()
            .map(|(i, (links, rtt, cap))| FlowDemand {
                id: i as u64,
                links: links.into_iter().map(LinkId).collect(),
                rtt: ms(rtt),
                demand: mbps(cap),
            })
            .collect();
        (flows, caps)
    }

    fn assert_close(got: Bandwidth, expected_mbps: f64, tol: f64) {
        assert!(
            (got.as_mbps() - expected_mbps).abs() < tol,
            "expected ≈{expected_mbps} Mb/s, got {:.2} Mb/s",
            got.as_mbps()
        );
    }

    /// [`Allocator::solve`] on owned flows, its positional grants keyed by
    /// id for comparison with [`allocate`] and the oracle.
    fn by_id(
        allocator: &mut Allocator,
        flows: &[FlowDemand],
        links: &Arc<LinkTable>,
    ) -> Allocation {
        let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowDemand::borrowed).collect();
        Allocation::keyed(flows, allocator.solve(&refs, links))
    }

    /// A fresh link table over `capacities`.
    fn table(capacities: &BTreeMap<LinkId, Bandwidth>) -> Arc<LinkTable> {
        Arc::new(LinkTable::from_capacities(capacities))
    }

    #[test]
    fn single_flow_gets_the_path_capacity() {
        let (flows, caps) = figure8(1);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 50.0, 0.01);
    }

    #[test]
    fn figure8_two_clients_rtt_weighted_split() {
        // Paper: C1 = 23.08, C2 = 26.92 Mb/s.
        let (flows, caps) = figure8(2);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 23.08, 0.05);
        assert_close(a.of(1), 26.92, 0.05);
    }

    #[test]
    fn figure8_three_clients_maximization_step() {
        // Paper: 18.45, 21.55, 10 Mb/s — C3 is capped by its access link and
        // its unused share is redistributed proportionally.
        let (flows, caps) = figure8(3);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 18.45, 0.05);
        assert_close(a.of(1), 21.55, 0.05);
        assert_close(a.of(2), 10.0, 0.01);
    }

    #[test]
    fn figure8_four_clients_uncontended_branch() {
        // Paper: C4 reaches 50 Mb/s because the others are capped upstream.
        let (flows, caps) = figure8(4);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 18.45, 0.05);
        assert_close(a.of(1), 21.55, 0.05);
        assert_close(a.of(2), 10.0, 0.01);
        assert_close(a.of(3), 50.0, 0.05);
    }

    #[test]
    fn figure8_five_clients() {
        // Paper: 16.89, 19.75, 10, 23.74, 29.62 Mb/s.
        let (flows, caps) = figure8(5);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 16.89, 0.1);
        assert_close(a.of(1), 19.75, 0.1);
        assert_close(a.of(2), 10.0, 0.01);
        assert_close(a.of(3), 23.74, 0.1);
        assert_close(a.of(4), 29.62, 0.1);
    }

    #[test]
    fn figure8_six_clients() {
        // Paper: 15.04, 17.55, 10, 21.06, 26.33, 10 Mb/s.
        let (flows, caps) = figure8(6);
        let a = allocate(&flows, &caps);
        assert_close(a.of(0), 15.04, 0.06);
        assert_close(a.of(1), 17.55, 0.06);
        assert_close(a.of(2), 10.0, 0.01);
        assert_close(a.of(3), 21.06, 0.06);
        assert_close(a.of(4), 26.33, 0.06);
        assert_close(a.of(5), 10.0, 0.01);
    }

    #[test]
    fn equal_rtts_split_evenly() {
        let caps: BTreeMap<LinkId, Bandwidth> = [(LinkId(0), Bandwidth::from_mbps(90))]
            .into_iter()
            .collect();
        let flows: Vec<FlowDemand> = (0..3)
            .map(|i| FlowDemand {
                id: i,
                links: vec![LinkId(0)],
                rtt: ms(20),
                demand: Bandwidth::MAX,
            })
            .collect();
        let a = allocate(&flows, &caps);
        for i in 0..3 {
            assert_close(a.of(i), 30.0, 0.01);
        }
    }

    #[test]
    fn allocations_never_exceed_capacity() {
        let (flows, caps) = figure8(6);
        let a = allocate(&flows, &caps);
        // Per-link sum of allocations must stay within capacity.
        for (&link, &cap) in &caps {
            let sum: f64 = flows
                .iter()
                .filter(|f| f.links.contains(&link))
                .map(|f| a.of(f.id).as_mbps())
                .sum();
            assert!(
                sum <= cap.as_mbps() + 0.01,
                "link {link:?} oversubscribed: {sum} > {}",
                cap.as_mbps()
            );
        }
    }

    #[test]
    fn work_conservation_on_the_bottleneck() {
        // With two unconstrained-demand flows the shared link must be fully
        // used.
        let (flows, caps) = figure8(2);
        let a = allocate(&flows, &caps);
        let total = a.of(0).as_mbps() + a.of(1).as_mbps();
        assert!((total - 50.0).abs() < 0.05, "total {total}");
    }

    #[test]
    fn empty_input_yields_empty_allocation() {
        let a = allocate(&[], &BTreeMap::new());
        assert!(a.per_flow.is_empty());
        assert_eq!(a.of(42), Bandwidth::ZERO);
    }

    #[test]
    fn unconstrained_links_grant_full_demand() {
        let flows = vec![FlowDemand {
            id: 7,
            links: vec![LinkId(1)],
            rtt: ms(10),
            demand: mbps(123.0),
        }];
        // No capacities at all: the flow gets its demand.
        let a = allocate(&flows, &BTreeMap::new());
        assert_close(a.of(7), 123.0, 0.01);
    }

    #[test]
    fn oversubscription_ratios() {
        let (flows, caps) = figure8(2);
        let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowDemand::borrowed).collect();
        let caps = LinkTable::from_capacities(&caps);
        // Both flows report using 40 Mb/s → the 50 Mb/s B1-B2 link sees
        // 80 Mb/s of demand → 37.5 % excess. The 100 Mb/s B2-B3 link is not
        // oversubscribed.
        let over = oversubscription(&refs, &[mbps(40.0), mbps(40.0)], &caps);
        assert_eq!(over.len(), 1, "{over:?}");
        let (link, ratio) = over[0];
        assert_eq!(link, LinkId(6));
        assert!((ratio - 0.375).abs() < 1e-9);
        // With modest usage nothing is oversubscribed.
        assert!(oversubscription(&refs, &[mbps(10.0), mbps(10.0)], &caps).is_empty());
        // A flow naming a link the table does not have (any id at all) is
        // unconstrained there.
        let stray = FlowRef {
            links: &[LinkId(65_535), LinkId(u32::MAX), LinkId(6)],
            rtt: ms(10),
            demand: Bandwidth::MAX,
        };
        let over = oversubscription(&[stray], &[mbps(100.0)], &caps);
        assert_eq!(over, vec![(LinkId(6), 0.5)]);
    }

    #[test]
    fn rtt_ordering_is_respected() {
        // Lower RTT ⇒ larger share, monotonically.
        let caps: BTreeMap<LinkId, Bandwidth> = [(LinkId(0), Bandwidth::from_mbps(100))]
            .into_iter()
            .collect();
        let flows: Vec<FlowDemand> = [10u64, 20, 40, 80]
            .iter()
            .enumerate()
            .map(|(i, &rtt)| FlowDemand {
                id: i as u64,
                links: vec![LinkId(0)],
                rtt: ms(rtt),
                demand: Bandwidth::MAX,
            })
            .collect();
        let a = allocate(&flows, &caps);
        for i in 0..3u64 {
            assert!(
                a.of(i) > a.of(i + 1),
                "share({i}) should exceed share({})",
                i + 1
            );
        }
        let total: f64 = (0..4).map(|i| a.of(i).as_mbps()).sum();
        assert!((total - 100.0).abs() < 0.01);
    }

    #[test]
    fn incremental_matches_full_allocate_exactly() {
        let (flows, caps) = figure8(6);
        let links = table(&caps);
        let mut inc = Allocator::default();
        // Grow the flow set one client at a time; every call must equal the
        // one-shot solve bit for bit.
        for n in 1..=6 {
            let prefix = &flows[..n];
            assert_eq!(by_id(&mut inc, prefix, &links), allocate(prefix, &caps));
        }
        // Shrink again (flows leaving shifts positional ids down).
        for n in (1..=6).rev() {
            let prefix = &flows[..n];
            assert_eq!(by_id(&mut inc, prefix, &links), allocate(prefix, &caps));
        }
    }

    #[test]
    fn steady_state_hits_the_fast_path() {
        let (flows, caps) = figure8(4);
        let links = table(&caps);
        let mut inc = Allocator::default();
        let first = by_id(&mut inc, &flows, &links);
        for _ in 0..3 {
            assert_eq!(by_id(&mut inc, &flows, &links), first);
        }
        let stats = inc.stats();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.fast_hits, 3);
    }

    #[test]
    fn a_new_link_table_forces_a_full_recompute() {
        let (flows, mut caps) = figure8(3);
        let before = table(&caps);
        let mut inc = Allocator::default();
        let old = by_id(&mut inc, &flows, &before);
        // The trunk link shrinks: same flows, a new table that moved a
        // link they cross, so the call is solved again.
        caps.insert(LinkId(6), Bandwidth::from_mbps(20));
        let after = table(&caps);
        let new = by_id(&mut inc, &flows, &after);
        assert_eq!(new, allocate(&flows, &caps));
        assert_ne!(new, old);
        assert_eq!(inc.stats().fast_hits, 0);
        // Content, not identity: an equal table built anew is a hit, and
        // going back to the first one is a miss again.
        assert_eq!(by_id(&mut inc, &flows, &table(&caps)), new);
        assert_eq!(inc.stats().fast_hits, 1);
        assert_eq!(by_id(&mut inc, &flows, &before), old);
        assert_eq!(inc.stats().fast_hits, 1);
        assert_eq!(by_id(&mut inc, &flows, &before), old);
        assert_eq!(inc.stats().fast_hits, 2);
    }

    /// The memo across link tables. Over random flows and random edits of
    /// the table — a capacity moved (sometimes to its own value), a link
    /// removed, a link added (renumbering the slots above it) — on links
    /// the flows cross or not, a call is a fast hit if and only if every
    /// link of every flow keeps its presence and its capacity, and every
    /// call's grants are bit-identical to [`allocate`] over the new table.
    ///
    /// Mutation-checked: comparing the capacities only where both tables
    /// have the link (a removed link left unconstrained) fails this test.
    #[test]
    fn the_memo_holds_across_tables_that_keep_every_crossed_link() {
        let (mut hits, mut misses, mut presence_misses, mut renumbered_hits) = (0, 0, 0, 0);
        for seed in 0..200 {
            let mut rng = SimRng::new(0x7ab1e ^ seed);
            let link_count = rng.gen_range(2, 16);
            // Odd ids, so that an added even id lands between them.
            let id = |k: u64| LinkId(2 * k as u32 + 1);
            let mut caps: BTreeMap<LinkId, Bandwidth> = (0..link_count)
                .map(|k| (id(k), Bandwidth::from_mbps(rng.gen_range(5, 500))))
                .collect();
            let flows: Vec<FlowDemand> = (0..rng.gen_range(1, 8))
                .map(|i| FlowDemand {
                    id: i,
                    links: (0..rng.gen_range(1, 4))
                        .map(|_| id(rng.gen_range(0, link_count)))
                        .collect(),
                    rtt: ms(rng.gen_range(1, 200)),
                    demand: if rng.chance(0.3) {
                        Bandwidth::from_mbps(rng.gen_range(1, 300))
                    } else {
                        Bandwidth::MAX
                    },
                })
                .collect();
            let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowDemand::borrowed).collect();
            let crossed = |link: &LinkId| flows.iter().any(|f| f.links.contains(link));
            let mut inc = Allocator::default();
            inc.solve(&refs, &table(&caps));
            for _ in 0..12 {
                let before = caps.clone();
                let slots_before = table(&before);
                let link = id(rng.gen_range(0, link_count));
                match rng.gen_range(0, 4) {
                    0 => {
                        let mbps = rng.gen_range(5, 8);
                        caps.insert(link, Bandwidth::from_mbps(mbps * 50));
                    }
                    1 => {
                        caps.remove(&link);
                    }
                    2 => {
                        let even = LinkId(2 * rng.gen_range(0, link_count) as u32);
                        caps.insert(even, Bandwidth::from_mbps(rng.gen_range(5, 500)));
                    }
                    _ => {
                        let capacity = Bandwidth::from_mbps(rng.gen_range(5, 500));
                        caps.entry(link).or_insert(capacity);
                    }
                }
                let links = table(&caps);
                let kept = caps
                    .keys()
                    .chain(before.keys())
                    .all(|link| !crossed(link) || caps.get(link) == before.get(link));
                let hits_before = inc.stats().fast_hits;
                let grants = inc.solve(&refs, &links).to_vec();
                let hit = inc.stats().fast_hits > hits_before;
                assert_eq!(hit, kept, "seed {seed}: {before:?} → {caps:?}");
                let expected = allocate(&flows, &caps);
                for (i, &grant) in grants.iter().enumerate() {
                    assert_eq!(grant, expected.of(i as u64), "seed {seed}: flow {i}");
                }
                hits += usize::from(hit);
                misses += usize::from(!hit);
                let present = |link: &LinkId| before.contains_key(link) == caps.contains_key(link);
                presence_misses +=
                    usize::from(!hit && !caps.keys().chain(before.keys()).all(present));
                let moved = |link: &LinkId| slots_before.slot(*link) != links.slot(*link);
                renumbered_hits +=
                    usize::from(hit && before.keys().any(|l| crossed(l) && moved(l)));
            }
        }
        assert!(hits > 300 && misses > 300, "{hits} hits, {misses} misses");
        assert!(
            presence_misses > 100,
            "{presence_misses} misses on presence"
        );
        assert!(
            renumbered_hits > 50,
            "{renumbered_hits} hits on renumbered slots"
        );
    }

    #[test]
    fn unconstrained_flows_match_full_allocate() {
        let caps: BTreeMap<LinkId, Bandwidth> = [(LinkId(0), Bandwidth::from_mbps(50))]
            .into_iter()
            .collect();
        let flows = vec![
            FlowDemand {
                id: 0,
                links: vec![LinkId(9)], // no capacity entry: unconstrained
                rtt: ms(10),
                demand: mbps(75.0),
            },
            FlowDemand {
                id: 1,
                links: vec![LinkId(0)],
                rtt: ms(10),
                demand: Bandwidth::MAX,
            },
        ];
        let mut inc = Allocator::default();
        assert_eq!(
            by_id(&mut inc, &flows, &table(&caps)),
            allocate(&flows, &caps)
        );
    }

    /// How many seeded solver inputs exercised what, by name, so the
    /// differential test can check that it covered what it claims to.
    type Coverage = BTreeMap<&'static str, usize>;

    /// Links (= components) of the "hundreds of disjoint components" regime.
    const DISJOINT_LINKS: u64 = 200;

    /// One seeded solver input. The seed picks the regime — a handful of
    /// links, one giant component, hundreds of disjoint ones — and how ids,
    /// capacities, demands and RTTs are drawn.
    fn seeded_input(
        seed: u64,
        coverage: &mut Coverage,
    ) -> (Vec<FlowDemand>, BTreeMap<LinkId, Bandwidth>) {
        let mut rng = SimRng::new(seed);
        let (link_count, flow_count, shared_link) = match seed % 25 {
            0..=11 => (rng.gen_range(1, 9), rng.gen_range(1, 14), false),
            12..=19 => (rng.gen_range(8, 24), rng.gen_range(10, 40), false),
            20..=23 => {
                *coverage.entry("giant component").or_default() += 1;
                (40, rng.gen_range(40, 90), true)
            }
            _ => {
                *coverage.entry("hundreds of components").or_default() += 1;
                (DISJOINT_LINKS, 2 * DISJOINT_LINKS, false)
            }
        };
        // Dense from zero (the direct slot index), dense from an offset, or
        // far apart (the binary-search fallback).
        let link = |k: u64| match seed % 3 {
            0 => LinkId(k as u32),
            1 => LinkId(7 + k as u32),
            _ => LinkId(5 + k as u32 * 1_000_003),
        };
        *coverage.entry("sparse link ids").or_default() +=
            usize::from(seed % 3 == 2 && link_count > 1);

        // Half of the inputs run at ~10¹⁸ b/s, where one unit in the last
        // place of an `f64` is hundreds of b/s: a sum taken in another order
        // then shows in the integer grants instead of vanishing in their
        // rounding.
        let scale = if rng.chance(0.5) { 1 } else { 1 << 33 };
        *coverage
            .entry("grants large enough to show one ulp")
            .or_default() += usize::from(scale > 1);
        let mut capacities = BTreeMap::new();
        for k in 0..link_count {
            let capacity = match rng.gen_range(0, 20) {
                0 => {
                    *coverage.entry("link without capacity").or_default() += 1;
                    continue;
                }
                1 => {
                    *coverage.entry("Bandwidth::MAX capacity").or_default() += 1;
                    Bandwidth::MAX
                }
                2 => Bandwidth::ZERO,
                3..=5 => Bandwidth::from_mbps(10),
                _ => Bandwidth::from_bps(rng.gen_range(1_000, 2_000_000_000) * scale),
            };
            capacities.insert(link(k), capacity);
        }

        let positional = rng.chance(0.5);
        *coverage.entry("non-positional ids").or_default() += usize::from(!positional);
        let id_base = rng.gen_range(0, u64::MAX / 2);
        let mut flows = Vec::new();
        for i in 0..flow_count {
            let mut links = Vec::new();
            if link_count == DISJOINT_LINKS {
                // Two flows per link, every link its own component.
                links.push(link(i / 2));
            } else {
                if shared_link {
                    links.push(link(0));
                }
                for _ in 0..rng.gen_range(0, 6) {
                    links.push(link(rng.gen_range(0, link_count)));
                }
                if !links.is_empty() && rng.chance(0.2) {
                    let again = links[rng.gen_index(links.len())];
                    links.push(again);
                }
            }
            let mut sorted = links.clone();
            sorted.sort_unstable();
            sorted.dedup();
            *coverage.entry("duplicate link in a path").or_default() +=
                usize::from(sorted.len() < links.len());
            let rtt = match rng.gen_range(0, 10) {
                0 => {
                    *coverage.entry("zero RTT").or_default() += 1;
                    SimDuration::ZERO
                }
                1 => SimDuration::from_nanos(rng.gen_range(1, 2_000)),
                2..=4 => SimDuration::from_millis(20),
                _ => SimDuration::from_micros(rng.gen_range(50, 400_000)),
            };
            let demand = match rng.gen_range(0, 10) {
                0 => {
                    *coverage.entry("zero demand").or_default() += 1;
                    Bandwidth::ZERO
                }
                1 | 2 => {
                    *coverage.entry("Bandwidth::MAX demand").or_default() += 1;
                    Bandwidth::MAX
                }
                3 => Bandwidth::from_mbps(10),
                _ => Bandwidth::from_bps(rng.gen_range(1, 2_000_000_000) * scale),
            };
            flows.push(FlowDemand {
                id: if positional {
                    i
                } else {
                    id_base + (flow_count - i) * 977
                },
                links,
                rtt,
                demand,
            });
        }
        (flows, capacities)
    }

    /// The dense kernel against the map-based solver it replaced: the whole
    /// `Allocation` must be equal, bit for bit, on every seeded input.
    ///
    /// Mutation-checked: adding the weights of a link in reverse flow order,
    /// or fixing the flows of a round in reverse order, fails this test.
    #[test]
    fn dense_kernel_matches_the_reference_solver_bit_for_bit() {
        let mut coverage = Coverage::new();
        for seed in 0..2_500 {
            let (flows, capacities) = seeded_input(seed, &mut coverage);
            assert_eq!(
                allocate(&flows, &capacities),
                reference_allocate(&flows, &capacities),
                "seed {seed}"
            );
        }
        // The inputs must actually have been what the test claims to cover.
        for what in [
            "duplicate link in a path",
            "link without capacity",
            "Bandwidth::MAX capacity",
            "Bandwidth::MAX demand",
            "zero demand",
            "zero RTT",
            "non-positional ids",
            "sparse link ids",
            "giant component",
            "hundreds of components",
            "grants large enough to show one ulp",
        ] {
            let count = coverage.get(what).copied().unwrap_or(0);
            assert!(count >= 100, "only {count} inputs with {what}");
        }
    }

    /// Seeded join / leave / demand-toggle / path-change / capacity-change
    /// sequences: after every step [`Allocator::solve`] must equal the
    /// reference solver on the same input.
    ///
    /// Mutation-checked: a memo comparison that leaves out the demand, the
    /// RTT or the links fails this test.
    #[test]
    fn incremental_matches_the_reference_solver_under_churn() {
        let mut exercised = AllocatorStats::default();
        for seed in 0..60 {
            let mut rng = SimRng::new(0xa110c ^ seed);
            let link_count = rng.gen_range(3, 30);
            let mut capacities: BTreeMap<LinkId, Bandwidth> = (0..link_count)
                .map(|k| {
                    (
                        LinkId(k as u32),
                        Bandwidth::from_mbps(rng.gen_range(5, 500)),
                    )
                })
                .collect();
            // Shapes flows are drawn from; a shape may be active twice.
            let pool: Vec<(Vec<LinkId>, SimDuration)> = (0..rng.gen_range(4, 40))
                .map(|_| {
                    let links = (0..rng.gen_range(1, 4))
                        .map(|_| LinkId(rng.gen_range(0, link_count + 1) as u32))
                        .collect();
                    (links, SimDuration::from_millis(rng.gen_range(1, 200)))
                })
                .collect();
            let positional = seed % 2 == 0;
            let mut next_id = 1_000u64;
            // `(id, shape, demand, rtt)` of the active flows.
            let mut active: Vec<(u64, usize, Bandwidth, SimDuration)> = Vec::new();
            let mut links = table(&capacities);
            let mut inc = Allocator::default();
            for step in 0..80 {
                match rng.gen_range(0, 10) {
                    0..=3 => {
                        next_id += 1;
                        let shape = rng.gen_index(pool.len());
                        active.push((next_id, shape, Bandwidth::MAX, pool[shape].1));
                    }
                    4 | 5 if !active.is_empty() => {
                        active.remove(rng.gen_index(active.len()));
                    }
                    6 if !active.is_empty() => {
                        let victim = rng.gen_index(active.len());
                        active[victim].2 = Bandwidth::from_mbps(rng.gen_range(1, 300));
                    }
                    // A path change at the same demand: another latency over
                    // the same links, or other links at the same latency.
                    7 if !active.is_empty() => {
                        let victim = rng.gen_index(active.len());
                        if rng.chance(0.5) {
                            active[victim].3 = SimDuration::from_millis(rng.gen_range(1, 200));
                        } else {
                            active[victim].1 = rng.gen_index(pool.len());
                        }
                    }
                    8 => {
                        let link = LinkId(rng.gen_range(0, link_count) as u32);
                        capacities.insert(link, Bandwidth::from_mbps(rng.gen_range(5, 500)));
                        links = table(&capacities);
                    }
                    // Nothing changes: the fast path.
                    _ => {}
                }
                let flows: Vec<FlowDemand> = active
                    .iter()
                    .enumerate()
                    .map(|(i, &(id, shape, demand, rtt))| FlowDemand {
                        id: if positional { i as u64 } else { id },
                        links: pool[shape].0.clone(),
                        rtt,
                        demand,
                    })
                    .collect();
                assert_eq!(
                    by_id(&mut inc, &flows, &links),
                    reference_allocate(&flows, &capacities),
                    "seed {seed} step {step}"
                );
            }
            let stats = inc.stats();
            exercised.fast_hits += stats.fast_hits;
            exercised.components_recomputed += stats.components_recomputed;
        }
        assert!(exercised.fast_hits > 100, "{exercised:?}");
        assert!(exercised.components_recomputed > 1_000, "{exercised:?}");
    }

    /// The four counters on a sequence small enough to check by hand.
    #[test]
    fn allocator_counters_on_a_hand_checked_sequence() {
        // Link 2 is unconstrained: flow D never belongs to a component.
        let caps: BTreeMap<LinkId, Bandwidth> = [
            (LinkId(0), Bandwidth::from_mbps(100)),
            (LinkId(1), Bandwidth::from_mbps(60)),
            (LinkId(2), Bandwidth::MAX),
        ]
        .into_iter()
        .collect();
        let flow = |id: u64, links: &[u32], demand: Bandwidth| FlowDemand {
            id,
            links: links.iter().copied().map(LinkId).collect(),
            rtt: ms(20),
            demand,
        };
        let any = Bandwidth::MAX;
        let counters = |inc: &Allocator| {
            let s = inc.stats();
            (
                s.calls,
                s.fast_hits,
                s.components_recomputed,
                s.components_reused,
            )
        };
        let mut inc = Allocator::default();
        let mut links = table(&caps);
        let mut check = |flows: &[FlowDemand], new_table: bool| {
            if new_table {
                links = table(&caps);
            }
            assert_eq!(
                by_id(&mut inc, flows, &links),
                reference_allocate(flows, &caps)
            );
            counters(&inc)
        };

        // A, B on link 0; C on link 1; D unconstrained: two components.
        let abcd = [
            flow(0, &[0], any),
            flow(1, &[0], any),
            flow(2, &[1], any),
            flow(3, &[2], any),
        ];
        assert_eq!(check(&abcd, false), (1, 0, 2, 0));
        // The same input again: answered from the previous result.
        assert_eq!(check(&abcd, false), (2, 1, 2, 0));
        // C's demand changes: a miss, and a miss solves both components.
        let mut changed = abcd.clone();
        changed[2].demand = mbps(5.0);
        assert_eq!(check(&changed, false), (3, 1, 4, 0));
        // A leaves and the positional ids shift: another input, two
        // components again ({link 0} now holds B alone).
        let bcd = [
            flow(0, &[0], any),
            flow(1, &[1], mbps(5.0)),
            flow(2, &[2], any),
        ];
        assert_eq!(check(&bcd, false), (4, 1, 6, 0));
        // Over an equal table built anew: every link the flows cross keeps
        // its capacity, so the same input is a fast hit.
        assert_eq!(check(&bcd, true), (5, 2, 6, 0));
        // The same RTT, demand and links at every position under other ids:
        // a fast hit, because grants are positional.
        let renamed = [
            flow(70, &[0], any),
            flow(50, &[1], mbps(5.0)),
            flow(60, &[2], any),
        ];
        assert_eq!(check(&renamed, false), (6, 3, 6, 0));
        // E bridges links 0 and 1: one merged component.
        let mut bridged = renamed.to_vec();
        bridged.push(flow(80, &[1, 0], any));
        assert_eq!(check(&bridged, false), (7, 3, 7, 0));
    }
}
