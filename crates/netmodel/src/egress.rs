//! Per-container egress pipeline: destination index → htb → netem.
//!
//! This is the structure the Kollaps TCAL installs inside every application
//! container. For each *destination* there is one htb class (bandwidth)
//! whose child is one netem qdisc (latency, jitter, loss). The TCAL's u32
//! filter steers a packet to its chain with a two-level table on the third
//! and fourth octets of the destination; on the 10.1.0.0/16 container
//! network that is the container index (third octet × 256 + fourth octet),
//! so the tree indexes its chains by it directly. The emulation loop reads
//! back per-destination transmitted-byte counters from here and adjusts the
//! htb rates and netem loss.

use kollaps_sim::rng::SimRng;
use kollaps_sim::time::SimTime;
use kollaps_sim::units::{Bandwidth, DataSize};

use crate::htb::{HtbConfig, HtbQdisc, HtbVerdict};
use crate::netem::{NetemConfig, NetemQdisc};
use crate::packet::{Addr, DropReason, Packet};

/// Outcome of pushing a packet into the egress tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressVerdict {
    /// Accepted; it will pop out of [`EgressTree::dequeue_ready_with`] later.
    Queued,
    /// The htb class for this destination is full — the sender must retry
    /// (TCP Small Queues back-pressure).
    Backpressure,
    /// Dropped by the netem stage (random or injected loss) or because the
    /// destination has no installed chain.
    Dropped(DropReason),
}

/// One per-destination chain: an htb class whose child qdisc is netem, the
/// same parent/child arrangement the Kollaps TCAL installs. Packets are
/// first shaped by the class (this is where back-pressure originates, so the
/// sender can never queue more than the class limit), then delayed/lossed by
/// netem on their way out.
#[derive(Debug)]
struct Chain {
    htb: HtbQdisc,
    netem: NetemQdisc,
    /// `(destination index, install sequence number)`: this chain's entry
    /// in [`EgressTree::active`]. The sequence number is unique within the
    /// tree, so an entry left by a removed chain never stands for one
    /// re-installed at its destination.
    key: (u32, u32),
    /// `true` while this chain is in [`EgressTree::active`] — an O(1)
    /// membership test for the per-packet enqueue path.
    listed_active: bool,
}

impl Chain {
    /// Packets this chain's netem stage dropped (loss plus overflow).
    fn dropped(&self) -> u64 {
        self.netem.dropped_loss() + self.netem.dropped_overflow()
    }
}

/// One destination of the tree: the chain installed towards it, if any, and
/// the bytes that left the shaper towards it in the current loop interval.
/// The bytes belong to the destination, not to the chain, so they outlive a
/// [`EgressTree::remove_path`] until [`EgressTree::clear_usage`].
#[derive(Debug, Default)]
struct Slot {
    chain: Option<Box<Chain>>,
    usage: DataSize,
}

/// The egress qdisc tree of a single container.
#[derive(Debug)]
pub struct EgressTree {
    owner: Addr,
    /// One slot per destination container index, grown on install.
    slots: Vec<Slot>,
    next_seq: u32,
    rng: SimRng,
    /// Indexes of the slots counting bytes this interval, in first-byte
    /// order: reading and clearing usage costs O(active destinations).
    used: Vec<u32>,
    /// The keys of the chains holding packets. Wakeup and dequeue scans
    /// touch only these; with hundreds of installed per-destination chains
    /// and a handful of active flows this is the difference between
    /// O(flows) and O(destinations) per event.
    active: Vec<(u32, u32)>,
    /// Packets lost to [`EgressTree::remove_path`]: what the removed chains
    /// still held plus their netem drop counters, so
    /// [`EgressTree::dropped_packets`] never goes down.
    dropped_removed: u64,
}

/// The chain towards `dst`, if one is installed.
fn chain_at(slots: &mut [Slot], dst: Addr) -> Option<&mut Chain> {
    slots
        .get_mut(dst.container_index()? as usize)?
        .chain
        .as_deref_mut()
}

/// The chain an active entry stands for, if it is still installed, with
/// its destination's usage.
fn listed(slots: &mut [Slot], key: (u32, u32)) -> Option<(&mut Chain, &mut DataSize)> {
    let Slot { chain, usage } = slots.get_mut(key.0 as usize)?;
    let chain = chain.as_deref_mut().filter(|chain| chain.key == key)?;
    Some((chain, usage))
}

impl EgressTree {
    /// Creates an empty tree for the container with address `owner`.
    pub fn new(owner: Addr, rng: SimRng) -> Self {
        EgressTree {
            owner,
            slots: Vec::new(),
            next_seq: 1,
            rng,
            used: Vec::new(),
            active: Vec::new(),
            dropped_removed: 0,
        }
    }

    /// The owning container's address.
    pub fn owner(&self) -> Addr {
        self.owner
    }

    /// Installs (or replaces) the chain towards `dst` with the given netem
    /// and htb settings — the TCAL `init`/`update` path. A destination
    /// outside the container network has no slot and gets no chain.
    ///
    /// Only the install that creates the chain sizes its htb burst and
    /// queue limit (from `bandwidth`, see [`HtbConfig::with_rate`]); an
    /// install over an existing chain replaces the netem settings and
    /// re-rates the class ([`HtbQdisc::set_rate`]) but keeps both. A caller
    /// that creates chains late must therefore create each at the rate it
    /// would have been created at, then re-install the current settings.
    pub fn install_path(&mut self, dst: Addr, netem: NetemConfig, bandwidth: Bandwidth) {
        let Some(index) = dst.container_index() else {
            return;
        };
        if index as usize >= self.slots.len() {
            self.slots.resize_with(index as usize + 1, Slot::default);
        }
        let slot = &mut self.slots[index as usize];
        match &mut slot.chain {
            Some(chain) => {
                chain.netem.set_config(netem);
                chain.htb.set_rate(SimTime::ZERO, bandwidth);
            }
            None => {
                let rng = self.rng.derive(u64::from(dst.as_u32()));
                slot.chain = Some(Box::new(Chain {
                    htb: HtbQdisc::new(HtbConfig::with_rate(bandwidth)),
                    netem: NetemQdisc::new(netem, rng),
                    key: (index, self.next_seq),
                    listed_active: false,
                }));
                self.next_seq += 1;
            }
        }
    }

    /// Removes the chain towards `dst` (dynamic topologies: link/service
    /// removal). Any packets still queued in the chain are discarded and
    /// counted as dropped. The chain's key — its destination index and
    /// install sequence number — stays in the active list until the next
    /// [`EgressTree::dequeue_ready_with`] compacts it (no chain installed later
    /// has that sequence number), and the chains that enter the list in
    /// between end up in another order, so a caller that polls only due
    /// trees must poll this one at its next drain whatever its wake — the
    /// Emulation Manager keeps a list of such trees to revisit.
    pub fn remove_path(&mut self, dst: Addr) -> bool {
        let slot = dst
            .container_index()
            .and_then(|i| self.slots.get_mut(i as usize));
        let Some(chain) = slot.and_then(|slot| slot.chain.take()) else {
            return false;
        };
        self.dropped_removed += chain.dropped() + (chain.htb.len() + chain.netem.len()) as u64;
        true
    }

    /// `true` if a chain towards `dst` is installed.
    pub fn has_path(&self, dst: Addr) -> bool {
        self.chain(dst).is_some()
    }

    /// Updates only the shaped bandwidth towards `dst` (emulation loop
    /// enforcement step).
    pub fn set_bandwidth(&mut self, now: SimTime, dst: Addr, rate: Bandwidth) -> bool {
        if let Some(chain) = chain_at(&mut self.slots, dst) {
            chain.htb.set_rate(now, rate);
            true
        } else {
            false
        }
    }

    /// [`EgressTree::set_bandwidth`] and [`EgressTree::set_loss`] towards
    /// `dst` with one chain lookup: the emulation loop's per-pair write.
    pub fn set_rate_and_loss(
        &mut self,
        now: SimTime,
        dst: Addr,
        rate: Bandwidth,
        loss: f64,
    ) -> bool {
        if let Some(chain) = chain_at(&mut self.slots, dst) {
            chain.htb.set_rate(now, rate);
            chain.netem.set_loss(loss);
            true
        } else {
            false
        }
    }

    /// Updates only the loss probability towards `dst` (congestion loss
    /// injection).
    pub fn set_loss(&mut self, dst: Addr, loss: f64) -> bool {
        if let Some(chain) = chain_at(&mut self.slots, dst) {
            chain.netem.set_loss(loss);
            true
        } else {
            false
        }
    }

    /// Currently configured rate towards `dst`, if a chain is installed.
    pub fn bandwidth(&self, dst: Addr) -> Option<Bandwidth> {
        self.chain(dst).map(|c| c.htb.config().rate)
    }

    /// Currently configured netem settings towards `dst`.
    pub fn netem_config(&self, dst: Addr) -> Option<NetemConfig> {
        self.chain(dst).map(|c| *c.netem.config())
    }

    /// Offers a packet to the tree at `now`.
    ///
    /// The htb class is the entry stage: when its queue is at the limit the
    /// verdict is [`EgressVerdict::Backpressure`], mirroring TSQ, which
    /// throttles the socket on not-yet-transmitted data instead of dropping.
    /// netem loss/overflow is applied when the packet passes the shaper, so
    /// a lossy path reports [`EgressVerdict::Queued`] here and the packet
    /// simply never emerges — exactly what the sender's transport observes
    /// on real hardware.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> EgressVerdict {
        self.offer(now, packet).0
    }

    /// [`EgressTree::enqueue`], also reporting whether the packet became the
    /// head of a previously empty htb class. That is the only enqueue that
    /// can move [`EgressTree::next_wakeup`]: behind a queued head neither the
    /// head's token-availability time nor any netem release changes.
    pub fn offer(&mut self, now: SimTime, packet: Packet) -> (EgressVerdict, bool) {
        let Some(chain) = chain_at(&mut self.slots, packet.dst) else {
            return (EgressVerdict::Dropped(DropReason::Unreachable), false);
        };
        let was_empty = chain.htb.is_empty();
        match chain.htb.enqueue(now, packet) {
            HtbVerdict::Queued => {
                if !chain.listed_active {
                    chain.listed_active = true;
                    self.active.push(chain.key);
                }
                (EgressVerdict::Queued, was_empty)
            }
            HtbVerdict::Backpressure => (EgressVerdict::Backpressure, false),
        }
    }

    /// `false` only when the htb class towards `dst` is full, that is when
    /// an [`EgressTree::offer`] towards `dst` now would be back-pressured.
    pub fn has_room(&self, dst: Addr) -> bool {
        self.chain(dst).is_none_or(|chain| !chain.htb.is_full())
    }

    /// The earliest instant at which a queued packet may become deliverable.
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        let mut earliest = None;
        for &key in &self.active {
            if let Some((chain, _)) = listed(&mut self.slots, key) {
                let candidates = [
                    earliest,
                    chain.netem.next_release(),
                    chain.htb.next_ready(now),
                ];
                earliest = candidates.into_iter().flatten().min();
            }
        }
        earliest
    }

    /// Moves packets whose shaping completed by `now` into the netem stage
    /// (stamped with the exact instant they left the shaper, so late polls
    /// do not distort timing) and hands `sink` every packet whose netem
    /// delay has also elapsed — packets leaving the container towards the
    /// physical network — chain by chain in active-list order. Allocates
    /// nothing once each netem stage has held its peak.
    pub fn dequeue_ready_with(&mut self, now: SimTime, mut sink: impl FnMut(Packet)) {
        let mut idx = 0;
        while let Some(&key) = self.active.get(idx) {
            let Some((chain, usage)) = listed(&mut self.slots, key) else {
                self.active.swap_remove(idx);
                continue;
            };
            while let Some((left_shaper_at, pkt)) = chain.htb.pop_ready(now) {
                // The shaped bytes are what the TCAL usage counters report,
                // whether or not netem subsequently drops the packet.
                if usage.is_zero() && !pkt.size.is_zero() {
                    self.used.push(key.0);
                }
                *usage += pkt.size;
                // netem loss (intrinsic link loss + injected congestion
                // loss) applies past the shaper; a dropped packet is simply
                // never released.
                let _ = chain.netem.enqueue(left_shaper_at, pkt);
            }
            while let Some(pkt) = chain.netem.pop_ready(now) {
                sink(pkt);
            }
            if chain.htb.is_empty() && chain.netem.is_empty() {
                chain.listed_active = false;
                self.active.swap_remove(idx);
            } else {
                idx += 1;
            }
        }
    }

    /// [`EgressTree::dequeue_ready_with`], collected into a `Vec`. Only a
    /// collecting wrapper: it stays because `benchmark/src/micro.rs` calls
    /// it. The packet path uses the sink.
    pub fn dequeue_ready(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.dequeue_ready_with(now, |pkt| out.push(pkt));
        out
    }

    /// Per-destination bytes that left the shaper since the last
    /// [`EgressTree::clear_usage`] call — step (2) of the emulation loop.
    /// Only destinations that saw bytes, in the order they first did.
    pub fn usage(&self) -> impl ExactSizeIterator<Item = (Addr, DataSize)> + '_ {
        self.used
            .iter()
            .map(|&index| (Addr::container(index), self.slots[index as usize].usage))
    }

    /// `true` while bytes that left the shaper towards `dst` since the last
    /// [`EgressTree::clear_usage`] are counted — also after the chain that
    /// sent them was removed.
    pub fn has_usage(&self, dst: Addr) -> bool {
        dst.container_index()
            .and_then(|index| self.slots.get(index as usize))
            .is_some_and(|slot| !slot.usage.is_zero())
    }

    /// Clears the usage counters — step (1) of the emulation loop.
    pub fn clear_usage(&mut self) {
        for index in self.used.drain(..) {
            self.slots[index as usize].usage = DataSize::ZERO;
        }
    }

    /// Total bytes ever transmitted towards `dst`.
    pub fn total_transmitted(&self, dst: Addr) -> DataSize {
        self.chain(dst)
            .map_or(DataSize::ZERO, |c| c.htb.transmitted_bytes())
    }

    /// Number of installed chains.
    pub fn chain_count(&self) -> usize {
        self.chains().count()
    }

    /// Packets dropped inside the netem stage (random/injected loss plus
    /// overflow of the netem limit under persistent overload), plus
    /// everything lost with removed chains. Monotone across topology
    /// changes.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_removed + self.chains().map(Chain::dropped).sum::<u64>()
    }

    fn chains(&self) -> impl Iterator<Item = &Chain> {
        self.slots.iter().filter_map(|slot| slot.chain.as_deref())
    }

    fn chain(&self, dst: Addr) -> Option<&Chain> {
        self.slots
            .get(dst.container_index()? as usize)?
            .chain
            .as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind, MTU};
    use kollaps_sim::time::SimDuration;

    fn tree() -> EgressTree {
        EgressTree::new(Addr::container(0), SimRng::new(7))
    }

    fn pkt(id: u64, dst: Addr) -> Packet {
        Packet::new(
            id,
            FlowId(1),
            Addr::container(0),
            dst,
            MTU,
            PacketKind::Udp,
            SimTime::ZERO,
        )
    }

    #[test]
    fn unknown_destination_is_unreachable() {
        let mut t = tree();
        let verdict = t.enqueue(SimTime::ZERO, pkt(1, Addr::container(9)));
        assert_eq!(verdict, EgressVerdict::Dropped(DropReason::Unreachable));
        // Outside the container network there is no slot to install into.
        let outside = Addr::new(10, 2, 0, 1);
        t.install_path(outside, NetemConfig::default(), Bandwidth::from_mbps(1));
        assert!(!t.has_path(outside));
        let verdict = t.enqueue(SimTime::ZERO, pkt(2, outside));
        assert_eq!(verdict, EgressVerdict::Dropped(DropReason::Unreachable));
    }

    #[test]
    fn install_then_send_applies_delay() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(
            dst,
            NetemConfig::with_delay(SimDuration::from_millis(25)),
            Bandwidth::from_mbps(100),
        );
        assert!(t.has_path(dst));
        assert_eq!(t.enqueue(SimTime::ZERO, pkt(1, dst)), EgressVerdict::Queued);
        assert!(t.dequeue_ready(SimTime::from_millis(24)).is_empty());
        let out = t.dequeue_ready(SimTime::from_millis(25));
        assert_eq!(out.len(), 1);
        assert_eq!(usage_towards(&t, dst), Some(MTU));
    }

    #[test]
    fn usage_clear_resets_counters() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(dst, NetemConfig::default(), Bandwidth::from_mbps(100));
        t.enqueue(SimTime::ZERO, pkt(1, dst));
        let _ = t.dequeue_ready(SimTime::ZERO);
        assert_eq!(t.usage().len(), 1);
        t.clear_usage();
        assert_eq!(t.usage().len(), 0);
        assert_eq!(t.total_transmitted(dst), MTU);
    }

    #[test]
    fn per_destination_isolation() {
        let mut t = tree();
        let d1 = Addr::container(1);
        let d2 = Addr::container(2);
        t.install_path(
            d1,
            NetemConfig::with_delay(SimDuration::from_millis(5)),
            Bandwidth::from_mbps(10),
        );
        t.install_path(
            d2,
            NetemConfig::with_delay(SimDuration::from_millis(50)),
            Bandwidth::from_mbps(10),
        );
        t.enqueue(SimTime::ZERO, pkt(1, d1));
        t.enqueue(SimTime::ZERO, pkt(2, d2));
        let early = t.dequeue_ready(SimTime::from_millis(5));
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].dst, d1);
        let late = t.dequeue_ready(SimTime::from_millis(50));
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].dst, d2);
    }

    #[test]
    fn bandwidth_update_changes_rate() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(dst, NetemConfig::default(), Bandwidth::from_mbps(10));
        assert_eq!(t.bandwidth(dst), Some(Bandwidth::from_mbps(10)));
        assert!(t.set_bandwidth(SimTime::ZERO, dst, Bandwidth::from_mbps(3)));
        assert_eq!(t.bandwidth(dst), Some(Bandwidth::from_mbps(3)));
        assert!(!t.set_bandwidth(SimTime::ZERO, Addr::container(5), Bandwidth::ZERO));
    }

    #[test]
    fn loss_injection_drops_packets() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(dst, NetemConfig::default(), Bandwidth::from_mbps(100));
        assert!(t.set_loss(dst, 1.0));
        // Loss applies past the shaper: the packet is accepted but never
        // emerges, and the drop is counted.
        assert_eq!(t.enqueue(SimTime::ZERO, pkt(1, dst)), EgressVerdict::Queued);
        assert!(t.dequeue_ready(SimTime::from_secs(1)).is_empty());
        assert_eq!(t.dropped_packets(), 1);
    }

    #[test]
    fn remove_path_uninstalls_chain() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(dst, NetemConfig::default(), Bandwidth::from_mbps(1));
        assert!(t.remove_path(dst));
        assert!(!t.remove_path(dst));
        assert!(!t.has_path(dst));
        assert_eq!(
            t.enqueue(SimTime::ZERO, pkt(1, dst)),
            EgressVerdict::Dropped(DropReason::Unreachable)
        );
    }

    /// Removing a chain loses what it held; the tree-level drop count must
    /// account for that instead of forgetting the chain's counters.
    #[test]
    fn dropped_packets_is_monotone_across_remove_path() {
        let mut t = tree();
        let lossy = Addr::container(1);
        let slow = Addr::container(2);
        t.install_path(lossy, NetemConfig::default(), Bandwidth::from_mbps(100));
        t.install_path(
            slow,
            NetemConfig::with_delay(SimDuration::from_millis(50)),
            Bandwidth::from_mbps(100),
        );
        t.set_loss(lossy, 1.0);
        t.enqueue(SimTime::ZERO, pkt(1, lossy));
        t.enqueue(SimTime::ZERO, pkt(2, slow));
        assert!(t.dequeue_ready(SimTime::ZERO).is_empty());
        // One netem loss so far; the other packet sits in netem's delay line.
        assert_eq!(t.dropped_packets(), 1);
        t.enqueue(SimTime::ZERO, pkt(3, slow));
        assert!(t.remove_path(lossy));
        assert_eq!(t.dropped_packets(), 1, "the removed chain's losses stay");
        assert!(t.remove_path(slow));
        // One packet held by netem and one still in the htb queue went with
        // the chain.
        assert_eq!(t.dropped_packets(), 3);
        assert!(t.dequeue_ready(SimTime::from_secs(1)).is_empty());
        assert_eq!(t.next_wakeup(SimTime::from_secs(1)), None);
    }

    #[test]
    fn offer_reports_only_new_htb_heads() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(
            dst,
            NetemConfig::with_delay(SimDuration::from_millis(5)),
            Bandwidth::from_mbps(100),
        );
        assert_eq!(
            t.offer(SimTime::ZERO, pkt(1, dst)),
            (EgressVerdict::Queued, true)
        );
        assert_eq!(
            t.offer(SimTime::ZERO, pkt(2, dst)),
            (EgressVerdict::Queued, false)
        );
        // Both pass the shaper into netem: the class is empty again although
        // the chain still holds packets.
        assert!(t.dequeue_ready(SimTime::ZERO).is_empty());
        assert_eq!(
            t.offer(SimTime::ZERO, pkt(3, dst)),
            (EgressVerdict::Queued, true)
        );
        assert_eq!(
            t.offer(SimTime::ZERO, pkt(4, Addr::container(9))),
            (EgressVerdict::Dropped(DropReason::Unreachable), false)
        );
    }

    #[test]
    fn next_wakeup_tracks_earliest_stage() {
        let mut t = tree();
        let d1 = Addr::container(1);
        let d2 = Addr::container(2);
        t.install_path(
            d1,
            NetemConfig::with_delay(SimDuration::from_millis(30)),
            Bandwidth::from_mbps(100),
        );
        t.install_path(
            d2,
            NetemConfig::with_delay(SimDuration::from_millis(10)),
            Bandwidth::from_mbps(100),
        );
        t.enqueue(SimTime::ZERO, pkt(1, d1));
        t.enqueue(SimTime::ZERO, pkt(2, d2));
        // Both packets clear the (unconstrained) shaper immediately...
        assert_eq!(t.next_wakeup(SimTime::ZERO), Some(SimTime::ZERO));
        assert!(t.dequeue_ready(SimTime::ZERO).is_empty());
        // ...after which the earlier of the two netem delays is next.
        assert_eq!(t.next_wakeup(SimTime::ZERO), Some(SimTime::from_millis(10)));
    }

    fn usage_towards(t: &EgressTree, dst: Addr) -> Option<DataSize> {
        t.usage().find(|&(d, _)| d == dst).map(|(_, bytes)| bytes)
    }

    /// Usage belongs to the destination, not to the chain: bytes that left
    /// the shaper towards `d` before its chain was removed are still
    /// reported until the loop clears them, and a chain re-installed at `d`
    /// in the same interval adds to them.
    #[test]
    fn usage_outlives_a_removed_chain_until_cleared() {
        let mut t = tree();
        let d = Addr::container(1);
        t.install_path(d, NetemConfig::default(), Bandwidth::from_mbps(100));
        t.enqueue(SimTime::ZERO, pkt(1, d));
        assert_eq!(t.dequeue_ready(SimTime::ZERO).len(), 1);
        assert!(t.remove_path(d));
        assert_eq!(usage_towards(&t, d), Some(MTU));
        assert!(t.has_usage(d) && !t.has_usage(Addr::container(2)));
        t.install_path(d, NetemConfig::default(), Bandwidth::from_mbps(100));
        t.enqueue(SimTime::ZERO, pkt(2, d));
        assert_eq!(t.dequeue_ready(SimTime::ZERO).len(), 1);
        assert_eq!(usage_towards(&t, d), Some(MTU + MTU));
        assert_eq!(t.usage().len(), 1);
        t.clear_usage();
        assert_eq!(usage_towards(&t, d), None);
        assert!(!t.has_usage(d));
        assert_eq!(t.usage().len(), 0);
    }

    /// A removed chain leaves its entry in the active list until a poll
    /// compacts it, and that entry must not stand for the chain re-installed
    /// at the same destination: the compaction moves the last entry to the
    /// front, which sets the order same-instant packets leave in. Expected
    /// order recorded on the map-based tree (one class id per install) this
    /// one replaced; a slot table whose stale entry stood for the new chain
    /// would release 2 before 3.
    #[test]
    fn a_stale_active_entry_does_not_alias_a_reinstalled_chain() {
        let mut t = tree();
        let (d, other) = (Addr::container(1), Addr::container(2));
        let netem = NetemConfig::with_delay(SimDuration::from_millis(5));
        for dst in [d, other] {
            t.install_path(dst, netem, Bandwidth::from_mbps(100));
        }
        assert_eq!(t.enqueue(SimTime::ZERO, pkt(1, d)), EgressVerdict::Queued);
        assert!(t.remove_path(d));
        t.install_path(d, netem, Bandwidth::from_mbps(100));
        assert_eq!(t.enqueue(SimTime::ZERO, pkt(2, d)), EgressVerdict::Queued);
        assert_eq!(
            t.enqueue(SimTime::ZERO, pkt(3, other)),
            EgressVerdict::Queued
        );
        let released: Vec<u64> = t
            .dequeue_ready(SimTime::from_millis(5))
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(released, [3, 2]);
        assert_eq!(t.dropped_packets(), 1);
        assert_eq!(t.next_wakeup(SimTime::from_millis(5)), None);
    }

    /// The invariant a late-created chain rests on: only the install that
    /// creates a chain sizes its htb burst and queue limit. Re-installing
    /// and re-rating change the rate (and netem) but keep both, so a chain
    /// created at the current rate instead of its creation rate differs.
    #[test]
    fn reinstall_and_rerate_keep_the_creation_burst_and_queue_limit() {
        let mut t = tree();
        let dst = Addr::container(1);
        let created = HtbConfig::with_rate(Bandwidth::from_mbps(10));
        let later = HtbConfig::with_rate(Bandwidth::from_mbps(50));
        assert_ne!(
            (created.burst, created.queue_limit),
            (later.burst, later.queue_limit)
        );
        let sized = |t: &mut EgressTree| {
            let htb = chain_at(&mut t.slots, dst).expect("installed").htb.config();
            (htb.rate, htb.burst, htb.queue_limit)
        };
        t.install_path(dst, NetemConfig::default(), created.rate);
        assert_eq!(
            sized(&mut t),
            (created.rate, created.burst, created.queue_limit)
        );
        t.install_path(
            dst,
            NetemConfig::with_delay(SimDuration::from_millis(3)),
            later.rate,
        );
        assert_eq!(
            sized(&mut t),
            (later.rate, created.burst, created.queue_limit)
        );
        assert!(t.set_bandwidth(SimTime::from_secs(1), dst, Bandwidth::from_mbps(2)));
        assert_eq!(
            sized(&mut t),
            (Bandwidth::from_mbps(2), created.burst, created.queue_limit)
        );
        // Only a chain removed and created again is sized anew.
        assert!(t.remove_path(dst));
        t.install_path(dst, NetemConfig::default(), later.rate);
        assert_eq!(sized(&mut t), (later.rate, later.burst, later.queue_limit));
    }

    #[test]
    fn reinstall_updates_existing_chain() {
        let mut t = tree();
        let dst = Addr::container(1);
        t.install_path(dst, NetemConfig::default(), Bandwidth::from_mbps(10));
        t.install_path(
            dst,
            NetemConfig::with_delay(SimDuration::from_millis(7)),
            Bandwidth::from_mbps(20),
        );
        assert_eq!(t.chain_count(), 1);
        assert_eq!(t.bandwidth(dst), Some(Bandwidth::from_mbps(20)));
        assert_eq!(
            t.netem_config(dst).unwrap().delay,
            SimDuration::from_millis(7)
        );
    }
}
