//! Leaf micro-drives: the innermost structures exercised alone through
//! their public APIs, fed the workload's own sizes, so that the
//! `emulation.*_us` and `runtime.self_us` rows of the ledger can be
//! explained one level further down. Host time throughout.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use kollaps_core::{allocate, FlowDemand};
use kollaps_metadata::bus::HostId;
use kollaps_metadata::codec::{FlowUsage, MetadataMessage};
use kollaps_netmodel::packet::{Addr, FlowId, Packet, PacketKind, MSS, MTU};
use kollaps_netmodel::{EgressTree, NetemConfig};
use kollaps_sim::prelude::*;
use kollaps_topology::model::LinkId;
use kollaps_transport::tcp::{TcpReceiver, TcpSender, TcpSenderConfig, TransferSize};

use crate::kernel::XorShift;

fn ns_per(total: std::time::Duration, ops: u64) -> f64 {
    total.as_nanos() as f64 / ops.max(1) as f64
}

/// `(enqueue, dequeue_ready, next_wakeup)` nanoseconds per call on one
/// `EgressTree` with `destinations` installed chains, `fan` of them busy.
pub fn egress_ns(destinations: usize, fan: usize) -> (f64, f64, f64) {
    let owner = Addr::container(0);
    let mut tree = EgressTree::new(owner, SimRng::new(1));
    for d in 1..=destinations as u32 {
        tree.install_path(
            Addr::container(d),
            NetemConfig::with_delay(SimDuration::from_millis(12)),
            Bandwidth::from_mbps(100),
        );
    }
    let mut rng = XorShift::new(destinations as u64);
    let (mut enqueue, mut dequeue, mut wakeup) = (
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
    );
    let (mut enqueues, mut dequeues, mut wakeups) = (0u64, 0u64, 0u64);
    let mut now = SimTime::ZERO;
    let mut id = 0u64;
    for _ in 0..400 {
        for _ in 0..fan.clamp(1, destinations) {
            id += 1;
            let dst = Addr::container(1 + rng.index(destinations) as u32);
            let packet = Packet::new(id, FlowId(1), owner, dst, MTU, PacketKind::Udp, now);
            let t = Instant::now();
            black_box(tree.enqueue(now, packet));
            enqueue += t.elapsed();
            enqueues += 1;
        }
        // Drain: wake, dequeue, repeat — the runtime's own call pattern.
        loop {
            let t = Instant::now();
            let next = tree.next_wakeup(now);
            wakeup += t.elapsed();
            wakeups += 1;
            let Some(next) = next else { break };
            now = now.max(next);
            let t = Instant::now();
            black_box(tree.dequeue_ready(now));
            dequeue += t.elapsed();
            dequeues += 1;
        }
    }
    (
        ns_per(enqueue, enqueues),
        ns_per(dequeue, dequeues),
        ns_per(wakeup, wakeups),
    )
}

/// Nanoseconds per TCP segment through `poll_send` → `on_data` → `on_ack`
/// over an ideal pipe (no loss, fixed 10 ms round trip).
pub fn tcp_ns_per_segment() -> f64 {
    const SEGMENTS: u64 = 20_000;
    let (a, b) = (Addr::container(0), Addr::container(1));
    let mut sender = TcpSender::new(
        FlowId(1),
        a,
        b,
        TransferSize::Bytes(SEGMENTS * MSS.as_bytes()),
        TcpSenderConfig::default(),
        SimTime::ZERO,
    );
    let mut receiver = TcpReceiver::new(FlowId(1), b, a);
    let half = SimDuration::from_millis(5);
    let mut now = SimTime::ZERO;
    let started = Instant::now();
    // Bounded: an ideal pipe completes in far fewer round trips.
    for _ in 0..SEGMENTS {
        if sender.is_complete() {
            break;
        }
        let mut acks = Vec::new();
        for packet in sender.poll_send(now) {
            if let PacketKind::TcpData { seq } = packet.kind {
                acks.push(receiver.on_data(now + half, seq));
            }
        }
        now = now + half + half;
        for ack in acks {
            if let PacketKind::TcpAck { ack, .. } = ack.kind {
                sender.on_ack(now, ack);
            }
        }
    }
    let elapsed = started.elapsed();
    ns_per(elapsed, receiver.received_segments())
}

/// Nanoseconds per `EventQueue` operation (one schedule or one pop) with
/// `pending` events resident.
pub fn event_queue_ns_per_op(pending: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = XorShift::new(pending as u64);
    let jitter = |rng: &mut XorShift| SimDuration::from_micros(1 + rng.next_u64() % 50_000);
    for i in 0..pending.max(1) as u64 {
        queue.schedule_in(jitter(&mut rng), i);
    }
    let started = Instant::now();
    for i in 0..OPS / 2 {
        if let Some((_, event)) = queue.pop() {
            black_box(event);
        }
        queue.schedule_in(jitter(&mut rng), i);
    }
    ns_per(started.elapsed(), OPS)
}

/// Nanoseconds per advertised flow to encode and decode one metadata
/// message carrying `flows` flows (the paper's Figure 3 quantity is its
/// size; this is its CPU cost).
pub fn codec_ns_per_flow(flows: usize) -> f64 {
    const ROUNDS: u64 = 50;
    let mut message = MetadataMessage::from_host(HostId(0), SimTime::ZERO);
    for i in 0..flows.max(1) {
        message.flows.push(FlowUsage::new(
            Bandwidth::from_kbps(240 + i as u64),
            vec![(i % 300) as u16, 1, 2],
        ));
    }
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let decoded = MetadataMessage::decode(black_box(message.encode()));
        black_box(decoded.expect("round trip").flows.len());
    }
    ns_per(started.elapsed(), ROUNDS * flows.max(1) as u64)
}

/// Microseconds of one full `allocate()` over the workload's demand set —
/// what one omniscient convergence score costs on a cache miss.
pub fn full_allocate_us(demands: &[FlowDemand], capacities: &BTreeMap<LinkId, Bandwidth>) -> f64 {
    let started = Instant::now();
    black_box(allocate(black_box(demands), capacities));
    started.elapsed().as_secs_f64() * 1e6
}
