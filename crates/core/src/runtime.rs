//! Experiment runtime: drives transport endpoints against a dataplane.
//!
//! The runtime is the glue between the workload layer (iPerf-, wrk2-,
//! ping-style traffic generators) and a [`Dataplane`] implementation — the
//! Kollaps collapsed emulation ([`crate::emulation::KollapsDataplane`]) or
//! one of the full-state baselines. It owns the discrete-event loop, the TCP
//! and UDP endpoints, and the measurement hooks the evaluation harness reads
//! (per-flow goodput, receiver-side throughput series, ping RTTs).

use std::collections::{BTreeMap, HashMap};

use kollaps_netmodel::packet::{Addr, DropReason, FlowId, Packet, PacketKind, HEADER_SIZE, MSS};
use kollaps_sim::prelude::*;
use kollaps_sim::stats::Summary;
use kollaps_transport::tcp::{TcpReceiver, TcpSender, TcpSenderConfig, TransferSize};
use kollaps_transport::udp::UdpSender;

/// Outcome of handing a packet to the dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The packet was accepted and will eventually be delivered (or lost
    /// inside the network).
    Sent,
    /// The egress queue is full; the sender must retry later. No loss signal
    /// is generated (TCP Small Queues behaviour).
    Backpressure,
    /// The packet was dropped immediately, with the reason.
    Dropped(DropReason),
}

/// A network under test: either the Kollaps collapsed emulation or one of
/// the full-state baselines.
pub trait Dataplane {
    /// Offers a packet to the network at `now`.
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome;

    /// The next instant at which the network has something to do (a queued
    /// packet becomes deliverable), if any.
    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime>;

    /// Packets that have reached their destination container by `now`.
    fn deliver(&mut self, now: SimTime) -> Vec<Packet>;

    /// Periodic maintenance hook (the Kollaps emulation loop). Returns the
    /// time of the next maintenance round, or `None` if not needed.
    fn tick(&mut self, _now: SimTime) -> Option<SimTime> {
        None
    }
}

/// Events reported back to the workload driver.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A bounded TCP transfer finished (all data acknowledged).
    TcpCompleted {
        /// The completed flow.
        flow: FlowId,
        /// Completion time.
        at: SimTime,
    },
    /// A ping probe received an echo reply.
    PingReply {
        /// The probe flow.
        flow: FlowId,
        /// Echo sequence number.
        seq: u32,
        /// Measured round-trip time.
        rtt: SimDuration,
    },
}

#[derive(Debug, Clone)]
enum Ev {
    StartTcp(FlowId),
    RtoCheck(FlowId),
    UdpSend(FlowId),
    PingSend(FlowId),
    DataplaneWakeup,
    Tick,
    PumpRetry(FlowId),
}

/// Deterministic work counters of the event loop since construction. Never
/// part of a report: a superseded wake-up is an artefact of the loop, not of
/// the emulated network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLoopStats {
    /// Events popped, dropped wake-ups included.
    pub events: u64,
    /// Live dataplane wake-ups handled.
    pub wakeups: u64,
    /// Dead (superseded or duplicate) dataplane wake-ups dropped unhandled.
    pub stale_wakeups: u64,
}

#[derive(Debug)]
struct PingState {
    src: Addr,
    dst: Addr,
    interval: SimDuration,
    remaining: u64,
    next_seq: u32,
    in_flight: HashMap<u32, SimTime>,
    rtts: Summary,
    packet_counter: u64,
}

/// The experiment runtime.
pub struct Runtime<D: Dataplane> {
    /// The network under test.
    pub dataplane: D,
    queue: EventQueue<Ev>,
    /// In flow-id order — the base order of the back-pressure pump (see
    /// `Ev::DataplaneWakeup`).
    tcp_senders: BTreeMap<FlowId, TcpSender>,
    tcp_receivers: HashMap<FlowId, TcpReceiver>,
    udp_senders: HashMap<FlowId, UdpSender>,
    udp_delivered: HashMap<FlowId, u64>,
    pings: HashMap<FlowId, PingState>,
    rx_meters: HashMap<FlowId, RateMeter>,
    next_flow: u64,
    pending_events: Vec<RuntimeEvent>,
    /// The one live `Ev::DataplaneWakeup` (see `sync_wakeup`).
    wakeup_scheduled: Option<SimTime>,
    wakeups: u64,
    stale_wakeups: u64,
    /// Flows with an outstanding RTO-check event (at most one per flow, to
    /// keep the event count linear in simulated time rather than in packets).
    rto_scheduled: std::collections::HashSet<FlowId>,
    /// Rotating start index of the back-pressure pump round-robin (see
    /// `Ev::DataplaneWakeup`).
    pump_rotation: usize,
    sample_window: SimDuration,
}

impl<D: Dataplane> Runtime<D> {
    /// Creates a runtime over `dataplane`. Receiver-side throughput is
    /// sampled in one-second windows (like iPerf3's periodic reports).
    pub fn new(dataplane: D) -> Self {
        let mut rt = Runtime {
            dataplane,
            queue: EventQueue::new(),
            tcp_senders: BTreeMap::new(),
            tcp_receivers: HashMap::new(),
            udp_senders: HashMap::new(),
            udp_delivered: HashMap::new(),
            pings: HashMap::new(),
            rx_meters: HashMap::new(),
            next_flow: 1,
            pending_events: Vec::new(),
            wakeup_scheduled: None,
            wakeups: 0,
            stale_wakeups: 0,
            rto_scheduled: std::collections::HashSet::new(),
            pump_rotation: 0,
            sample_window: SimDuration::from_secs(1),
        };
        rt.queue.schedule(SimTime::ZERO, Ev::Tick);
        rt
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Starts a TCP transfer from `src` to `dst` at `start`.
    pub fn add_tcp_flow(
        &mut self,
        src: Addr,
        dst: Addr,
        size: TransferSize,
        config: TcpSenderConfig,
        start: SimTime,
    ) -> FlowId {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.tcp_senders.insert(
            flow,
            TcpSender::new(flow, src, dst, size, config, start.max(self.now())),
        );
        self.tcp_receivers
            .insert(flow, TcpReceiver::new(flow, dst, src));
        self.rx_meters
            .insert(flow, RateMeter::new(self.sample_window));
        self.queue
            .schedule(start.max(self.now()), Ev::StartTcp(flow));
        flow
    }

    /// Stops a TCP flow: the sender is removed, in-flight packets are
    /// ignored on arrival.
    pub fn stop_tcp_flow(&mut self, flow: FlowId) {
        self.tcp_senders.remove(&flow);
    }

    /// Starts a constant-bit-rate UDP flow.
    pub fn add_udp_flow(
        &mut self,
        src: Addr,
        dst: Addr,
        rate: Bandwidth,
        start: SimTime,
        stop: Option<SimTime>,
    ) -> FlowId {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        let mut sender = UdpSender::new(flow, src, dst, rate, MSS, start.max(self.now()));
        if let Some(stop) = stop {
            sender.stop_at(stop);
        }
        self.udp_senders.insert(flow, sender);
        self.udp_delivered.insert(flow, 0);
        self.rx_meters
            .insert(flow, RateMeter::new(self.sample_window));
        self.queue
            .schedule(start.max(self.now()), Ev::UdpSend(flow));
        flow
    }

    /// Starts a ping probe sending `count` echo requests every `interval`.
    pub fn add_ping(
        &mut self,
        src: Addr,
        dst: Addr,
        interval: SimDuration,
        count: u64,
        start: SimTime,
    ) -> FlowId {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.pings.insert(
            flow,
            PingState {
                src,
                dst,
                interval,
                remaining: count,
                next_seq: 0,
                in_flight: HashMap::new(),
                rtts: Summary::new(),
                packet_counter: 0,
            },
        );
        self.queue
            .schedule(start.max(self.now()), Ev::PingSend(flow));
        flow
    }

    /// Stops a ping probe: no further echo requests are sent and in-flight
    /// replies are ignored on arrival. The collected RTT statistics remain
    /// readable through [`Runtime::ping_rtts`].
    pub fn stop_ping(&mut self, flow: FlowId) {
        if let Some(state) = self.pings.get_mut(&flow) {
            state.remaining = 0;
            state.in_flight.clear();
        }
    }

    /// Appends more application data to an existing TCP flow (request /
    /// response workloads reusing one connection).
    pub fn push_tcp_bytes(&mut self, flow: FlowId, bytes: u64) {
        let now = self.now();
        if let Some(sender) = self.tcp_senders.get_mut(&flow) {
            sender.push_bytes(bytes);
        }
        self.queue.schedule(now, Ev::PumpRetry(flow));
    }

    /// The sender of a TCP flow (for statistics), if still present.
    pub fn tcp_sender(&self, flow: FlowId) -> Option<&TcpSender> {
        self.tcp_senders.get(&flow)
    }

    /// Receiver-side bytes delivered in order for a TCP flow.
    pub fn tcp_received_bytes(&self, flow: FlowId) -> u64 {
        self.tcp_receivers
            .get(&flow)
            .map(|r| r.received_bytes())
            .unwrap_or(0)
    }

    /// Receiver-side throughput series (Mb/s per one-second window).
    pub fn throughput_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.rx_meters.get(&flow).map(|m| m.series())
    }

    /// Payload bytes delivered for a UDP flow.
    pub fn udp_delivered_bytes(&self, flow: FlowId) -> u64 {
        self.udp_delivered.get(&flow).copied().unwrap_or(0)
    }

    /// RTT samples collected by a ping probe (milliseconds).
    pub fn ping_rtts(&self, flow: FlowId) -> Option<&Summary> {
        self.pings.get(&flow).map(|p| &p.rtts)
    }

    /// Event-loop work counters so far.
    pub fn event_loop_stats(&self) -> EventLoopStats {
        EventLoopStats {
            events: self.queue.total_executed(),
            wakeups: self.wakeups,
            stale_wakeups: self.stale_wakeups,
        }
    }

    /// Runs the experiment until `deadline`, returning the workload-visible
    /// events that occurred.
    ///
    /// A popped `Ev::DataplaneWakeup` is live only when it is the one
    /// `wakeup_scheduled` names. Any other was superseded by an earlier one
    /// (which re-armed this instant when it fired) or is that re-armed
    /// duplicate, and is dropped unhandled: every handled event ends in
    /// `drain`, so nothing became due since, and the live one is still
    /// queued. Handling it would poll every egress tree for nothing and
    /// re-arm the next instant once more — a chain of ghost wake-ups per
    /// supersede that only ends when the dataplane goes idle.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<RuntimeEvent> {
        // Flows and events registered since the last call may be due before
        // the scheduled wake-up; inside the loop every handled event ends
        // in `drain`, which re-syncs.
        self.sync_wakeup();
        loop {
            match self.queue.pop_until(deadline) {
                Some((now, Ev::DataplaneWakeup)) if self.wakeup_scheduled != Some(now) => {
                    self.stale_wakeups += 1;
                }
                Some((now, ev)) => {
                    self.handle(now, ev);
                    self.drain(now);
                }
                None => {
                    self.drain(deadline);
                    break;
                }
            }
        }
        std::mem::take(&mut self.pending_events)
    }

    /// Keeps the invariant "`wakeup_scheduled == Some(t)` ⇒ an
    /// `Ev::DataplaneWakeup` at `t` is queued, and `t` is no later than the
    /// dataplane's next wake-up". An earlier wake-up supersedes the scheduled
    /// one, whose event stays queued and dies in `run_until`.
    fn sync_wakeup(&mut self) {
        let now = self.queue.now();
        if let Some(w) = self.dataplane.next_wakeup(now) {
            let w = w.max(now);
            let need = match self.wakeup_scheduled {
                Some(existing) => {
                    // A scheduled wake-up in the past has already popped
                    // and cleared the field.
                    debug_assert!(existing >= now);
                    w < existing
                }
                None => true,
            };
            if need && w < SimTime::MAX {
                self.queue.schedule(w, Ev::DataplaneWakeup);
                self.wakeup_scheduled = Some(w);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::StartTcp(flow) | Ev::PumpRetry(flow) => self.pump_tcp(now, flow),
            Ev::RtoCheck(flow) => {
                self.rto_scheduled.remove(&flow);
                let fired = match self.tcp_senders.get_mut(&flow) {
                    Some(s) => s.on_timer(now),
                    None => false,
                };
                if fired {
                    self.pump_tcp(now, flow);
                } else {
                    self.schedule_rto(flow);
                }
            }
            Ev::UdpSend(flow) => {
                let packets = match self.udp_senders.get_mut(&flow) {
                    Some(s) => s.poll_send(now),
                    None => Vec::new(),
                };
                for pkt in packets {
                    // UDP does not retry on back-pressure: the datagram is
                    // simply lost to the application.
                    let _ = self.dataplane.send(now, pkt);
                }
                if let Some(next) = self.udp_senders.get(&flow).and_then(|s| s.next_wakeup()) {
                    self.queue.schedule(next.max(now), Ev::UdpSend(flow));
                }
            }
            Ev::PingSend(flow) => {
                if let Some(state) = self.pings.get_mut(&flow) {
                    if state.remaining > 0 {
                        state.remaining -= 1;
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        state.packet_counter += 1;
                        state.in_flight.insert(seq, now);
                        let pkt = Packet::new(
                            state.packet_counter,
                            flow,
                            state.src,
                            state.dst,
                            HEADER_SIZE + DataSize::from_bytes(56),
                            PacketKind::IcmpEchoRequest { seq },
                            now,
                        );
                        let interval = state.interval;
                        let remaining = state.remaining;
                        let _ = self.dataplane.send(now, pkt);
                        if remaining > 0 {
                            self.queue.schedule(now + interval, Ev::PingSend(flow));
                        }
                    }
                }
            }
            Ev::DataplaneWakeup => {
                self.wakeup_scheduled = None;
                self.wakeups += 1;
                // Back-pressured TCP senders get another chance whenever the
                // dataplane makes progress. Under contention the pump order
                // decides who wins the freed egress slots, so it must be
                // deterministic but not biased (always-lowest-id-first would
                // let one flow starve the rest): round-robin over the ids in
                // order with a rotating start.
                let mut flows: Vec<FlowId> = self.tcp_senders.keys().copied().collect();
                if !flows.is_empty() {
                    let start = self.pump_rotation % flows.len();
                    self.pump_rotation = self.pump_rotation.wrapping_add(1);
                    flows.rotate_left(start);
                }
                for flow in flows {
                    self.pump_tcp(now, flow);
                }
            }
            Ev::Tick => {
                if let Some(next) = self.dataplane.tick(now) {
                    self.queue.schedule(next.max(now), Ev::Tick);
                }
            }
        }
    }

    fn pump_tcp(&mut self, now: SimTime, flow: FlowId) {
        let Some(sender) = self.tcp_senders.get_mut(&flow) else {
            return;
        };
        let mut packets = sender.poll_send(now).into_iter();
        while let Some(pkt) = packets.next() {
            match self.dataplane.send(now, pkt.clone()) {
                SendOutcome::Sent | SendOutcome::Dropped(_) => {}
                SendOutcome::Backpressure => {
                    // Requeue this packet AND the rest of the batch — they
                    // are all marked outstanding, so quietly discarding them
                    // would punch artificial holes into the sequence space.
                    // Retry on the next dataplane wakeup.
                    sender.on_backpressure(&pkt);
                    for rest in packets.by_ref() {
                        sender.on_backpressure(&rest);
                    }
                    break;
                }
            }
        }
        self.schedule_rto(flow);
    }

    fn schedule_rto(&mut self, flow: FlowId) {
        if self.rto_scheduled.contains(&flow) {
            return;
        }
        if let Some(deadline) = self.tcp_senders.get(&flow).and_then(|s| s.rto_deadline()) {
            let at = deadline.max(self.queue.now());
            self.queue.schedule(at, Ev::RtoCheck(flow));
            self.rto_scheduled.insert(flow);
        }
    }

    fn drain(&mut self, now: SimTime) {
        let delivered = self.dataplane.deliver(now);
        for pkt in delivered {
            self.on_arrival(now, pkt);
        }
        self.sync_wakeup();
    }

    fn on_arrival(&mut self, now: SimTime, pkt: Packet) {
        match pkt.kind {
            PacketKind::TcpData { seq } => {
                let Some(receiver) = self.tcp_receivers.get_mut(&pkt.flow) else {
                    return;
                };
                let ack = receiver.on_data(now, seq);
                if let Some(meter) = self.rx_meters.get_mut(&pkt.flow) {
                    meter.record(now, pkt.size.saturating_sub(HEADER_SIZE));
                }
                // ACKs that hit back-pressure are dropped; TCP recovers via
                // later cumulative ACKs.
                let _ = self.dataplane.send(now, ack);
            }
            PacketKind::TcpAck { ack, .. } => {
                let completed = {
                    let Some(sender) = self.tcp_senders.get_mut(&pkt.flow) else {
                        return;
                    };
                    let was_complete = sender.is_complete();
                    sender.on_ack(now, ack);
                    !was_complete && sender.is_complete()
                };
                if completed {
                    self.pending_events.push(RuntimeEvent::TcpCompleted {
                        flow: pkt.flow,
                        at: now,
                    });
                }
                self.pump_tcp(now, pkt.flow);
            }
            PacketKind::TcpHandshake | PacketKind::TcpFin => {}
            PacketKind::Udp => {
                if let Some(bytes) = self.udp_delivered.get_mut(&pkt.flow) {
                    *bytes += pkt.size.saturating_sub(HEADER_SIZE).as_bytes();
                }
                if let Some(meter) = self.rx_meters.get_mut(&pkt.flow) {
                    meter.record(now, pkt.size.saturating_sub(HEADER_SIZE));
                }
            }
            PacketKind::IcmpEchoRequest { seq } => {
                // The destination stack answers immediately.
                let reply = Packet::new(
                    pkt.id,
                    pkt.flow,
                    pkt.dst,
                    pkt.src,
                    pkt.size,
                    PacketKind::IcmpEchoReply { seq },
                    now,
                );
                let _ = self.dataplane.send(now, reply);
            }
            PacketKind::IcmpEchoReply { seq } => {
                if let Some(state) = self.pings.get_mut(&pkt.flow) {
                    if let Some(sent) = state.in_flight.remove(&seq) {
                        let rtt = now - sent;
                        state.rtts.record(rtt.as_millis_f64());
                        self.pending_events.push(RuntimeEvent::PingReply {
                            flow: pkt.flow,
                            seq,
                            rtt,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial dataplane: fixed delay, unlimited bandwidth, optional loss
    /// of every n-th packet. Lets the runtime logic be tested independently
    /// of the Kollaps emulation.
    struct FixedDelayNet {
        delay: SimDuration,
        in_flight: Vec<(SimTime, Packet)>,
        drop_every: Option<u64>,
        counter: u64,
    }

    impl FixedDelayNet {
        fn new(delay: SimDuration) -> Self {
            FixedDelayNet {
                delay,
                in_flight: Vec::new(),
                drop_every: None,
                counter: 0,
            }
        }
    }

    impl Dataplane for FixedDelayNet {
        fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
            self.counter += 1;
            if let Some(n) = self.drop_every {
                if self.counter.is_multiple_of(n) && packet.is_data() {
                    return SendOutcome::Dropped(DropReason::NetemLoss);
                }
            }
            self.in_flight.push((now + self.delay, packet));
            SendOutcome::Sent
        }

        fn next_wakeup(&mut self, _now: SimTime) -> Option<SimTime> {
            self.in_flight.iter().map(|(t, _)| *t).min()
        }

        fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
            let (ready, rest): (Vec<_>, Vec<_>) =
                self.in_flight.drain(..).partition(|(t, _)| *t <= now);
            self.in_flight = rest;
            ready.into_iter().map(|(_, p)| p).collect()
        }
    }

    fn addr(i: u32) -> Addr {
        Addr::container(i)
    }

    /// Unlimited bandwidth and a fixed one-way delay chosen by destination,
    /// so paths of unequal latency supersede each other's wake-ups.
    /// `deliver` records when each packet came out.
    #[derive(Default)]
    struct TwoDelayNet {
        in_flight: Vec<(SimTime, Packet)>,
        sent: u64,
        delivered: Vec<(SimTime, Packet)>,
    }

    impl TwoDelayNet {
        fn delay(dst: Addr) -> SimDuration {
            if dst == addr(1) {
                SimDuration::from_millis(3)
            } else {
                SimDuration::from_millis(11)
            }
        }
    }

    impl Dataplane for TwoDelayNet {
        fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
            self.sent += 1;
            self.in_flight.push((now + Self::delay(packet.dst), packet));
            SendOutcome::Sent
        }

        fn next_wakeup(&mut self, _now: SimTime) -> Option<SimTime> {
            self.in_flight.iter().map(|(t, _)| *t).min()
        }

        fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
            let (ready, rest): (Vec<_>, Vec<_>) =
                self.in_flight.drain(..).partition(|(t, _)| *t <= now);
            self.in_flight = rest;
            self.delivered
                .extend(ready.iter().map(|(_, p)| (now, p.clone())));
            ready.into_iter().map(|(_, p)| p).collect()
        }
    }

    /// The wake-up protocol under paths of unequal latency: a packet to the
    /// near destination supersedes the wake-up scheduled for one in flight
    /// to the far destination. Every packet must still come out at exactly
    /// its due instant, and each handled wake-up must be one the dataplane
    /// asked for. Mutation-checked: without the guard in `run_until` the
    /// superseded wake-ups are handled too, each re-arming the next instant
    /// once more, and the `wakeups <= delivered` bound fails.
    #[test]
    fn superseded_wakeups_are_dropped_and_delivery_stays_exact() {
        let mut rt = Runtime::new(TwoDelayNet::default());
        // Sparse enough that the far destination is often alone in flight
        // when the next near datagram is sent.
        let flows: Vec<FlowId> = [300u64, 500, 700, 1_100, 1_300, 1_700]
            .into_iter()
            .enumerate()
            .map(|(i, kbps)| {
                rt.add_udp_flow(
                    addr(0),
                    addr(1 + i as u32 % 2),
                    Bandwidth::from_kbps(kbps),
                    SimTime::ZERO,
                    Some(SimTime::from_secs(2)),
                )
            })
            .collect();
        let _ = rt.run_until(SimTime::from_secs(3));

        let net = &rt.dataplane;
        assert!(net.in_flight.is_empty());
        assert_eq!(net.delivered.len() as u64, net.sent);
        for (at, pkt) in &net.delivered {
            assert_eq!(*at, pkt.sent_at + TwoDelayNet::delay(pkt.dst));
        }
        for &flow in &flows {
            assert_eq!(
                rt.udp_delivered_bytes(flow),
                rt.udp_senders[&flow].sent_bytes()
            );
        }

        let stats = rt.event_loop_stats();
        assert!(stats.stale_wakeups > 0, "the scenario must supersede");
        assert!(
            stats.wakeups <= net.sent,
            "{} wake-ups handled for {} packets",
            stats.wakeups,
            net.sent
        );
        // Everything popped that is neither the one tick nor a send (each
        // `UdpSend` event emits exactly one datagram) is a wake-up.
        assert_eq!(
            stats.wakeups + stats.stale_wakeups,
            stats.events - 1 - net.sent
        );
    }

    #[test]
    fn bounded_tcp_transfer_completes_and_reports() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(10)));
        let flow = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Bytes(100 * MSS.as_bytes()),
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let events = rt.run_until(SimTime::from_secs(5));
        assert!(events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::TcpCompleted { flow: f, .. } if *f == flow)));
        assert_eq!(rt.tcp_received_bytes(flow), 100 * MSS.as_bytes());
        let sender = rt.tcp_sender(flow).unwrap();
        assert!(sender.is_complete());
        assert_eq!(sender.stats().retransmissions, 0);
    }

    #[test]
    fn tcp_recovers_from_packet_loss() {
        let mut net = FixedDelayNet::new(SimDuration::from_millis(5));
        net.drop_every = Some(20);
        let mut rt = Runtime::new(net);
        let flow = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Bytes(200 * MSS.as_bytes()),
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let events = rt.run_until(SimTime::from_secs(30));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RuntimeEvent::TcpCompleted { .. })),
            "transfer should complete despite losses"
        );
        let stats = rt.tcp_sender(flow).unwrap().stats();
        assert!(stats.retransmissions > 0);
        assert_eq!(rt.tcp_received_bytes(flow), 200 * MSS.as_bytes());
    }

    #[test]
    fn ping_measures_the_round_trip() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(17)));
        let probe = rt.add_ping(
            addr(0),
            addr(1),
            SimDuration::from_millis(100),
            20,
            SimTime::ZERO,
        );
        let events = rt.run_until(SimTime::from_secs(5));
        let replies = events
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::PingReply { .. }))
            .count();
        assert_eq!(replies, 20);
        let rtts = rt.ping_rtts(probe).unwrap();
        assert_eq!(rtts.len(), 20);
        assert!(
            (rtts.mean() - 34.0).abs() < 0.01,
            "mean rtt {}",
            rtts.mean()
        );
    }

    #[test]
    fn stopped_ping_sends_no_further_probes() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(10)));
        let probe = rt.add_ping(
            addr(0),
            addr(1),
            SimDuration::from_millis(100),
            1_000,
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_millis(450));
        rt.stop_ping(probe);
        let _ = rt.run_until(SimTime::from_secs(5));
        let rtts = rt.ping_rtts(probe).unwrap();
        // Probes at 0/100/200/300/400 ms got replies; nothing after the stop.
        assert_eq!(rtts.len(), 5);
    }

    #[test]
    fn udp_delivers_at_application_rate() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(1)));
        let flow = rt.add_udp_flow(
            addr(0),
            addr(1),
            Bandwidth::from_mbps(10),
            SimTime::ZERO,
            Some(SimTime::from_secs(1)),
        );
        let _ = rt.run_until(SimTime::from_secs(2));
        let delivered = rt.udp_delivered_bytes(flow);
        let mbps = DataSize::from_bytes(delivered)
            .rate_over(SimDuration::from_secs(1))
            .as_mbps();
        assert!((9.0..=10.5).contains(&mbps), "udp delivered {mbps} Mb/s");
    }

    #[test]
    fn throughput_series_tracks_the_transfer() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(2)));
        let flow = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(5));
        let series = rt.throughput_series(flow).unwrap();
        assert!(!series.is_empty());
        assert!(series.mean() > 0.0);
        rt.stop_tcp_flow(flow);
        assert!(rt.tcp_sender(flow).is_none());
    }

    #[test]
    fn push_bytes_drives_request_response_patterns() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(5)));
        let flow = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Bytes(MSS.as_bytes()),
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let first = rt.run_until(SimTime::from_secs(1));
        assert_eq!(first.len(), 1);
        // Push a second "request" on the same connection.
        rt.push_tcp_bytes(flow, 10 * MSS.as_bytes());
        let second = rt.run_until(SimTime::from_secs(2));
        assert!(second
            .iter()
            .any(|e| matches!(e, RuntimeEvent::TcpCompleted { .. })));
        assert_eq!(rt.tcp_received_bytes(flow), 11 * MSS.as_bytes());
    }
}
