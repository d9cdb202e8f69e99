//! Experiment runtime: drives transport endpoints against a dataplane.
//!
//! The runtime is the glue between the workload layer (iPerf-, wrk2-,
//! ping-style traffic generators) and a [`Dataplane`] implementation — the
//! Kollaps collapsed emulation ([`crate::emulation::KollapsDataplane`]) or
//! one of the full-state baselines. It owns the discrete-event loop, the TCP
//! and UDP endpoints, and the measurement hooks the evaluation harness reads
//! (per-flow goodput, receiver-side throughput series, ping RTTs).
//!
//! Every flow is one record in one table: ids are dense from 1 across TCP,
//! UDP and ping flows, and are never reused. Flow `id` maps, at index
//! `id − 1`, to the slot of its record in a pool of reused records. A stop
//! takes only the sender, so a stopped TCP flow still receives, ACKs and
//! meters the data in flight (and ignores its ACKs). The runtime counts
//! each TCP flow's packets in the network (+1 per send the dataplane
//! answers [`SendOutcome::Sent`], −1 per arrival) and releases the record
//! once the sender is stopped and that count reads 0; its slot then serves
//! the next flow added, and the released id reads as an unknown one. So a
//! closed connection holds memory only while its packets drain. A packet
//! lost inside the network never arrives, and its flow keeps its record.
//! UDP and ping records are never released.

use kollaps_netmodel::packet::{Addr, DropReason, FlowId, Packet, PacketKind, HEADER_SIZE, MSS};
use kollaps_sim::prelude::*;
use kollaps_sim::stats::Summary;
use kollaps_transport::tcp::{TcpReceiver, TcpSender, TcpSenderConfig, TransferSize};
use kollaps_transport::{PingProbe, UdpSender};

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

    /// Whether `src` could hand a packet towards `dst` to the network right
    /// now. The contract: `false` only when a [`Dataplane::send`] from
    /// `src` to `dst` at this instant would answer
    /// [`SendOutcome::Backpressure`]; `true` is always a safe answer, and
    /// the default. The runtime's wake-up does not pump a back-pressured
    /// sender while its class answers `false`, so a dataplane that
    /// back-pressures without answering here only costs refused offers.
    fn has_room(&self, _src: Addr, _dst: Addr) -> bool {
        true
    }

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
    /// Start, or resume after new bytes were pushed.
    PumpTcp(FlowId),
    RtoCheck(FlowId),
    UdpSend(FlowId),
    PingSend(FlowId),
    /// The dataplane's next wake-up (see `Runtime::sync_wakeup`): pumps the
    /// open TCP senders that may have something to send (see
    /// `Runtime::wakeup_pumps`), round-robin with a rotating start; the
    /// drain after it delivers what is due.
    DataplaneWakeup,
    Tick,
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
    /// TCP sender pumps, all causes: start, pushed bytes, ACKs, timeouts
    /// and wake-ups.
    pub pumps: u64,
    /// Distinct virtual instants among the events popped.
    pub instants: u64,
    /// The most flow records held at once: closed TCP connections give
    /// theirs back once drained, so this follows the flows alive together,
    /// not every flow ever added.
    pub records_peak: u64,
}

/// One registered flow (see the module docs). A UDP flow's meter total is
/// its delivered payload.
#[derive(Debug)]
enum Flow {
    Tcp(TcpFlow),
    Udp(UdpSender, RateMeter),
    Ping(PingProbe),
}

#[derive(Debug)]
struct TcpFlow {
    /// `None` once stopped; boxed so that a stopped connection keeps no
    /// sender-sized hole in the table.
    sender: Option<Box<TcpSender>>,
    receiver: TcpReceiver,
    meter: RateMeter,
    /// This flow's packets (segments and ACKs) the dataplane accepted and
    /// has not delivered yet.
    in_network: u32,
    /// An `Ev::RtoCheck` is queued (at most one per flow, to keep the event
    /// count linear in simulated time rather than in packets).
    rto_armed: bool,
    /// What the sender's last pump left it waiting for.
    pump: PumpState,
}

impl TcpFlow {
    /// Counts one of this flow's packets out of the network.
    fn arrived(&mut self) {
        debug_assert!(self.in_network > 0, "an arrival that was never sent");
        self.in_network -= 1;
    }
}

/// What a TCP sender's last pump left it waiting for, which decides whether
/// a dataplane wake-up pumps it (see `Runtime::wakeup_pumps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PumpState {
    /// Not pumped since it was added or given more bytes, or pumped only
    /// before its start.
    Fresh,
    /// An offer of its last pump was back-pressured: the first refused
    /// segment and the rest of its batch are parked, waiting for room.
    Refused,
    /// Its last pump sent everything its window and data allowed. Only an
    /// ACK or a timeout changes that, and each pumps at once.
    Idle,
}

/// Marks a released id in `FlowTable::slots`.
const RELEASED: u32 = u32::MAX;

/// The flow table: flow `id` maps, at index `id − 1`, to the slot of its
/// record in `records`, or to [`RELEASED`]. Released slots wait in `free`
/// for the next flow added, so `records` holds as many records as were
/// ever alive at once.
#[derive(Debug, Default)]
struct FlowTable {
    slots: Vec<u32>,
    records: Vec<Flow>,
    free: Vec<u32>,
}

impl FlowTable {
    /// Stores the record `make` builds for the next id, in a released slot
    /// if there is one, and returns the id.
    fn push(&mut self, make: impl FnOnce(FlowId) -> Flow) -> FlowId {
        let flow = FlowId(self.slots.len() as u64 + 1);
        let record = make(flow);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = record;
                slot
            }
            None => {
                self.records.push(record);
                // `RELEASED` records would take hundreds of GB: every slot
                // index fits below it.
                (self.records.len() - 1) as u32
            }
        };
        self.slots.push(slot);
        flow
    }

    /// The slot of `flow`'s record, `None` for an unknown or released id.
    fn slot(&self, flow: FlowId) -> Option<usize> {
        let slot = *self.slots.get(flow.index()?)?;
        (slot != RELEASED).then_some(slot as usize)
    }

    fn get(&self, flow: FlowId) -> Option<&Flow> {
        self.records.get(self.slot(flow)?)
    }

    fn get_mut(&mut self, flow: FlowId) -> Option<&mut Flow> {
        let slot = self.slot(flow)?;
        self.records.get_mut(slot)
    }

    fn is_released(&self, flow: FlowId) -> bool {
        flow.index()
            .and_then(|index| self.slots.get(index))
            .is_some_and(|&slot| slot == RELEASED)
    }

    /// Gives `flow`'s record slot back for reuse; its id reads as unknown
    /// from now on.
    fn release(&mut self, flow: FlowId) {
        let Some(index) = flow.index() else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(index).filter(|slot| **slot != RELEASED) {
            self.free.push(std::mem::replace(slot, RELEASED));
        }
    }

    fn tcp_mut(&mut self, flow: FlowId) -> Option<&mut TcpFlow> {
        match self.get_mut(flow)? {
            Flow::Tcp(tcp) => Some(tcp),
            _ => None,
        }
    }
}

/// The experiment runtime.
pub struct Runtime<D: Dataplane> {
    /// The network under test.
    pub dataplane: D,
    queue: EventQueue<Ev>,
    flows: FlowTable,
    /// The TCP flows that still have a sender, in id order — the base order
    /// of the back-pressure pump (see `Ev::DataplaneWakeup`).
    open_tcp: Vec<FlowId>,
    pending_events: Vec<RuntimeEvent>,
    /// The one live `Ev::DataplaneWakeup` (see `sync_wakeup`).
    wakeup_scheduled: Option<SimTime>,
    wakeups: u64,
    stale_wakeups: u64,
    pumps: u64,
    instants: u64,
    /// The time of the last event popped, for `instants`.
    last_instant: Option<SimTime>,
    /// The reference the wake-up rule is checked against: every open
    /// sender pumped at every wake-up.
    #[cfg(test)]
    pump_every_sender: bool,
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
            flows: FlowTable::default(),
            open_tcp: Vec::new(),
            pending_events: Vec::new(),
            wakeup_scheduled: None,
            wakeups: 0,
            stale_wakeups: 0,
            pumps: 0,
            instants: 0,
            last_instant: None,
            #[cfg(test)]
            pump_every_sender: false,
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
        let (start, window) = (start.max(self.now()), self.sample_window);
        let flow = self.flows.push(|flow| {
            let sender = Box::new(TcpSender::new(flow, src, dst, size, config, start));
            Flow::Tcp(TcpFlow {
                sender: Some(sender),
                receiver: TcpReceiver::new(flow, dst, src),
                meter: RateMeter::new(window, start),
                in_network: 0,
                rto_armed: false,
                pump: PumpState::Fresh,
            })
        });
        self.open_tcp.push(flow);
        self.queue.schedule(start, Ev::PumpTcp(flow));
        flow
    }

    /// Stops a TCP flow: its sender is dropped. The receiver and meter stay
    /// while any of the flow's packets is in the network, so data in flight
    /// is still received, ACKed and metered; ACKs for it are ignored on
    /// arrival. Once none is left (at once if none was), the whole record
    /// is released and every accessor answers for `flow` as for an unknown
    /// id: read a flow's statistics before stopping it.
    pub fn stop_tcp_flow(&mut self, flow: FlowId) {
        let stopped = self.flows.tcp_mut(flow).and_then(|tcp| tcp.sender.take());
        if stopped.is_some() {
            self.open_tcp.retain(|&open| open != flow);
            self.release_if_drained(flow);
        }
    }

    /// Releases a TCP flow's record once its sender is stopped and none of
    /// its packets is in the network (see the module docs).
    fn release_if_drained(&mut self, flow: FlowId) {
        let drained = self
            .flows
            .tcp_mut(flow)
            .is_some_and(|tcp| tcp.sender.is_none() && tcp.in_network == 0);
        if drained {
            self.flows.release(flow);
        }
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
        let (start, window) = (start.max(self.now()), self.sample_window);
        let flow = self.flows.push(|flow| {
            let mut sender = UdpSender::new(flow, src, dst, rate, MSS, start);
            if let Some(stop) = stop {
                sender.stop_at(stop);
            }
            Flow::Udp(sender, RateMeter::new(window, start))
        });
        self.queue.schedule(start, Ev::UdpSend(flow));
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
        let probe = |flow| Flow::Ping(PingProbe::new(flow, src, dst, interval, count));
        let flow = self.flows.push(probe);
        self.queue
            .schedule(start.max(self.now()), Ev::PingSend(flow));
        flow
    }

    /// Stops a ping probe: no further echo requests are sent and in-flight
    /// replies are ignored on arrival. The collected RTT statistics remain
    /// readable through [`Runtime::ping_rtts`].
    pub fn stop_ping(&mut self, flow: FlowId) {
        if let Some(Flow::Ping(probe)) = self.flows.get_mut(flow) {
            probe.stop();
        }
    }

    /// Appends more application data to an existing TCP flow (request /
    /// response workloads reusing one connection).
    pub fn push_tcp_bytes(&mut self, flow: FlowId, bytes: u64) {
        if let Some(tcp) = self.flows.tcp_mut(flow) {
            if let Some(sender) = tcp.sender.as_deref_mut() {
                sender.push_bytes(bytes);
                // New data: an idle sender has something to send again (the
                // pump scheduled below runs before any wake-up at `now`).
                tcp.pump = PumpState::Fresh;
            }
        }
        self.queue.schedule(self.now(), Ev::PumpTcp(flow));
    }

    /// The sender of a TCP flow (for statistics), if not stopped.
    pub fn tcp_sender(&self, flow: FlowId) -> Option<&TcpSender> {
        match self.flows.get(flow)? {
            Flow::Tcp(tcp) => tcp.sender.as_deref(),
            _ => None,
        }
    }

    /// Receiver-side bytes delivered in order for a TCP flow.
    pub fn tcp_received_bytes(&self, flow: FlowId) -> u64 {
        match self.flows.get(flow) {
            Some(Flow::Tcp(tcp)) => tcp.receiver.received_bytes(),
            _ => 0,
        }
    }

    /// Receiver-side throughput series (Mb/s per one-second window) of a TCP
    /// or UDP flow.
    pub fn throughput_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        match self.flows.get(flow)? {
            Flow::Tcp(TcpFlow { meter, .. }) | Flow::Udp(_, meter) => Some(meter.series()),
            Flow::Ping(_) => None,
        }
    }

    /// Payload bytes delivered for a UDP flow.
    pub fn udp_delivered_bytes(&self, flow: FlowId) -> u64 {
        match self.flows.get(flow) {
            Some(Flow::Udp(_, meter)) => meter.total_bytes().as_bytes(),
            _ => 0,
        }
    }

    /// RTT samples collected by a ping probe (milliseconds).
    pub fn ping_rtts(&self, flow: FlowId) -> Option<&Summary> {
        match self.flows.get(flow)? {
            Flow::Ping(probe) => Some(probe.rtts()),
            _ => None,
        }
    }

    /// Event-loop work counters so far.
    pub fn event_loop_stats(&self) -> EventLoopStats {
        EventLoopStats {
            events: self.queue.total_executed(),
            wakeups: self.wakeups,
            stale_wakeups: self.stale_wakeups,
            pumps: self.pumps,
            instants: self.instants,
            records_peak: self.flows.records.len() as u64,
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
            let popped = self.queue.pop_until(deadline);
            if let Some((now, _)) = popped {
                if self.last_instant != Some(now) {
                    self.last_instant = Some(now);
                    self.instants += 1;
                }
            }
            match popped {
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
        let Some(w) = self.dataplane.next_wakeup(now) else {
            return;
        };
        let w = w.max(now);
        // A scheduled wake-up in the past has already popped and cleared
        // the field.
        debug_assert!(self.wakeup_scheduled.is_none_or(|existing| existing >= now));
        if w < SimTime::MAX && self.wakeup_scheduled.is_none_or(|existing| w < existing) {
            self.queue.schedule(w, Ev::DataplaneWakeup);
            self.wakeup_scheduled = Some(w);
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::PumpTcp(flow) => self.pump_tcp(now, flow),
            Ev::RtoCheck(flow) => {
                let Some(tcp) = self.flows.tcp_mut(flow) else {
                    return;
                };
                tcp.rto_armed = false;
                if tcp.sender.as_mut().is_some_and(|s| s.on_timer(now)) {
                    self.pump_tcp(now, flow);
                }
                // Re-arms, unless the pump just did.
                self.schedule_rto(flow);
            }
            Ev::UdpSend(flow) => {
                let Some(Flow::Udp(sender, _)) = self.flows.get_mut(flow) else {
                    return;
                };
                let dataplane = &mut self.dataplane;
                // UDP does not retry on back-pressure: the datagram is
                // simply lost to the application.
                sender.send_with(now, |pkt| {
                    let _ = dataplane.send(now, pkt);
                });
                if let Some(next) = sender.next_wakeup() {
                    self.queue.schedule(next.max(now), Ev::UdpSend(flow));
                }
            }
            Ev::PingSend(flow) => {
                let Some(Flow::Ping(probe)) = self.flows.get_mut(flow) else {
                    return;
                };
                if let Some(pkt) = probe.poll_send(now) {
                    let _ = self.dataplane.send(now, pkt);
                    if let Some(next) = probe.next_send(now) {
                        self.queue.schedule(next, Ev::PingSend(flow));
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
                // order with a rotating start. Pumping never opens or stops
                // a flow, so `open_tcp` holds still. A sender is pumped only
                // when `wakeup_pumps` says the pump could do something; room
                // is asked for at its turn, after the senders before it.
                let open = self.open_tcp.len();
                if open > 0 {
                    let start = self.pump_rotation % open;
                    self.pump_rotation = self.pump_rotation.wrapping_add(1);
                    for i in 0..open {
                        let flow = self.open_tcp[(start + i) % open];
                        if self.wakeup_pumps(flow) {
                            self.pump_tcp(now, flow);
                        }
                    }
                }
            }
            Ev::Tick => {
                if let Some(next) = self.dataplane.tick(now) {
                    self.queue.schedule(next.max(now), Ev::Tick);
                }
            }
        }
    }

    /// Whether a wake-up pumps the open sender of `flow`: a pump that is
    /// skipped here is one that would change nothing any report reads.
    ///
    /// - A paced sender is always pumped: pacing has no timer of its own,
    ///   the wake-up is its clock.
    /// - A [`PumpState::Fresh`] one is: it may have started or been given
    ///   bytes since its last pump.
    /// - An [`PumpState::Idle`] one is not: its window and data changed only
    ///   through `on_ack` and `on_timer`, which pump at once.
    /// - A [`PumpState::Refused`] one is pumped only when its class has room
    ///   now ([`Dataplane::has_room`]). Otherwise its window is as it was,
    ///   so the pump would redraw its parked segments, be refused on the
    ///   first and park them again in the same order; only the ids of
    ///   packets built later would move, and no report reads those.
    fn wakeup_pumps(&self, flow: FlowId) -> bool {
        #[cfg(test)]
        if self.pump_every_sender {
            return true;
        }
        let Some(Flow::Tcp(tcp)) = self.flows.get(flow) else {
            return false;
        };
        let Some(sender) = tcp.sender.as_deref() else {
            return false;
        };
        sender.config().pacing.is_some()
            || match tcp.pump {
                PumpState::Fresh => true,
                PumpState::Idle => false,
                PumpState::Refused => self.dataplane.has_room(sender.src(), sender.dst()),
            }
    }

    /// Offers `flow`'s sendable segments to the dataplane one at a time.
    /// The first back-pressured one and the rest of the batch stay parked
    /// in the sender's retransmit queue, unbuilt, for a later pump.
    fn pump_tcp(&mut self, now: SimTime, flow: FlowId) {
        let Some(tcp) = self.flows.tcp_mut(flow) else {
            return;
        };
        let Some(sender) = tcp.sender.as_deref_mut() else {
            return;
        };
        let dataplane = &mut self.dataplane;
        let (mut refused, mut sent) = (false, 0);
        sender.send_with(now, |pkt| {
            let outcome = dataplane.send(now, pkt);
            let accepted = outcome != SendOutcome::Backpressure;
            sent += u32::from(outcome == SendOutcome::Sent);
            refused |= !accepted;
            accepted
        });
        tcp.in_network += sent;
        if refused {
            tcp.pump = PumpState::Refused;
        } else if now >= sender.started_at() {
            tcp.pump = PumpState::Idle;
        }
        self.pumps += 1;
        self.schedule_rto(flow);
    }

    fn schedule_rto(&mut self, flow: FlowId) {
        let Some(tcp) = self.flows.tcp_mut(flow) else {
            return;
        };
        if tcp.rto_armed {
            return;
        }
        if let Some(deadline) = tcp.sender.as_ref().and_then(|s| s.rto_deadline()) {
            let at = deadline.max(self.queue.now());
            self.queue.schedule(at, Ev::RtoCheck(flow));
            tcp.rto_armed = true;
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
        debug_assert!(
            !self.flows.is_released(pkt.flow),
            "{} arrived after its record was released",
            pkt.flow
        );
        let payload = pkt.size.saturating_sub(HEADER_SIZE);
        match pkt.kind {
            PacketKind::TcpData { seq } => {
                let Some(tcp) = self.flows.tcp_mut(pkt.flow) else {
                    return;
                };
                tcp.arrived();
                let ack = tcp.receiver.on_data(now, seq);
                tcp.meter.record(now, payload);
                // ACKs that hit back-pressure are dropped; TCP recovers via
                // later cumulative ACKs.
                if self.dataplane.send(now, ack) == SendOutcome::Sent {
                    tcp.in_network += 1;
                }
                self.release_if_drained(pkt.flow);
            }
            PacketKind::TcpAck { ack, .. } => {
                let Some(tcp) = self.flows.tcp_mut(pkt.flow) else {
                    return;
                };
                tcp.arrived();
                let Some(sender) = tcp.sender.as_deref_mut() else {
                    self.release_if_drained(pkt.flow);
                    return;
                };
                let was_complete = sender.is_complete();
                sender.on_ack(now, ack);
                if !was_complete && sender.is_complete() {
                    self.pending_events.push(RuntimeEvent::TcpCompleted {
                        flow: pkt.flow,
                        at: now,
                    });
                }
                self.pump_tcp(now, pkt.flow);
            }
            PacketKind::TcpHandshake | PacketKind::TcpFin => {}
            PacketKind::Udp => {
                if let Some(Flow::Udp(_, meter)) = self.flows.get_mut(pkt.flow) {
                    meter.record(now, payload);
                }
            }
            PacketKind::IcmpEchoRequest { seq } => {
                // The destination stack answers immediately.
                let reply = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    kind: PacketKind::IcmpEchoReply { seq },
                    sent_at: now,
                    ..pkt
                };
                let _ = self.dataplane.send(now, reply);
            }
            PacketKind::IcmpEchoReply { seq } => {
                let Some(Flow::Ping(probe)) = self.flows.get_mut(pkt.flow) else {
                    return;
                };
                if let Some(rtt) = probe.on_reply(now, seq) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_transport::tcp::CongestionAlgorithm;

    /// A trivial dataplane: fixed delay, unlimited bandwidth, optional loss
    /// of every n-th packet, refused at the send (`drop_every`) or accepted
    /// and lost inside the network (`lose_every`). Lets the runtime logic be
    /// tested independently of the Kollaps emulation.
    struct FixedDelayNet {
        delay: SimDuration,
        in_flight: Vec<(SimTime, Packet)>,
        drop_every: Option<u64>,
        lose_every: Option<u64>,
        counter: u64,
    }

    impl FixedDelayNet {
        fn new(delay: SimDuration) -> Self {
            FixedDelayNet {
                delay,
                in_flight: Vec::new(),
                drop_every: None,
                lose_every: None,
                counter: 0,
            }
        }
    }

    impl Dataplane for FixedDelayNet {
        fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
            self.counter += 1;
            let nth = |n: Option<u64>| n.is_some_and(|n| self.counter.is_multiple_of(n));
            if nth(self.drop_every) && packet.is_data() {
                return SendOutcome::Dropped(DropReason::NetemLoss);
            }
            if nth(self.lose_every) && packet.is_data() {
                return SendOutcome::Sent;
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
            let Some(Flow::Udp(sender, meter)) = rt.flows.get(flow) else {
                panic!("{flow} is a UDP flow");
            };
            assert_eq!(meter.total_bytes().as_bytes(), sender.sent_bytes());
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

    /// Stopping a TCP flow removes only its sender: segments already in
    /// flight are still received, ACKed and metered, and the record lives
    /// until the last of those ACKs lands. Then it is released, and the id
    /// reads as an unknown one.
    #[test]
    fn data_in_flight_at_a_stop_is_still_received_acked_and_metered() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(400)));
        let flow = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        // Stop just before the first one-second meter window closes, so
        // only an arrival after the stop can close it.
        let _ = rt.run_until(SimTime::from_millis(990));
        assert!(rt.throughput_series(flow).unwrap().is_empty());
        let received = rt.tcp_received_bytes(flow);
        let in_flight: Vec<(SimTime, u64)> = rt
            .dataplane
            .in_flight
            .iter()
            .filter(|(_, p)| p.is_data())
            .map(|(at, p)| (*at, p.size.saturating_sub(HEADER_SIZE).as_bytes()))
            .collect();
        assert!(in_flight.iter().any(|&(at, _)| at >= SimTime::from_secs(1)));
        let sends_before = rt.dataplane.counter;

        rt.stop_tcp_flow(flow);
        assert!(rt.tcp_sender(flow).is_none());
        // The last late segment lands; its ACK is still in flight, so the
        // record is live and reads everything that arrived.
        let last = in_flight.iter().map(|&(at, _)| at).max().unwrap();
        let _ = rt.run_until(last);
        assert!(!rt.flows.is_released(flow));
        let late: u64 = in_flight.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(rt.tcp_received_bytes(flow), received + late);
        let early: u64 = in_flight
            .iter()
            .filter(|&&(at, _)| at < SimTime::from_secs(1))
            .map(|&(_, bytes)| bytes)
            .sum();
        let series = rt.throughput_series(flow).unwrap();
        assert_eq!(series.len(), 1);
        let window_bytes = DataSize::from_bytes(received + early);
        assert_eq!(
            series.mean(),
            window_bytes.rate_over(SimDuration::from_secs(1)).as_mbps()
        );
        // One ACK per late segment and nothing else: the sender is gone.
        assert_eq!(rt.dataplane.counter - sends_before, in_flight.len() as u64);
        assert!(rt.tcp_sender(flow).is_none());

        // Once the ACKs land, nothing of the flow is left in the network
        // and its record is released.
        let _ = rt.run_until(SimTime::from_secs(3));
        assert!(rt.dataplane.in_flight.is_empty());
        assert_eq!(rt.dataplane.counter - sends_before, in_flight.len() as u64);
        assert!(rt.flows.is_released(flow));
        assert!(rt.tcp_sender(flow).is_none());
        assert_eq!(rt.tcp_received_bytes(flow), 0);
        assert!(rt.throughput_series(flow).is_none());
    }

    /// Opens `clients` connection-per-request clients (a bounded transfer
    /// each; a completed one is stopped and replaced at once, as curl does)
    /// and steps in 100 ms rounds until `end`. Returns the completions
    /// and, per completed flow, the bytes it received by its completion.
    fn sequential_connections(
        rt: &mut Runtime<FixedDelayNet>,
        clients: u32,
        segments: u64,
        end: SimTime,
    ) -> Vec<(FlowId, u64)> {
        let size = TransferSize::Bytes(segments * MSS.as_bytes());
        let config = TcpSenderConfig::default();
        for c in 0..clients {
            rt.add_tcp_flow(addr(100), addr(c), size, config, SimTime::ZERO);
        }
        let mut done = Vec::new();
        while rt.now() < end {
            let step = rt.now() + SimDuration::from_millis(100);
            for event in rt.run_until(step) {
                let RuntimeEvent::TcpCompleted { flow, at } = event else {
                    continue;
                };
                done.push((flow, rt.tcp_received_bytes(flow)));
                let dst = rt.tcp_sender(flow).unwrap().dst();
                rt.stop_tcp_flow(flow);
                rt.add_tcp_flow(addr(100), dst, size, config, at);
            }
        }
        done
    }

    /// A closed connection gives its record back: sequential short
    /// connections hold as many records as run at once, not one per
    /// connection ever opened.
    #[test]
    fn sequential_short_connections_hold_records_only_while_open() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(5)));
        let done = sequential_connections(&mut rt, 4, 12, SimTime::from_secs(10));
        // One connection per client per round: a replacement starts at the
        // end of the round its predecessor completed in.
        assert_eq!(done.len(), 4 * 100);
        let bytes = 12 * MSS.as_bytes();
        assert!(done.iter().all(|&(_, received)| received == bytes));
        assert_eq!(rt.event_loop_stats().records_peak, 4);
        // Every completed connection is gone, and its id reads as unknown.
        for &(flow, _) in &done {
            assert!(rt.flows.is_released(flow), "{flow}");
            assert_eq!(rt.tcp_received_bytes(flow), 0);
        }
    }

    /// A packet lost inside the network never arrives, so a stopped flow
    /// that lost one keeps its record (and keeps answering) for good, while
    /// the lossless connections after it reuse each other's released slots
    /// and each receives exactly its own bytes.
    #[test]
    fn a_lossy_path_keeps_a_stopped_flows_record_and_misdelivers_nothing() {
        let mut net = FixedDelayNet::new(SimDuration::from_millis(5));
        net.lose_every = Some(23);
        let mut rt = Runtime::new(net);
        let bulk = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let _ = rt.run_until(SimTime::from_secs(1));
        assert!(rt.tcp_sender(bulk).unwrap().stats().retransmissions > 0);
        rt.stop_tcp_flow(bulk);
        rt.dataplane.lose_every = None;
        let done = sequential_connections(&mut rt, 3, 20, SimTime::from_secs(6));
        assert!(done.len() > 100, "{} connections", done.len());
        let bytes = 20 * MSS.as_bytes();
        assert!(done.iter().all(|&(_, received)| received == bytes));

        // The bulk flow keeps a record whose count never drains.
        assert!(!rt.flows.is_released(bulk));
        assert!(rt.tcp_received_bytes(bulk) > 0);
        assert!(rt.throughput_series(bulk).is_some());
        let Some(Flow::Tcp(tcp)) = rt.flows.get(bulk) else {
            panic!("{bulk} is a TCP flow");
        };
        assert!(tcp.in_network > 0);
        // Every short connection was released, and the released slots
        // served the later ones.
        assert!(done.iter().all(|&(flow, _)| rt.flows.is_released(flow)));
        assert_eq!(rt.event_loop_stats().records_peak, 1 + 3);
    }

    /// A meter's grid starts at the window holding its flow's first
    /// instant: a flow started at 3 s, or added at 3.5 s, has no series
    /// point at or before 3 s.
    #[test]
    fn a_late_flow_has_no_series_point_before_its_start() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(2)));
        let tcp = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::from_secs(3),
        );
        let _ = rt.run_until(SimTime::from_millis(3_500));
        let rate = Bandwidth::from_mbps(1);
        let udp = rt.add_udp_flow(addr(0), addr(2), rate, SimTime::ZERO, None);
        let _ = rt.run_until(SimTime::from_secs(6));
        for flow in [tcp, udp] {
            let series = rt.throughput_series(flow).unwrap();
            let times: Vec<u64> = series.points().iter().map(|p| p.time.as_millis()).collect();
            assert_eq!(times[..2], [4_000, 5_000], "{flow}");
            assert!(series.points().iter().all(|p| p.value > 0.0), "{flow}");
        }
    }

    /// `pumps` counts every sender pump and `instants` the distinct event
    /// times. Over a network that never back-pressures, a sender is pumped
    /// once at its start and once per ACK, never by a wake-up: two 20-segment
    /// transfers take 2 + 2 · 20 pumps.
    #[test]
    fn event_loop_stats_count_pumps_and_instants() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(10)));
        for start_ms in [0, 5] {
            rt.add_tcp_flow(
                addr(0),
                addr(1),
                TransferSize::Bytes(20 * MSS.as_bytes()),
                TcpSenderConfig::default(),
                SimTime::from_millis(start_ms),
            );
        }
        let events = rt.run_until(SimTime::from_secs(1));
        assert_eq!(events.len(), 2);
        let stats = rt.event_loop_stats();
        assert_eq!(stats.pumps, 42);
        // The tick and the first start at 0, the second start at 5 ms, and
        // eight wake-ups, one every 5 ms from 10 to 45 ms.
        assert_eq!((stats.events, stats.instants), (11, 10));
    }

    /// Fixed 1 ms delay, but only one data packet is accepted per instant:
    /// every other one is back-pressured, so the pump order alone decides
    /// which flow sends. Records the flow of every accepted data packet.
    #[derive(Default)]
    struct OneSlotNet {
        in_flight: Vec<(SimTime, Packet)>,
        last_accepted: Option<SimTime>,
        sent_data: Vec<FlowId>,
    }

    impl Dataplane for OneSlotNet {
        fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
            if packet.is_data() {
                if self.last_accepted == Some(now) {
                    return SendOutcome::Backpressure;
                }
                self.last_accepted = Some(now);
                self.sent_data.push(packet.flow);
            }
            self.in_flight
                .push((now + SimDuration::from_millis(1), packet));
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

    /// Under back-pressure the pump serves the open senders round-robin in
    /// id order with a rotating start, skips a flow that has not started
    /// yet, and never serves a stopped one. The order is pinned as it was
    /// recorded before the flow table existed.
    #[test]
    fn backpressure_pump_rotates_over_open_senders_in_id_order() {
        let mut rt = Runtime::new(OneSlotNet::default());
        let tcp = |rt: &mut Runtime<OneSlotNet>, start_ms: u64| {
            rt.add_tcp_flow(
                addr(0),
                addr(1),
                TransferSize::Unbounded,
                TcpSenderConfig::default(),
                SimTime::from_millis(start_ms),
            )
        };
        let flows: Vec<FlowId> = [0, 0, 0, 20].map(|ms| tcp(&mut rt, ms)).to_vec();
        let _ = rt.run_until(SimTime::from_millis(40));
        rt.stop_tcp_flow(flows[1]);
        let stopped_at = rt.dataplane.sent_data.len();
        let _ = rt.run_until(SimTime::from_millis(80));

        let sent = &rt.dataplane.sent_data;
        assert!(!sent[stopped_at..].contains(&flows[1]));
        let order: String = sent.iter().map(|f| f.0.to_string()).collect();
        assert_eq!(
            order,
            "112311231123112311234123412341234123412343\
             413413413413413413413413413413413413413"
        );
    }

    /// Echo replies are matched by sequence number: one that arrives after
    /// the probe was stopped, one for a sequence number never sent and a
    /// duplicate are all ignored.
    #[test]
    fn stray_ping_replies_are_ignored() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(10)));
        let probe = rt.add_ping(
            addr(0),
            addr(1),
            SimDuration::from_millis(100),
            1_000,
            SimTime::ZERO,
        );
        let reply = |seq: u32, at_ms: u64| {
            let at = SimTime::from_millis(at_ms);
            let kind = PacketKind::IcmpEchoReply { seq };
            (
                at,
                Packet::new(0, probe, addr(1), addr(0), HEADER_SIZE, kind, at),
            )
        };
        // Seq 0 is answered at 20 ms; forge a duplicate and a reply for a
        // sequence number that was never sent.
        rt.dataplane.in_flight.push(reply(0, 150));
        rt.dataplane.in_flight.push(reply(77, 160));
        let events = rt.run_until(SimTime::from_millis(305));
        let replies: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                RuntimeEvent::PingReply { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(replies, [0, 1, 2]);
        // The probe sent at 300 ms is still in flight.
        rt.stop_ping(probe);
        let events = rt.run_until(SimTime::from_secs(1));
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(rt.ping_rtts(probe).unwrap().len(), 3);
    }

    /// Flow ids are dense from 1 whatever the kind, and every accessor
    /// answers 0 or `None` for a flow of another kind or an unknown id.
    #[test]
    fn flow_ids_are_dense_across_kinds_and_accessors_check_the_kind() {
        let mut rt = Runtime::new(FixedDelayNet::new(SimDuration::from_millis(5)));
        let tcp = rt.add_tcp_flow(
            addr(0),
            addr(1),
            TransferSize::Unbounded,
            TcpSenderConfig::default(),
            SimTime::ZERO,
        );
        let udp = rt.add_udp_flow(
            addr(0),
            addr(2),
            Bandwidth::from_mbps(1),
            SimTime::ZERO,
            None,
        );
        let ping = rt.add_ping(
            addr(0),
            addr(3),
            SimDuration::from_millis(100),
            10,
            SimTime::ZERO,
        );
        let udp2 = rt.add_udp_flow(
            addr(1),
            addr(2),
            Bandwidth::from_mbps(1),
            SimTime::ZERO,
            None,
        );
        assert_eq!([tcp, udp, ping, udp2], [1, 2, 3, 4].map(FlowId));
        let _ = rt.run_until(SimTime::from_millis(2_500));

        assert!(rt.tcp_sender(tcp).is_some());
        assert!(rt.tcp_received_bytes(tcp) > 0);
        assert!(rt.udp_delivered_bytes(udp) > 0);
        assert!(rt.throughput_series(tcp).is_some());
        assert!(rt.throughput_series(udp).is_some());
        assert!(!rt.ping_rtts(ping).unwrap().is_empty());
        for other in [udp, ping, FlowId(0), FlowId(99)] {
            assert!(rt.tcp_sender(other).is_none());
            assert_eq!(rt.tcp_received_bytes(other), 0);
        }
        for other in [tcp, ping, FlowId(0), FlowId(99)] {
            assert_eq!(rt.udp_delivered_bytes(other), 0);
        }
        for other in [ping, FlowId(0), FlowId(99)] {
            assert!(rt.throughput_series(other).is_none());
        }
        for other in [tcp, udp, FlowId(0), FlowId(99)] {
            assert!(rt.ping_rtts(other).is_none());
        }
    }

    /// Bounded per-`(src, dst)` FIFO links: data packets wait in their
    /// pair's queue of at most `cap` packets (a full one back-pressures, and
    /// `has_room` says so), leave it one per `interval`, and every
    /// `loss_every`-th departure on a lossy pair is lost; what departs
    /// arrives `delay` later. ACKs bypass the queues and arrive 2 ms later.
    /// Records every accepted packet as `(instant, flow, seq, sent_at)`,
    /// an ACK with its cumulative ACK number as `seq`, so a reordering of
    /// sends within an instant shows too.
    struct BoundedNet {
        cap: usize,
        links: std::collections::BTreeMap<(Addr, Addr), BoundedLink>,
        in_flight: kollaps_sim::queue::TimedQueue<Packet>,
        accepted: Vec<(SimTime, FlowId, u64, SimTime)>,
        refused: u64,
    }

    struct BoundedLink {
        queue: std::collections::VecDeque<(SimTime, Packet)>,
        /// When the head leaves (meaningful while the queue is not empty).
        free_at: SimTime,
        interval: SimDuration,
        delay: SimDuration,
        loss_every: Option<u64>,
        departures: u64,
    }

    impl BoundedNet {
        fn new(cap: usize) -> Self {
            BoundedNet {
                cap,
                links: std::collections::BTreeMap::new(),
                in_flight: kollaps_sim::queue::TimedQueue::default(),
                accepted: Vec::new(),
                refused: 0,
            }
        }

        /// Pair-dependent link parameters on a 1 ms grid.
        fn link(src: Addr, dst: Addr) -> BoundedLink {
            let (s, d) = (src.as_u32() as u64, dst.as_u32() as u64);
            BoundedLink {
                queue: std::collections::VecDeque::new(),
                free_at: SimTime::ZERO,
                interval: SimDuration::from_millis(1 + (s + d) % 2),
                delay: SimDuration::from_millis(2 + (s * 3 + d) % 4),
                loss_every: ((s + d) % 3 == 0).then_some(9),
                departures: 0,
            }
        }
    }

    impl Dataplane for BoundedNet {
        fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
            let seq = match packet.kind {
                PacketKind::TcpData { seq } => seq,
                PacketKind::TcpAck { ack, .. } => {
                    self.accepted.push((now, packet.flow, ack, packet.sent_at));
                    self.in_flight
                        .push(now + SimDuration::from_millis(2), packet);
                    return SendOutcome::Sent;
                }
                _ => unreachable!("only TCP runs over this network"),
            };
            let cap = self.cap;
            let link = self
                .links
                .entry((packet.src, packet.dst))
                .or_insert_with(|| Self::link(packet.src, packet.dst));
            if link.queue.len() >= cap {
                self.refused += 1;
                return SendOutcome::Backpressure;
            }
            if link.queue.is_empty() {
                link.free_at = link.free_at.max(now) + link.interval;
            }
            self.accepted.push((now, packet.flow, seq, packet.sent_at));
            link.queue.push_back((now, packet));
            SendOutcome::Sent
        }

        fn has_room(&self, src: Addr, dst: Addr) -> bool {
            self.links
                .get(&(src, dst))
                .is_none_or(|link| link.queue.len() < self.cap)
        }

        fn next_wakeup(&mut self, _now: SimTime) -> Option<SimTime> {
            let departures = self.links.values().filter(|l| !l.queue.is_empty());
            departures
                .map(|l| l.free_at)
                .chain(self.in_flight.peek_time())
                .min()
        }

        fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
            for link in self.links.values_mut() {
                while link.free_at <= now {
                    let Some((_, packet)) = link.queue.pop_front() else {
                        break;
                    };
                    link.departures += 1;
                    let lost = link
                        .loss_every
                        .is_some_and(|n| link.departures.is_multiple_of(n));
                    if !lost {
                        self.in_flight.push(link.free_at + link.delay, packet);
                    }
                    if !link.queue.is_empty() {
                        link.free_at += link.interval;
                    }
                }
            }
            std::iter::from_fn(|| self.in_flight.pop_due(now)).collect()
        }
    }

    /// What one run of a pump-rule schedule leaves behind.
    #[derive(Debug, PartialEq)]
    struct PumpRun {
        accepted: Vec<(SimTime, FlowId, u64, SimTime)>,
        events: Vec<RuntimeEvent>,
        /// Per flow: the sender's `TcpStats` (delivered segments and bytes,
        /// retransmissions, fast retransmits, timeouts), received bytes and
        /// RTO deadline.
        flows: Vec<(Option<[u64; 5]>, u64, Option<SimTime>)>,
    }

    /// Adds a TCP flow from `src` to `dst` starting at `start`: Reno or
    /// Cubic, paced or not, bounded or not, with a random window cap.
    fn random_flow(
        rt: &mut Runtime<BoundedNet>,
        rng: &mut SimRng,
        src: Addr,
        dst: Addr,
        start: SimTime,
    ) -> FlowId {
        let algorithm = if rng.chance(0.5) {
            CongestionAlgorithm::Reno
        } else {
            CongestionAlgorithm::Cubic
        };
        let config = TcpSenderConfig {
            pacing: rng
                .chance(0.3)
                .then(|| Bandwidth::from_mbps(rng.gen_range(2, 30))),
            max_cwnd: [8.0, 40.0, 2_000.0][rng.gen_index(3)],
            ..TcpSenderConfig::with_algorithm(algorithm)
        };
        let size = if rng.chance(0.5) {
            TransferSize::Unbounded
        } else {
            TransferSize::Bytes(rng.gen_range(1, 300) * MSS.as_bytes())
        };
        rt.add_tcp_flow(src, dst, size, config, start)
    }

    /// Runs the seeded schedule `seed` over a [`BoundedNet`]. With
    /// `every_sender`, each wake-up pumps every open sender (the reference
    /// rule). Returns what the run left behind, its loop counters and the
    /// offers its network refused.
    fn pump_rule_run(seed: u64, every_sender: bool) -> (PumpRun, EventLoopStats, u64) {
        let mut rng = SimRng::new(seed);
        let mut rt = Runtime::new(BoundedNet::new(2 + rng.gen_index(4)));
        rt.pump_every_sender = every_sender;
        let (srcs, dsts) = ([addr(0), addr(1), addr(2)], [addr(10), addr(11)]);
        let mut flows: Vec<FlowId> = Vec::new();
        let mut events = Vec::new();
        let mut deadline = SimTime::ZERO;
        for _ in 0..160 {
            match rng.gen_range(0, 10) {
                0..=3 => {
                    let now = rt.now();
                    let (src, dst) = (srcs[rng.gen_index(3)], dsts[rng.gen_index(2)]);
                    match (rng.gen_range(0, 3), rt.wakeup_scheduled) {
                        (0, _) | (_, None) => {
                            flows.push(random_flow(&mut rt, &mut rng, src, dst, now));
                        }
                        (1, _) => {
                            let ms = now.as_millis() + rng.gen_range(1, 40);
                            let start = SimTime::from_millis(ms);
                            flows.push(random_flow(&mut rt, &mut rng, src, dst, start));
                        }
                        (_, Some(wake)) => {
                            // Exactly at the queued wake-up, which pops
                            // before the start's own pump.
                            flows.push(random_flow(&mut rt, &mut rng, src, dst, wake));
                        }
                    }
                }
                4 if !flows.is_empty() => {
                    let flow = flows[rng.gen_index(flows.len())];
                    rt.push_tcp_bytes(flow, rng.gen_range(1, 60) * MSS.as_bytes());
                }
                5 if flows.len() > 4 => {
                    rt.stop_tcp_flow(flows[rng.gen_index(flows.len())]);
                }
                _ => {}
            }
            deadline += SimDuration::from_micros(rng.gen_range(0, 25_000));
            events.extend(rt.run_until(deadline));
        }
        pump_run_outcome(rt, &flows, events)
    }

    /// A flow that starts exactly at the wake-up queued when it is added,
    /// after wake-ups have pumped it before its start: that queued wake-up
    /// pops before the start's own pump and must pump it, before the drain
    /// that follows sends an ACK.
    fn start_at_a_queued_wakeup_run(every_sender: bool) -> (PumpRun, EventLoopStats, u64) {
        let mut rt = Runtime::new(BoundedNet::new(2));
        rt.pump_every_sender = every_sender;
        let (to_10, from_2) = (addr(10), addr(2));
        let one = TransferSize::Bytes(MSS.as_bytes());
        let config = TcpSenderConfig::default();
        // One segment leaves at 1 ms and arrives at 5 ms.
        let mut flows = vec![rt.add_tcp_flow(addr(0), to_10, one, config, SimTime::ZERO)];
        let mut events = rt.run_until(SimTime::from_micros(1_500));
        let arrival = SimTime::from_millis(5);
        assert_eq!(rt.wakeup_scheduled, Some(arrival));
        // A flow starting then, and a slowly paced one starting now, whose
        // first segment arms wake-ups at 2.5 and 4.5 ms.
        let unbounded = TransferSize::Unbounded;
        flows.push(rt.add_tcp_flow(from_2, to_10, unbounded, config, arrival));
        let paced = TcpSenderConfig {
            pacing: Some(Bandwidth::from_mbps(2)),
            ..config
        };
        let now = rt.now();
        flows.push(rt.add_tcp_flow(from_2, to_10, unbounded, paced, now));
        events.extend(rt.run_until(SimTime::from_secs(1)));
        pump_run_outcome(rt, &flows, events)
    }

    /// What a pump-rule run left behind, its loop counters and the offers
    /// its network refused.
    fn pump_run_outcome(
        mut rt: Runtime<BoundedNet>,
        flows: &[FlowId],
        events: Vec<RuntimeEvent>,
    ) -> (PumpRun, EventLoopStats, u64) {
        let flows = flows
            .iter()
            .map(|&flow| {
                let sender = rt.tcp_sender(flow);
                let stats = sender.map(|s| {
                    let t = s.stats();
                    let bytes = t.delivered_bytes;
                    let losses = [t.retransmissions, t.fast_retransmits, t.timeouts];
                    [t.delivered_segments, bytes, losses[0], losses[1], losses[2]]
                });
                let deadline = sender.and_then(TcpSender::rto_deadline);
                (stats, rt.tcp_received_bytes(flow), deadline)
            })
            .collect();
        let stats = rt.event_loop_stats();
        let accepted = std::mem::take(&mut rt.dataplane.accepted);
        let run = PumpRun {
            accepted,
            events,
            flows,
        };
        (run, stats, rt.dataplane.refused)
    }

    /// The wake-up pumps only the senders that may send — fresh, paced, or
    /// refused with room now — and that must change nothing but the ids of
    /// packets built later: on seeded schedules of paced and unpaced,
    /// bounded and unbounded, Reno and Cubic flows (future starts, pushed
    /// bytes, stops, loss) over bounded queues, the accepted packets, the
    /// runtime events, the sender statistics and the RTO deadlines equal
    /// those of pumping every open sender at every wake-up.
    ///
    /// Mutation-checked: treating a flow pumped before its start as idle,
    /// or asking a paced flow's class for room, fails this test. Not
    /// re-arming a flow on `push_tcp_bytes` cannot: the `Ev::PumpTcp` the
    /// push schedules at the same instant pops before any wake-up there.
    #[test]
    fn wakeup_pumps_only_senders_that_can_send_and_change_nothing() {
        let (mut skipped, mut refused, mut completed) = (0, 0, 0);
        let mut losses = [0; 3];
        for case in (0..12).map(Some).chain([None]) {
            let run = |every_sender| match case {
                Some(seed) => pump_rule_run(seed, every_sender),
                None => start_at_a_queued_wakeup_run(every_sender),
            };
            let (reference, every, _) = run(true);
            let (production, pumped, refusals) = run(false);
            assert_eq!(production.accepted, reference.accepted, "{case:?}");
            assert_eq!(production.events, reference.events, "{case:?}");
            assert_eq!(production.flows, reference.flows, "{case:?}");
            assert_eq!(pumped.events, every.events, "{case:?}");
            skipped += every.pumps - pumped.pumps;
            refused += refusals;
            completed += production.events.len();
            for (flow, _, _) in &production.flows {
                for (total, n) in losses.iter_mut().zip(flow.iter().flat_map(|s| &s[2..])) {
                    *total += n;
                }
            }
        }
        // The schedules reached every state the rule depends on.
        assert!(skipped > 0, "no wake-up skipped a pump");
        assert!(refused > 0, "no offer was back-pressured");
        assert!(completed > 0, "no bounded transfer completed");
        let [retransmissions, fast_retransmits, timeouts] = losses;
        assert!(retransmissions > 0 && fast_retransmits > 0 && timeouts > 0);
    }
}
