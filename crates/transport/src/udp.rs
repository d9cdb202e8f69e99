//! Constant-bit-rate UDP sender.
//!
//! UDP is insensitive to packet loss and keeps sending at the application
//! rate (paper §3, "Congestion"): the sender never reacts to drops, which is
//! exactly why Kollaps needs to inject loss for *reliable* transports only.

use kollaps_sim::time::SimTime;
use kollaps_sim::units::{Bandwidth, DataSize};

use kollaps_netmodel::packet::{Addr, FlowId, Packet, PacketKind, HEADER_SIZE, MSS};

/// A UDP sender emitting datagrams at a constant application rate.
#[derive(Debug)]
pub struct UdpSender {
    flow: FlowId,
    src: Addr,
    dst: Addr,
    rate: Bandwidth,
    payload: DataSize,
    next_send: SimTime,
    packet_counter: u64,
    sent_bytes: u64,
    stop_at: Option<SimTime>,
}

impl UdpSender {
    /// Creates a sender that emits `payload`-sized datagrams at `rate`
    /// starting at `start`.
    pub fn new(
        flow: FlowId,
        src: Addr,
        dst: Addr,
        rate: Bandwidth,
        payload: DataSize,
        start: SimTime,
    ) -> Self {
        UdpSender {
            flow,
            src,
            dst,
            rate,
            payload: payload.min(MSS),
            next_send: start,
            packet_counter: 0,
            sent_bytes: 0,
            stop_at: None,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Configured application rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Total payload bytes handed to the network so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Stops the sender at `at`; no datagrams are emitted past that time.
    pub fn stop_at(&mut self, at: SimTime) {
        self.stop_at = Some(at);
    }

    /// Changes the application sending rate.
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.rate = rate;
    }

    /// Next instant the sender wants to emit a datagram, if it is running.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        match self.stop_at {
            Some(stop) if self.next_send > stop => None,
            _ => Some(self.next_send),
        }
    }

    /// Hands every datagram scheduled at or before `now` to `emit`, in
    /// order. UDP does not retry, so `emit` has nothing to refuse.
    pub fn send_with(&mut self, now: SimTime, mut emit: impl FnMut(Packet)) {
        if self.rate.is_zero() {
            return;
        }
        let interval = self.rate.transmission_delay(self.payload);
        while self.next_send <= now {
            if let Some(stop) = self.stop_at {
                if self.next_send > stop {
                    break;
                }
            }
            self.packet_counter += 1;
            self.sent_bytes += self.payload.as_bytes();
            emit(Packet::new(
                self.packet_counter,
                self.flow,
                self.src,
                self.dst,
                self.payload + HEADER_SIZE,
                PacketKind::Udp,
                self.next_send,
            ));
            self.next_send += interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kollaps_sim::time::SimDuration;

    /// The datagrams `sender` emits up to `now`.
    fn poll(sender: &mut UdpSender, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        sender.send_with(now, |packet| out.push(packet));
        out
    }

    fn sender(rate: Bandwidth) -> UdpSender {
        UdpSender::new(
            FlowId(1),
            Addr::container(0),
            Addr::container(1),
            rate,
            MSS,
            SimTime::ZERO,
        )
    }

    #[test]
    fn emits_at_configured_rate() {
        // 11.68 Mb/s = exactly 1000 MSS payloads per second.
        let mut s = sender(Bandwidth::from_bps(11_680_000));
        let pkts = poll(&mut s, SimTime::from_secs(1));
        assert!((pkts.len() as i64 - 1_001).abs() <= 1, "got {}", pkts.len());
        assert_eq!(s.sent_bytes(), pkts.len() as u64 * MSS.as_bytes());
    }

    #[test]
    fn rate_is_insensitive_to_loss_signals() {
        // There is no loss-reaction API at all: polling twice produces the
        // same schedule regardless of what happened to earlier datagrams.
        let mut s = sender(Bandwidth::from_mbps(10));
        let first = poll(&mut s, SimTime::from_millis(100)).len();
        let second = poll(&mut s, SimTime::from_millis(200)).len();
        assert!((first as i64 - second as i64).abs() <= 1);
    }

    #[test]
    fn stop_at_halts_emission() {
        let mut s = sender(Bandwidth::from_mbps(10));
        s.stop_at(SimTime::from_millis(10));
        let pkts = poll(&mut s, SimTime::from_secs(1));
        assert!(pkts.iter().all(|p| p.sent_at <= SimTime::from_millis(10)));
        assert_eq!(s.next_wakeup(), None);
    }

    #[test]
    fn zero_rate_sends_nothing() {
        let mut s = sender(Bandwidth::ZERO);
        assert!(poll(&mut s, SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut s = sender(Bandwidth::from_mbps(1));
        let slow = poll(&mut s, SimTime::from_millis(100)).len();
        s.set_rate(Bandwidth::from_mbps(100));
        let fast = poll(&mut s, SimTime::from_millis(200)).len();
        assert!(fast > slow * 10);
    }

    #[test]
    fn wakeup_tracks_schedule() {
        let mut s = sender(Bandwidth::from_mbps(12));
        assert_eq!(s.next_wakeup(), Some(SimTime::ZERO));
        let _ = poll(&mut s, SimTime::ZERO);
        let next = s.next_wakeup().unwrap();
        assert!(next > SimTime::ZERO);
        assert!(next < SimTime::ZERO + SimDuration::from_millis(2));
    }
}
