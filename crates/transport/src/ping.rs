//! ICMP echo probe (ping).
//!
//! The probe sends one echo request per interval and matches each reply to
//! its request by sequence number. A reply for a sequence number never sent,
//! a duplicate and a reply arriving after a stop are all ignored.

use kollaps_sim::stats::Summary;
use kollaps_sim::time::{SimDuration, SimTime};
use kollaps_sim::units::DataSize;

use kollaps_netmodel::packet::{Addr, FlowId, Packet, PacketKind, HEADER_SIZE};

/// Payload of an echo request, as sent by the default `ping`.
const ECHO_PAYLOAD: DataSize = DataSize::from_bytes(56);

/// A probe sending a fixed number of echo requests at a fixed interval.
#[derive(Debug)]
pub struct PingProbe {
    flow: FlowId,
    src: Addr,
    dst: Addr,
    interval: SimDuration,
    remaining: u64,
    /// Send instant of each request, indexed by sequence number; `None` once
    /// answered. Emptied by a stop.
    in_flight: Vec<Option<SimTime>>,
    rtts: Summary,
}

impl PingProbe {
    /// Creates a probe that sends `count` echo requests from `src` to `dst`,
    /// one every `interval`.
    pub fn new(flow: FlowId, src: Addr, dst: Addr, interval: SimDuration, count: u64) -> Self {
        PingProbe {
            flow,
            src,
            dst,
            interval,
            remaining: count,
            in_flight: Vec::new(),
            rtts: Summary::new(),
        }
    }

    /// Emits the next echo request at `now`, if any remain.
    pub fn poll_send(&mut self, now: SimTime) -> Option<Packet> {
        let seq = u32::try_from(self.in_flight.len()).ok()?;
        self.remaining = self.remaining.checked_sub(1)?;
        self.in_flight.push(Some(now));
        Some(Packet::new(
            u64::from(seq) + 1,
            self.flow,
            self.src,
            self.dst,
            HEADER_SIZE + ECHO_PAYLOAD,
            PacketKind::IcmpEchoRequest { seq },
            now,
        ))
    }

    /// When the request after one sent at `now` is due, if any remain.
    pub fn next_send(&self, now: SimTime) -> Option<SimTime> {
        (self.remaining > 0).then(|| now + self.interval)
    }

    /// Matches the echo reply `seq` arriving at `now` and records its
    /// round-trip time, or returns `None` if no request is waiting for it.
    pub fn on_reply(&mut self, now: SimTime, seq: u32) -> Option<SimDuration> {
        let sent = self.in_flight.get_mut(usize::try_from(seq).ok()?)?.take()?;
        let rtt = now - sent;
        self.rtts.record(rtt.as_millis_f64());
        Some(rtt)
    }

    /// Stops the probe: no further requests are sent and replies still in
    /// flight are ignored. The collected RTTs stay readable.
    pub fn stop(&mut self) {
        self.remaining = 0;
        self.in_flight.clear();
    }

    /// Round-trip times measured so far, in milliseconds.
    pub fn rtts(&self) -> &Summary {
        &self.rtts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_carry_dense_sequence_numbers_until_the_count_is_spent() {
        let mut probe = PingProbe::new(
            FlowId(7),
            Addr::container(0),
            Addr::container(1),
            SimDuration::from_millis(100),
            2,
        );
        let first = probe.poll_send(SimTime::ZERO).unwrap();
        assert_eq!(first.kind, PacketKind::IcmpEchoRequest { seq: 0 });
        assert_eq!((first.id, first.flow), (1, FlowId(7)));
        assert_eq!(
            probe.next_send(SimTime::ZERO),
            Some(SimTime::from_millis(100))
        );
        let second = probe.poll_send(SimTime::from_millis(100)).unwrap();
        assert_eq!(second.kind, PacketKind::IcmpEchoRequest { seq: 1 });
        assert_eq!(probe.next_send(SimTime::from_millis(100)), None);
        assert!(probe.poll_send(SimTime::from_millis(200)).is_none());
    }

    #[test]
    fn only_the_first_reply_to_a_sent_request_counts() {
        let mut probe = PingProbe::new(
            FlowId(1),
            Addr::container(0),
            Addr::container(1),
            SimDuration::from_millis(100),
            10,
        );
        let at = SimTime::from_millis;
        probe.poll_send(at(0)).unwrap();
        probe.poll_send(at(100)).unwrap();
        assert_eq!(
            probe.on_reply(at(30), 0),
            Some(SimDuration::from_millis(30))
        );
        assert_eq!(probe.on_reply(at(40), 0), None, "duplicate");
        assert_eq!(probe.on_reply(at(50), 5), None, "never sent");
        probe.stop();
        assert_eq!(probe.on_reply(at(130), 1), None, "stopped");
        assert!(probe.poll_send(at(200)).is_none());
        assert_eq!(probe.rtts().len(), 1);
    }
}
