//! `Probe<D>`: a dataplane decorator that times and counts every
//! [`Dataplane`] trait call from the outside.
//!
//! The runtime's event loop calls into the dataplane through exactly four
//! methods, so wrapping them splits a run's wall time into four lanes plus
//! a residual — the event loop and the transport endpoints, reported as
//! `runtime.self_us`. The probe never alters arguments or results, so a
//! probed run delivers the same packets at the same virtual times as a
//! bare one.

use std::time::Instant;

use kollaps_core::{Dataplane, SendOutcome};
use kollaps_netmodel::packet::Packet;
use kollaps_sim::time::SimTime;

/// Accumulated time and counts of the four lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lanes {
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// `send` calls.
    pub send_calls: u64,
    /// `send` calls answered `Backpressure`.
    pub send_backpressure: u64,
    /// `send` calls answered `Dropped`.
    pub send_dropped: u64,
    /// Nanoseconds inside `next_wakeup`.
    pub next_wakeup_ns: u64,
    /// `next_wakeup` calls.
    pub next_wakeup_calls: u64,
    /// Nanoseconds inside `deliver`.
    pub deliver_ns: u64,
    /// `deliver` calls.
    pub deliver_calls: u64,
    /// `deliver` calls that returned no packet.
    pub deliver_empty: u64,
    /// Packets returned by `deliver` (data and control).
    pub deliver_packets: u64,
    /// Of those, packets carrying payload (TCP data or UDP).
    pub deliver_data_packets: u64,
    /// Nanoseconds inside `tick`.
    pub tick_ns: u64,
    /// `tick` calls.
    pub tick_calls: u64,
}

impl Lanes {
    /// Nanoseconds in all four lanes.
    pub fn total_ns(&self) -> u64 {
        self.send_ns + self.next_wakeup_ns + self.deliver_ns + self.tick_ns
    }
}

/// One row per emulation tick: what each lane cost since the previous tick,
/// so cost growing over virtual time is visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickRow {
    /// Virtual time of the tick, milliseconds.
    pub sim_ms: u64,
    /// Host microseconds since the previous tick, per lane.
    pub send_us: f64,
    /// See `send_us`.
    pub next_wakeup_us: f64,
    /// See `send_us`.
    pub deliver_us: f64,
    /// The tick itself.
    pub tick_us: f64,
    /// Wall time since the previous tick not inside any lane.
    pub runtime_self_us: f64,
    /// Packets delivered since the previous tick.
    pub packets: u64,
}

/// The decorator. `inner` stays reachable for the public accessors of the
/// wrapped dataplane.
pub struct Probe<D> {
    /// The wrapped dataplane.
    pub inner: D,
    lanes: Lanes,
    rows: Vec<TickRow>,
    at_last_tick: Lanes,
    last_tick_end: Instant,
}

impl<D> Probe<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        Probe {
            inner,
            lanes: Lanes::default(),
            rows: Vec::new(),
            at_last_tick: Lanes::default(),
            last_tick_end: Instant::now(),
        }
    }

    /// The lane totals so far.
    pub fn lanes(&self) -> Lanes {
        self.lanes
    }

    /// The per-tick rows so far.
    pub fn rows(&self) -> &[TickRow] {
        &self.rows
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl<D: Dataplane> Dataplane for Probe<D> {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        let started = Instant::now();
        let outcome = self.inner.send(now, packet);
        self.lanes.send_ns += ns(started);
        self.lanes.send_calls += 1;
        match outcome {
            SendOutcome::Sent => {}
            SendOutcome::Backpressure => self.lanes.send_backpressure += 1,
            SendOutcome::Dropped(_) => self.lanes.send_dropped += 1,
        }
        outcome
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        let started = Instant::now();
        let wakeup = self.inner.next_wakeup(now);
        self.lanes.next_wakeup_ns += ns(started);
        self.lanes.next_wakeup_calls += 1;
        wakeup
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        let started = Instant::now();
        let packets = self.inner.deliver(now);
        self.lanes.deliver_ns += ns(started);
        self.lanes.deliver_calls += 1;
        if packets.is_empty() {
            self.lanes.deliver_empty += 1;
        }
        self.lanes.deliver_packets += packets.len() as u64;
        self.lanes.deliver_data_packets += packets.iter().filter(|p| p.is_data()).count() as u64;
        packets
    }

    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        let started = Instant::now();
        let next = self.inner.tick(now);
        let tick_ns = ns(started);
        self.lanes.tick_ns += tick_ns;
        self.lanes.tick_calls += 1;

        let since = self.lanes;
        let before = self.at_last_tick;
        let wall_ns = self.last_tick_end.elapsed().as_nanos() as u64;
        let us = |a: u64, b: u64| (a - b) as f64 / 1e3;
        self.rows.push(TickRow {
            sim_ms: now.as_millis(),
            send_us: us(since.send_ns, before.send_ns),
            next_wakeup_us: us(since.next_wakeup_ns, before.next_wakeup_ns),
            deliver_us: us(since.deliver_ns, before.deliver_ns),
            tick_us: tick_ns as f64 / 1e3,
            runtime_self_us: wall_ns.saturating_sub(since.total_ns() - before.total_ns()) as f64
                / 1e3,
            packets: since.deliver_packets - before.deliver_packets,
        });
        self.at_last_tick = since;
        self.last_tick_end = Instant::now();
        next
    }
}
