//! # kollaps-transport
//!
//! Packet-level transport protocol models used by the workloads that run on
//! top of the emulated network.
//!
//! The Kollaps evaluation exercises TCP Reno and TCP Cubic (long- and
//! short-lived flows, §5.3) and UDP (metadata and constant-bit-rate
//! traffic). These are modelled at packet granularity:
//!
//! * [`rtt`] — RFC 6298-style smoothed RTT estimation and RTO computation.
//! * [`tcp`] — a sender/receiver pair with slow start, congestion avoidance,
//!   fast retransmit/recovery and the Reno or Cubic window growth laws;
//!   senders react to loss injected by the emulation exactly like a real
//!   stack would, which is what makes Kollaps' congestion model work.
//! * [`udp`] — a constant-bit-rate sender that ignores loss.
//! * [`ping`] — an ICMP echo probe that matches replies to requests by
//!   sequence number.
//!
//! The transport endpoints are passive state machines: an experiment runtime
//! (see `kollaps-core::runtime`) moves packets between them and the
//! dataplane and drives timeouts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ping;
pub mod rtt;
pub mod tcp;
pub mod udp;

pub use ping::PingProbe;
pub use rtt::RttEstimator;
pub use tcp::{CongestionAlgorithm, TcpReceiver, TcpSender, TcpSenderConfig};
pub use udp::UdpSender;
