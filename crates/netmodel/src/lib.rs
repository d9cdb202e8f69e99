//! # kollaps-netmodel
//!
//! Packet-level models of the dataplane pieces Kollaps drives on a real
//! Linux host, plus the switch/link primitives used by the full-state
//! baselines.
//!
//! The original system shapes traffic with Linux Traffic Control:
//!
//! * an **HTB qdisc** per destination enforces the bandwidth allocated to
//!   flows towards that destination ([`htb`]),
//! * a **netem qdisc** applies latency, jitter and packet loss ([`netem`]),
//! * a **u32 filter** organised as a two-level table on the third and
//!   fourth octet of the destination IP steers packets to the right chain,
//! * when the htb queue fills up the kernel *back-pressures* the sender
//!   (TCP Small Queues) instead of dropping, which is why Kollaps has to
//!   inject loss explicitly upon congestion.
//!
//! On the 10.1.0.0/16 container network the u32 filter's two-level table is
//! the container index (third octet × 256 + fourth octet,
//! [`Addr::container_index`]), so the egress tree indexes its chains by it
//! and there is no separate filter to model.
//!
//! This crate reproduces those behaviours in simulation:
//!
//! * [`packet`] — addresses, flows and packets.
//! * [`netem::NetemQdisc`] — delay/jitter/loss stage.
//! * [`htb::HtbQdisc`] — token-bucket shaping stage with back-pressure.
//! * [`egress::EgressTree`] — the per-container egress pipeline
//!   (destination index → htb → netem) with per-destination usage
//!   accounting, i.e. what the TCAL manipulates.
//! * [`link::LinkPipe`] — a physical link with serialization delay,
//!   propagation delay and a finite drop-tail queue, used by the
//!   ground-truth and Mininet-like per-hop emulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod egress;
pub mod htb;
pub mod link;
pub mod netem;
pub mod packet;

pub use egress::{EgressTree, EgressVerdict};
pub use htb::{HtbConfig, HtbQdisc, HtbVerdict};
pub use link::{LinkConfig, LinkPipe};
pub use netem::{NetemConfig, NetemQdisc};
pub use packet::{Addr, DropReason, FlowId, Packet, PacketKind};

/// The TCAL's u32 filter, as the egress tree realises it: a lookup by
/// container index that keeps every destination of the /16 apart.
#[cfg(test)]
mod filter {
    mod tests {
        use crate::{Addr, EgressTree, NetemConfig};
        use kollaps_sim::rng::SimRng;
        use kollaps_sim::units::Bandwidth;

        fn tree() -> EgressTree {
            EgressTree::new(Addr::container(0), SimRng::new(7))
        }

        fn rate(i: u32) -> Bandwidth {
            Bandwidth::from_kbps(64 + u64::from(i))
        }

        #[test]
        fn no_collisions_across_a_slash16() {
            // Every container in a /16 must classify to its own chain.
            let mut t = tree();
            let n = 4_096u32;
            for i in 1..=n {
                t.install_path(Addr::container(i), NetemConfig::default(), rate(i));
            }
            assert_eq!(t.chain_count(), n as usize);
            for i in 1..=n {
                assert_eq!(t.bandwidth(Addr::container(i)), Some(rate(i)));
            }
        }

        #[test]
        fn same_third_octet_different_fourth() {
            let mut t = tree();
            let a = Addr::new(10, 1, 5, 1);
            let b = Addr::new(10, 1, 5, 2);
            t.install_path(a, NetemConfig::default(), rate(1));
            t.install_path(b, NetemConfig::default(), rate(2));
            assert_eq!(t.chain_count(), 2);
            assert_eq!(t.bandwidth(a), Some(rate(1)));
            assert_eq!(t.bandwidth(b), Some(rate(2)));
            assert!(t.remove_path(a));
            assert_eq!(t.bandwidth(a), None);
            assert_eq!(t.bandwidth(b), Some(rate(2)));
        }
    }
}
