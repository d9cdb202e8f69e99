//! The TCP and UDP hot paths allocate nothing in steady state: a
//! back-pressured TCP `send_with`, an in-order `on_data`, an `on_ack` of new
//! data and a UDP `send_with` of a run of datagrams. Counted
//! per thread by a wrapping global allocator, so the harness's own threads
//! do not show up in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kollaps_netmodel::packet::{Addr, FlowId, PacketKind, MSS};
use kollaps_sim::time::SimTime;
use kollaps_sim::units::Bandwidth;
use kollaps_transport::tcp::{TcpReceiver, TcpSender, TcpSenderConfig, TransferSize};
use kollaps_transport::UdpSender;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System` (the default
// `alloc_zeroed` and `realloc` go through `alloc`, so they are counted
// too); the counter is a const-initialised thread-local `Cell`, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

// One test in this file: the counts must not depend on what other tests
// have warmed up.
#[test]
fn steady_state_send_paths_do_not_allocate() {
    let (a, b) = (Addr::container(0), Addr::container(1));
    let mut sender = TcpSender::new(
        FlowId(1),
        a,
        b,
        TransferSize::Unbounded,
        TcpSenderConfig::default(),
        SimTime::ZERO,
    );
    // Warm-up: fill the window, then park a whole batch once so the parking
    // buffer and the retransmit queue have their capacity.
    let sent = sender.poll_send(SimTime::ZERO);
    assert_eq!(sent.len(), 10);
    sender.on_ack(SimTime::from_millis(10), 5);
    sender.send_with(SimTime::from_millis(10), |_| false);

    // A refused `send_with`: one packet is built and offered, the rest of
    // the batch is parked unbuilt.
    for t in 11..20 {
        let mut offered = 0;
        let (n, ()) = allocations(|| {
            sender.send_with(SimTime::from_millis(t), |_| {
                offered += 1;
                false
            })
        });
        assert_eq!(offered, 1, "a refused batch offers one packet");
        assert_eq!(n, 0, "a refused send_with allocated");
    }

    // An `on_ack` that acknowledges new data.
    for ack in 6..=10 {
        let (n, ()) = allocations(|| sender.on_ack(SimTime::from_millis(20 + ack), ack));
        assert_eq!(n, 0, "on_ack({ack}) allocated");
    }
    assert_eq!(sender.stats().delivered_bytes, 10 * MSS.as_bytes());

    // An in-order `on_data`, from a connection's first segment on.
    let mut receiver = TcpReceiver::new(FlowId(1), b, a);
    for seq in 0..64 {
        let (n, ack) = allocations(|| receiver.on_data(SimTime::from_millis(40 + seq), seq));
        assert_eq!(n, 0, "in-order on_data({seq}) allocated");
        assert!(matches!(ack.kind, PacketKind::TcpAck { ack, .. } if ack == seq + 1));
    }

    // A UDP `send_with` hands each datagram straight to its sink.
    let rate = Bandwidth::from_mbps(10);
    let mut udp = UdpSender::new(FlowId(2), a, b, rate, MSS, SimTime::ZERO);
    let mut emitted = 0;
    let (n, ()) = allocations(|| udp.send_with(SimTime::from_millis(100), |_| emitted += 1));
    assert!(emitted > 50, "only {emitted} datagrams");
    assert_eq!(n, 0, "a UDP send_with allocated");
}
