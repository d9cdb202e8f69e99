//! The egress drain allocates nothing in steady state: a
//! `EgressTree::dequeue_ready_with` poll that moves packets through the htb
//! class, into netem and out to the sink reuses what the first polls
//! allocated. Counted per thread by a wrapping global allocator, so the
//! harness's own threads do not show up in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kollaps_netmodel::egress::{EgressTree, EgressVerdict};
use kollaps_netmodel::netem::NetemConfig;
use kollaps_netmodel::packet::{Addr, FlowId, Packet, PacketKind, MTU};
use kollaps_sim::rng::SimRng;
use kollaps_sim::time::{SimDuration, SimTime};
use kollaps_sim::units::Bandwidth;

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
fn a_steady_state_egress_drain_does_not_allocate() {
    let owner = Addr::container(0);
    let mut tree = EgressTree::new(owner, SimRng::new(3));
    // Two destinations with different delays, shaped tightly enough that
    // a burst's tail waits in the htb class before netem holds it.
    let dsts = [Addr::container(1), Addr::container(2)];
    for (i, &dst) in dsts.iter().enumerate() {
        let delay = SimDuration::from_millis(5 + 4 * i as u64);
        tree.install_path(dst, NetemConfig::with_delay(delay), Bandwidth::from_mbps(2));
    }
    let mut next_id = 0;
    // Every 32 ms a burst of four packets per destination (1.5 Mb/s
    // offered): the 3,000-byte bucket passes two at once, and the other two
    // wait 6 and 12 ms for tokens, leaving the class at later polls.
    let mut round = |tree: &mut EgressTree, ms: u64| {
        let now = SimTime::from_millis(ms);
        for &dst in dsts.iter().filter(|_| ms.is_multiple_of(32)) {
            for _ in 0..4 {
                next_id += 1;
                let kind = PacketKind::Udp;
                let packet = Packet::new(next_id, FlowId(1), owner, dst, MTU, kind, now);
                assert_eq!(tree.enqueue(now, packet), EgressVerdict::Queued);
            }
        }
        let mut released = 0;
        let (n, ()) = allocations(|| tree.dequeue_ready_with(now, |_| released += 1));
        (n, released)
    };
    // Warm-up: the htb queues, netem's heaps and the usage list grow to
    // their steady-state sizes.
    for ms in 0..256 {
        let _ = round(&mut tree, ms);
        tree.clear_usage();
    }
    let (mut released, mut held_back) = (0, 0);
    for ms in 256..1_056 {
        let (n, got) = round(&mut tree, ms);
        assert_eq!(n, 0, "the poll at {ms} ms allocated");
        released += got;
        // Later than the longer delay line alone: the shaper held these.
        if ms % 32 > 9 {
            held_back += got;
        }
        if ms.is_multiple_of(50) {
            tree.clear_usage();
        }
    }
    // 25 bursts of 8 packets went in, and all came out.
    assert_eq!(released, 200);
    assert!(held_back > 0, "the shaper never held a packet back");
}
