//! A counting global allocator: live bytes, peak live bytes, allocation
//! count and allocated bytes. For a deterministic run they repeat to about
//! 0.01% (hash tables rehash depending on their random state).
//!
//! The benchmark binary (and the self-test binary) install [`Counting`] as
//! their `#[global_allocator]`; the library only reads the counters. The
//! cost — four relaxed atomic updates per allocation on one thread — is the
//! same on every commit, so it cancels in comparisons.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed throughout: the counters are statistics and publish no other data.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; forwards to [`System`].
pub struct Counting;

fn on_alloc(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters never
// influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller, who guarantees it is valid.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator (hence by `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and that `new_size` is valid for its alignment.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (including reallocations) so far.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Reads the counters. All zero unless [`Counting`] is the global allocator.
pub fn stats() -> HeapStats {
    HeapStats {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size and returns the
/// reading at that instant.
pub fn reset_peak() -> HeapStats {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    stats()
}
