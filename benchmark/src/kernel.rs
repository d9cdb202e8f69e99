//! The time base: a fixed reference kernel and calibrated seconds.
//!
//! Host wall time on a shared sandbox drifts by tens of percent, between
//! sets of runs and within a single run. So the kernel is cut into chunks
//! of about 20 ms, one chunk is run before, between and after the slices of
//! every timed repetition, and the repetition's wall seconds are rescaled
//! to *calibrated seconds*: what it would have taken on a host that runs a
//! chunk in exactly [`CHUNK_REF_S`]. The median chunk is used, so a
//! scheduling hiccup inside one chunk cannot swing the calibration. The
//! kernel mixes the structures the emulator itself leans on (binary heap,
//! ordered map, hash map, sort) so that the host's slowdown on the kernel
//! tracks its slowdown on the workloads.
//!
//! The kernel never changes without re-baselining: every calibrated number
//! ever recorded is relative to it.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// A chunk's nominal duration: calibrated seconds are wall seconds times
/// `CHUNK_REF_S / (median chunk seconds sampled during the repetition)`.
pub const CHUNK_REF_S: f64 = 0.025;

/// Operations per chunk: 16-21 ms on the sandbox the benchmark was defined
/// on, which therefore reads a little faster than the reference.
const CHUNK_OPS: usize = 115_000;

/// Xorshift64*: the benchmark's own seeded stream (kernel and input
/// generation), independent of any generator the program under test ships.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A stream for `seed` (any value; zero is remapped).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 step so that small consecutive seeds start far apart.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform index in `0..len` (`len > 0`).
    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// The reference kernel's working state, kept warm across chunks.
pub struct Kernel {
    rng: XorShift,
    heap: BinaryHeap<(u64, u32)>,
    ordered: BTreeMap<u32, u64>,
    hashed: HashMap<u32, u64>,
    scratch: Vec<u64>,
    acc: u64,
}

impl Kernel {
    /// A kernel with its structures filled to their steady-state size.
    pub fn new() -> Self {
        let mut kernel = Kernel {
            rng: XorShift::new(0x4B4F_4C4C_4150_5321),
            heap: BinaryHeap::new(),
            ordered: BTreeMap::new(),
            hashed: HashMap::new(),
            scratch: Vec::with_capacity(64),
            acc: 0,
        };
        kernel.chunk();
        kernel
    }

    /// Runs one chunk of the kernel and returns its wall seconds.
    pub fn chunk(&mut self) -> f64 {
        let started = Instant::now();
        for i in 0..CHUNK_OPS {
            let x = self.rng.next_u64();
            let key = (x >> 40) as u32 & 0x3FFF;
            self.heap.push((x, key));
            if self.heap.len() > 4_096 {
                if let Some((v, k)) = self.heap.pop() {
                    self.acc = self.acc.wrapping_add(v ^ u64::from(k));
                }
            }
            *self.ordered.entry(key).or_insert(0) += x & 0xFF;
            *self.hashed.entry(key ^ 0x155).or_insert(0) += 1;
            self.scratch.push(x);
            if self.scratch.len() == 64 {
                self.scratch.sort_unstable();
                self.acc = self.acc.wrapping_add(self.scratch[i & 63]);
                self.scratch.clear();
            }
        }
        black_box(self.acc);
        started.elapsed().as_secs_f64()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

/// Rescales `wall_s` by the kernel chunks sampled alongside it.
pub fn calibrated_seconds(wall_s: f64, chunk_s: f64) -> f64 {
    wall_s * CHUNK_REF_S / chunk_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_a_ratio_against_the_reference() {
        // A host exactly at reference speed leaves wall time untouched.
        assert_eq!(calibrated_seconds(2.0, CHUNK_REF_S), 2.0);
        // A host twice as slow (chunks take twice as long) halves the figure.
        assert!((calibrated_seconds(2.0, 2.0 * CHUNK_REF_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let first4 = |seed| {
            let mut rng = XorShift::new(seed);
            [(); 4].map(|()| rng.next_u64())
        };
        assert_eq!(first4(7), first4(7));
        assert_ne!(first4(7), first4(8));
    }
}
