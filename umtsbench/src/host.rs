//! How fast the host runs right now.
//!
//! The VM this benchmark was tuned on shares its cores with other
//! machines' work. The same iteration ran 1.2 s at one moment and 1.9 s
//! a few seconds later, and the host's speed drifted by half again over
//! twenty minutes, with nothing else running in the VM and CPU time
//! tracking wall time. A median over one run cannot remove a drift that
//! outlasts the run. So every iteration times fixed reference
//! computations between its operations, and its times are scaled by how
//! much slower than nominal the references ran meanwhile.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Seconds [`reference_s`] takes at the nominal speed: its median over
/// the tuning runs on that 2-core VM.
pub const NOMINAL_S: f64 = 0.00385;

/// Seconds [`parallel_reference_s`] takes at the nominal speed, measured
/// the same way.
pub const PARALLEL_NOMINAL_S: f64 = 0.0100;

/// Runs a fixed computation shaped like a simulator's inner loop (a
/// priority queue of timestamps and an ordered map, about 4 ms) and
/// returns the wall seconds it took.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(4_096);
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..12_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 4_000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
        map.insert(x % 16_384, i);
        if let Some((_, v)) = map.range(x % 12_000..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Runs 100 rounds of two scoped threads with a few microseconds of
/// work each, the shape of a fleet window on the two-worker pool (about
/// 10 ms), and returns the wall seconds it took. Spawning and joining
/// threads on the second core drifts differently from single-threaded
/// work, so the fleet's measured phase is scaled by this instead.
pub fn parallel_reference_s() -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for round in 0..100u64 {
        acc = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..2u64)
                .map(|lane| {
                    s.spawn(move || {
                        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ (round * 2 + lane);
                        let mut sum = 0u64;
                        for _ in 0..2_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            sum = sum.wrapping_add(x % 1_000);
                        }
                        sum
                    })
                })
                .collect();
            lanes.into_iter().fold(acc, |a, h| a.wrapping_add(h.join().expect("no panic")))
        });
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_references_take_milliseconds() {
        // Generous: the point is that they neither vanish nor dominate.
        for s in [reference_s(), parallel_reference_s()] {
            assert!(s > 1e-5 && s < 1.0, "{s} s");
        }
    }
}
