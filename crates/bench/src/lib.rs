//! A small self-contained timing harness for the workspace's benches.
//!
//! The build environment is offline, so instead of an external bench
//! framework the two bench targets (`benches/figures.rs`,
//! `benches/sim_core.rs`, both `harness = false`) are plain binaries
//! built on [`bench_named`]: warm up once, time `iters` runs of the
//! closure on the host clock, and report mean/min/max. That is enough
//! for the regression signal the benches exist to give; absolute
//! rigor (outlier rejection, statistical tests) is out of scope.
//!
//! ```
//! use umtslab_bench::bench_named;
//!
//! let t = bench_named("square", 8, || std::hint::black_box(21u64 * 21));
//! assert_eq!(t.iters, 8);
//! assert!(t.min_ns <= t.mean_ns() && t.mean_ns() <= t.max_ns);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

use std::time::Instant;

/// The timing result of one benchmark.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name.
    pub name: String,
    /// Measured iterations (excluding the warm-up run).
    pub iters: u32,
    /// Total measured time, nanoseconds.
    pub total_ns: u128,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u128,
}

impl Timing {
    /// Mean time per iteration, nanoseconds.
    pub fn mean_ns(&self) -> u128 {
        self.total_ns / u128::from(self.iters.max(1))
    }
}

impl core::fmt::Display for Timing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:<36} mean {:>12} min {:>12} max {:>12} ({} iters)",
            self.name,
            human_ns(self.mean_ns()),
            human_ns(self.min_ns),
            human_ns(self.max_ns),
            self.iters
        )
    }
}

/// Formats a nanosecond count with an adaptive unit.
pub fn human_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Runs `f` once to warm up, then `iters` timed times, and returns the
/// aggregate [`Timing`]. The closure's result is passed through
/// [`std::hint::black_box`] so the optimizer cannot elide the work.
pub fn bench_named<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> Timing {
    std::hint::black_box(f()); // warm-up, untimed
    let mut total = 0u128;
    let mut min = u128::MAX;
    let mut max = 0u128;
    for _ in 0..iters.max(1) {
        let started = Instant::now();
        std::hint::black_box(f());
        let ns = started.elapsed().as_nanos();
        total += ns;
        min = min.min(ns);
        max = max.max(ns);
    }
    Timing {
        name: name.to_string(),
        iters: iters.max(1),
        total_ns: total,
        min_ns: min,
        max_ns: max,
    }
}

/// Runs and immediately prints a benchmark (the usual pattern in the
/// bench mains).
pub fn run_bench<R>(name: &str, iters: u32, f: impl FnMut() -> R) -> Timing {
    let t = bench_named(name, iters, f);
    println!("{t}");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_invariants() {
        let t = bench_named("noop", 16, || 0u8);
        assert_eq!(t.iters, 16);
        assert!(t.min_ns <= t.max_ns);
        assert!(t.min_ns <= t.mean_ns() && t.mean_ns() <= t.max_ns);
    }

    #[test]
    fn zero_iters_clamps_to_one() {
        let t = bench_named("noop", 0, || ());
        assert_eq!(t.iters, 1);
    }

    #[test]
    fn human_ns_units() {
        assert_eq!(human_ns(12), "12 ns");
        assert_eq!(human_ns(1_500), "1.500 us");
        assert_eq!(human_ns(2_500_000), "2.500 ms");
        assert_eq!(human_ns(3_200_000_000), "3.200 s");
    }
}
