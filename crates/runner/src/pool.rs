//! A scoped worker pool with deterministic result collection.
//!
//! Jobs are pulled from a shared queue by `workers` threads and may
//! finish in any order; results are written into a slot indexed by the
//! job's position in the input, so the returned `Vec` always matches the
//! input order. Combined with per-job seeding (every umtslab experiment
//! builds its own testbed from its own seed) this makes parallel runs
//! reproduce serial runs byte for byte.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A sensible worker count for this machine: the available parallelism,
/// capped at `jobs` (no point spawning idle threads).
pub fn default_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    hw.min(jobs).max(1)
}

/// Runs `f` over every job on a pool of `workers` threads and returns the
/// results in input order.
///
/// `f` is called as `f(index, &job)`. Worker threads pull jobs from a
/// shared FIFO queue, so long jobs don't serialize behind short ones; a
/// panic in any job propagates to the caller once the scope joins.
///
/// With `workers == 1` the pool degenerates to an in-order serial loop on
/// one spawned thread — handy for A/B-ing parallel against serial runs.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((idx, job)) = queue.lock().expect("queue poisoned").pop_front() else {
                    return;
                };
                let out = f(idx, &job);
                results.lock().expect("results poisoned")[idx] = Some(out);
            });
        }
    });

    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// Runs `f` over every job **in place** on a pool of `workers` threads,
/// the caller's thread being one of them.
///
/// Like [`run_jobs`] but borrows the jobs mutably instead of consuming
/// them — the shape the sharded testbed needs, where the same shards are
/// driven window after window and must survive between calls. `f` is
/// called as `f(index, &mut job)`; each job is visited exactly once per
/// call, by exactly one thread.
///
/// The call spawns `workers - 1` scoped threads and then pulls from the
/// same queue itself, so a window on two workers costs one spawn and
/// one join, and more jobs than workers (8 shards on 2 workers) still
/// balance. A panic in any job — on a spawned thread or on the caller's
/// — propagates to the caller once every thread has joined. With
/// `workers == 1` nothing is spawned: the jobs run as a plain in-order
/// loop on the caller's thread, with no synchronization at all.
pub fn run_jobs_mut<J, F>(jobs: &mut [J], workers: usize, f: F)
where
    J: Send,
    F: Fn(usize, &mut J) + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return;
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        for (idx, job) in jobs.iter_mut().enumerate() {
            f(idx, job);
        }
        return;
    }
    let queue: Mutex<VecDeque<(usize, &mut J)>> = Mutex::new(jobs.iter_mut().enumerate().collect());
    let work = || loop {
        let Some((idx, job)) = queue.lock().expect("queue poisoned").pop_front() else {
            return;
        };
        f(idx, job);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_input_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_jobs(jobs.clone(), workers, |_, j| j * j);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let got = run_jobs((0..100).collect::<Vec<_>>(), 7, |idx, j| {
            count.fetch_add(1, Ordering::SeqCst);
            assert_eq!(idx as i32, *j);
            idx
        });
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let got: Vec<u8> = run_jobs(Vec::<u8>::new(), 4, |_, j| *j);
        assert!(got.is_empty());
        let got = run_jobs(vec![9u8], 16, |_, j| *j);
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn run_jobs_mut_visits_every_job_once_in_place() {
        for workers in [1, 2, 5, 32] {
            let mut jobs: Vec<u64> = (0..23).collect();
            let calls = AtomicUsize::new(0);
            run_jobs_mut(&mut jobs, workers, |idx, j| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(idx as u64, *j);
                *j *= *j;
            });
            assert_eq!(calls.load(Ordering::SeqCst), 23, "workers={workers}");
            let expected: Vec<u64> = (0..23).map(|j| j * j).collect();
            assert_eq!(jobs, expected, "workers={workers}");
        }
        let mut empty: Vec<u8> = Vec::new();
        run_jobs_mut(&mut empty, 4, |_, _| unreachable!());
    }

    #[test]
    fn run_jobs_mut_handles_uneven_job_counts() {
        for (n, workers) in [(5, 2), (5, 3), (2, 2)] {
            let mut jobs: Vec<(u64, u32)> = (0..n).map(|j| (j, 0)).collect();
            run_jobs_mut(&mut jobs, workers, |idx, (j, visits)| {
                assert_eq!(idx as u64, *j);
                *j += 100;
                *visits += 1;
            });
            let expected: Vec<(u64, u32)> = (0..n).map(|j| (j + 100, 1)).collect();
            assert_eq!(jobs, expected, "n={n} workers={workers}");
        }
    }

    /// Runs two jobs on two workers, each thread holding one job (the
    /// barrier keeps either from taking both), and panics in the job on
    /// the caller's thread or in the one on the spawned thread.
    fn panic_in_share(on_caller: bool) -> std::thread::Result<()> {
        let caller = std::thread::current().id();
        let both_taken = std::sync::Barrier::new(2);
        let mut jobs = [0u8, 1];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs_mut(&mut jobs, 2, |_, _| {
                both_taken.wait();
                if (std::thread::current().id() == caller) == on_caller {
                    panic!("job failed");
                }
            });
        }))
    }

    #[test]
    fn run_jobs_mut_propagates_a_panic_from_either_share() {
        let caller = panic_in_share(true).expect_err("the caller's panic was swallowed");
        assert_eq!(caller.downcast_ref::<&str>(), Some(&"job failed"));
        assert!(panic_in_share(false).is_err(), "the spawned worker's panic was swallowed");
    }

    #[test]
    fn default_workers_is_bounded() {
        assert_eq!(default_workers(0), 1);
        assert!(default_workers(3) <= 3);
        assert!(default_workers(1000) >= 1);
    }
}
