//! Conservative time-windowed driving of sharded event loops.
//!
//! A sharded simulation splits one coupled topology across N independent
//! [`crate::sched::Scheduler`]s. Each shard runs its own event loop; the
//! only coupling between shards is message handoff with a minimum latency
//! of `lookahead`. Under that guarantee the classic conservative
//! synchronization scheme applies: advance every shard through a fixed
//! time window of width `lookahead`, exchange the messages produced, and
//! repeat. A message generated inside window `k` can — by the latency
//! bound — only be due in window `k+1` or later, so exchanging at the
//! boundary never delivers late.
//!
//! The driving logic is deliberately split from the shard state:
//!
//! * [`ShardScheduler`] is what a shard must expose — a clock, the
//!   instant of its next pending work and a "run until" primitive. A
//!   plain single-scheduler simulation is the degenerate case (one
//!   shard, nothing to exchange).
//! * [`drive`] owns the window loop. The caller supplies *how* to run the
//!   shards over one window (serially, or fanned out over a worker pool)
//!   and *how* to exchange messages at each boundary; the loop itself is
//!   identical either way, which is what makes shard counts and worker
//!   counts invisible in the results.
//! * [`window_ends`] enumerates the grid boundaries: fixed multiples of
//!   the lookahead from the origin, independent of where the run starts,
//!   so a run split into phases crosses the same boundaries as an
//!   unsplit one.
//!
//! ## Idle windows are skipped
//!
//! Before each window, [`drive`] asks every shard for
//! [`ShardScheduler::next_due`] and takes the minimum. It then runs only
//! the grid window containing that instant (or the window it is already
//! in, if the instant has passed), merged with the idle windows before
//! it; when nothing is due before the horizon, one final window runs to
//! the horizon. This is byte-identical to running every grid window:
//!
//! * a skipped window has no event and no staged handoff in any shard,
//!   so it would have dispatched nothing, injected nothing and staged
//!   nothing for the exchange;
//! * every window that runs ends on its grid boundary, so injection
//!   instants and the exchange points of everything that happens are
//!   unchanged, and the scheduling order (the FIFO tie-break) is too;
//! * the global minimum is a property of the whole simulation, not of
//!   the partition, so the set of windows that run — and their count —
//!   is the same at every shard count.

use crate::time::{Duration, Instant};

/// Identifies one shard within a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

/// The event-loop surface a shard exposes to the window driver.
///
/// Implementors own a scheduler (clock + pending events) and any state the
/// events touch. The contract mirrors
/// [`crate::sched::Scheduler::next_before`]: after `run_window(h)` every
/// event strictly before `h` has been dispatched and the clock sits
/// exactly on `h`.
pub trait ShardScheduler {
    /// The shard's current simulated time.
    fn now(&self) -> Instant;

    /// The earliest instant at which this shard has work: its next
    /// pending event or staged inbound message, whichever comes first.
    /// `None` when it has neither.
    ///
    /// [`drive`] skips every window before the minimum over all shards,
    /// so this must cover everything `run_window` would do: a shard
    /// whose `run_window(h)` can act on something this does not report
    /// as due before `h` breaks the skip.
    fn next_due(&mut self) -> Option<Instant>;

    /// Dispatches every pending event strictly before `horizon` and
    /// advances the clock to `horizon`.
    fn run_window(&mut self, horizon: Instant);
}

/// The window boundaries a run from `from` to `horizon` crosses, ending
/// with `horizon` itself.
///
/// Boundaries sit on fixed multiples of `lookahead` counted from
/// [`Instant::ZERO`] — *not* from `from` — so a simulation executed as
/// several consecutive `drive` calls crosses exactly the boundaries an
/// uninterrupted run would, and results cannot depend on how the caller
/// phased the run.
pub fn window_ends(
    from: Instant,
    horizon: Instant,
    lookahead: Duration,
) -> impl Iterator<Item = Instant> {
    assert!(lookahead > Duration::ZERO, "lookahead must be positive");
    let step = lookahead.total_micros();
    let mut at = from;
    std::iter::from_fn(move || {
        if at >= horizon {
            return None;
        }
        // The next multiple of `step` strictly after `at`, capped at the
        // horizon (the final window may be truncated).
        let next = Instant::from_micros((at.total_micros() / step + 1) * step).min(horizon);
        at = next;
        Some(next)
    })
}

/// Drives `shards` from `from` to `horizon` in conservative windows of
/// width `lookahead`, skipping windows in which no shard has anything due
/// (see the module docs), and returns the number of windows run.
///
/// For every window the driver calls `run(shards, end)` — which must
/// advance each shard to `end`, in any order or in parallel — and then
/// `sync(shards, end)`, which exchanges the messages produced during the
/// window. `sync` runs on the caller's thread with all shards at the same
/// instant, so it may freely move data between them.
pub fn drive<S: ShardScheduler>(
    shards: &mut [S],
    from: Instant,
    horizon: Instant,
    lookahead: Duration,
    mut run: impl FnMut(&mut [S], Instant),
    mut sync: impl FnMut(&mut [S], Instant),
) -> u64 {
    let mut at = from;
    let mut windows = 0;
    while at < horizon {
        // The grid window containing the first due instant (or the
        // current one, if that instant has already passed); none due
        // before the horizon leaves one final window to the horizon.
        let due = shards.iter_mut().filter_map(S::next_due).min().map_or(horizon, |d| d.max(at));
        let end = window_ends(due, horizon, lookahead).next().unwrap_or(horizon);
        run(shards, end);
        debug_assert!(shards.iter().all(|s| s.now() == end), "a shard missed the window barrier");
        sync(shards, end);
        at = end;
        windows += 1;
    }
    windows
}

/// [`drive`] with the serial window runner: shards advance one after the
/// other. The parallel path (a worker pool fanning `run_window` out per
/// window) must produce byte-identical results to this.
pub fn drive_serial<S: ShardScheduler>(
    shards: &mut [S],
    from: Instant,
    horizon: Instant,
    lookahead: Duration,
    sync: impl FnMut(&mut [S], Instant),
) -> u64 {
    drive(
        shards,
        from,
        horizon,
        lookahead,
        |shards, end| {
            for s in shards.iter_mut() {
                s.run_window(end);
            }
        },
        sync,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::sched::Scheduler;

    /// A toy shard: fires timers and logs (time, tag) pairs. With a
    /// follow-up rule installed, each fired tag may spawn one more local
    /// timer or one message to another shard (see `follow_up`).
    struct Toy {
        sched: Scheduler<u32>,
        log: Vec<(Instant, u32)>,
        inbox: Vec<(Instant, u32)>,
        /// `(destination shard, due, tag)` staged during a window.
        outbox: Vec<(usize, Instant, u32)>,
        /// Drives follow-ups; `None` keeps the toy passive.
        rng: Option<SimRng>,
        shards: usize,
        lookahead: Duration,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                sched: Scheduler::new(),
                log: Vec::new(),
                inbox: Vec::new(),
                outbox: Vec::new(),
                rng: None,
                shards: 1,
                lookahead: Duration::from_millis(1),
            }
        }

        /// A tag's low byte is its remaining hop budget; a fired tag with
        /// budget left spawns a local timer, a message to a random shard
        /// (due at least one lookahead later), or nothing.
        fn follow_up(&mut self, now: Instant, tag: u32) {
            let Some(rng) = self.rng.as_mut() else { return };
            if tag & 0xff == 0 {
                return;
            }
            let next = tag - 1;
            let jitter = Duration::from_micros(rng.uniform_u64(0, 40_000));
            match rng.uniform_u64(0, 2) {
                0 => {
                    self.sched.at(now + jitter, next);
                }
                1 => {
                    let dst = rng.uniform_u64(0, self.shards as u64 - 1) as usize;
                    self.outbox.push((dst, now + self.lookahead + jitter, next));
                }
                _ => {}
            }
        }
    }

    impl ShardScheduler for Toy {
        fn now(&self) -> Instant {
            self.sched.now()
        }

        fn next_due(&mut self) -> Option<Instant> {
            let staged = self.inbox.iter().map(|&(at, _)| at).min();
            self.sched.peek_time().into_iter().chain(staged).min()
        }

        fn run_window(&mut self, horizon: Instant) {
            let (mut due, later): (Vec<(Instant, u32)>, Vec<(Instant, u32)>) =
                std::mem::take(&mut self.inbox).into_iter().partition(|&(at, _)| at < horizon);
            self.inbox = later;
            due.sort_unstable();
            for (at, tag) in due {
                self.sched.at(at.max(self.sched.now()), tag);
            }
            while let Some(tag) = self.sched.next_before(horizon) {
                let now = self.sched.now();
                self.log.push((now, tag));
                self.follow_up(now, tag);
            }
        }
    }

    /// The exchange: every staged message moves to its destination inbox.
    fn exchange(shards: &mut [Toy]) {
        let sent: Vec<(usize, Instant, u32)> =
            shards.iter_mut().flat_map(|s| std::mem::take(&mut s.outbox)).collect();
        for (dst, at, tag) in sent {
            shards[dst].inbox.push((at, tag));
        }
    }

    #[test]
    fn window_ends_align_to_fixed_multiples() {
        let la = Duration::from_millis(10);
        let ends: Vec<Instant> = window_ends(Instant::ZERO, Instant::from_millis(35), la).collect();
        assert_eq!(
            ends,
            vec![
                Instant::from_millis(10),
                Instant::from_millis(20),
                Instant::from_millis(30),
                Instant::from_millis(35),
            ]
        );
        // Starting mid-window crosses the same absolute boundaries.
        let ends: Vec<Instant> =
            window_ends(Instant::from_millis(15), Instant::from_millis(35), la).collect();
        assert_eq!(
            ends,
            vec![Instant::from_millis(20), Instant::from_millis(30), Instant::from_millis(35)]
        );
        // A start on a boundary does not produce an empty window.
        let ends: Vec<Instant> =
            window_ends(Instant::from_millis(20), Instant::from_millis(30), la).collect();
        assert_eq!(ends, vec![Instant::from_millis(30)]);
    }

    #[test]
    fn phased_runs_cross_identical_boundaries() {
        let la = Duration::from_millis(7);
        let whole: Vec<Instant> =
            window_ends(Instant::ZERO, Instant::from_millis(100), la).collect();
        let mut phased: Vec<Instant> =
            window_ends(Instant::ZERO, Instant::from_millis(40), la).collect();
        phased.extend(window_ends(Instant::from_millis(40), Instant::from_millis(100), la));
        // The phase split adds its cut points but every multiple-of-7
        // boundary of the whole run is crossed by the phased run too.
        for b in whole {
            assert!(phased.contains(&b), "missing boundary {b}");
        }
    }

    #[test]
    fn drive_advances_all_shards_to_horizon() {
        let mut shards = vec![Toy::new(), Toy::new()];
        shards[0].sched.at(Instant::from_millis(3), 1);
        shards[1].sched.at(Instant::from_millis(23), 2);
        let horizon = Instant::from_millis(50);
        drive_serial(&mut shards, Instant::ZERO, horizon, Duration::from_millis(10), |_, _| {});
        assert!(shards.iter().all(|s| s.now() == horizon));
        assert_eq!(shards[0].log, vec![(Instant::from_millis(3), 1)]);
        assert_eq!(shards[1].log, vec![(Instant::from_millis(23), 2)]);
    }

    #[test]
    fn sync_moves_messages_between_shards_at_boundaries() {
        // Shard 0 "sends" to shard 1 with one lookahead of latency: a
        // timer at t fires in shard 0, sync forwards it as an inbox entry
        // due at t + lookahead in shard 1.
        let la = Duration::from_millis(10);
        let mut shards = vec![Toy::new(), Toy::new()];
        shards[0].sched.at(Instant::from_millis(4), 100);
        drive_serial(&mut shards, Instant::ZERO, Instant::from_millis(40), la, |shards, end| {
            let sent: Vec<(Instant, u32)> = shards[0]
                .log
                .iter()
                .filter(|&&(at, _)| at >= end - la && at < end)
                .map(|&(at, tag)| (at + la, tag + 1))
                .collect();
            shards[1].inbox.extend(sent);
        });
        assert_eq!(shards[0].log, vec![(Instant::from_millis(4), 100)]);
        assert_eq!(shards[1].log, vec![(Instant::from_millis(14), 101)]);
    }

    /// Seeded toy shards: sparse random timers whose firings spawn local
    /// timers and cross-shard messages one lookahead or more ahead.
    fn random_toys(rng: &mut SimRng, n: usize, la: Duration, span: Instant) -> Vec<Toy> {
        (0..n)
            .map(|i| {
                let mut t = Toy::new();
                t.rng = Some(SimRng::seed_from_u64(rng.next_u64()));
                t.shards = n;
                t.lookahead = la;
                for k in 0..rng.uniform_u64(0, 6) {
                    let at = Instant::from_micros(rng.uniform_u64(0, span.total_micros() - 1));
                    let hops = rng.uniform_u64(0, 6) as u32;
                    t.sched.at(at, ((i as u32) << 16 | (k as u32) << 8) | hops);
                }
                t
            })
            .collect()
    }

    /// Runs every grid window of every phase; returns the per-shard logs
    /// and how many windows had something due when they began, counting
    /// a final window per phase when the phase's last grid window had
    /// nothing due (the skipping loop runs one to reach the horizon).
    fn reference_run(shards: &mut [Toy], phases: &[Instant], la: Duration) -> u64 {
        let mut expected = 0;
        let mut from = Instant::ZERO;
        for &horizon in phases {
            let mut last_busy = true;
            for end in window_ends(from, horizon, la) {
                let due = shards.iter_mut().filter_map(Toy::next_due).min();
                last_busy = due.is_some_and(|d| d < end);
                expected += u64::from(last_busy);
                for s in shards.iter_mut() {
                    s.run_window(end);
                }
                exchange(shards);
            }
            expected += u64::from(!last_busy);
            from = horizon;
        }
        expected
    }

    #[test]
    fn skipping_drive_matches_every_window_reference() {
        let mut rng = SimRng::seed_from_u64(0x5C1F);
        let mut skipped = 0;
        for case in 0..200 {
            let n = rng.uniform_u64(1, 4) as usize;
            let la = Duration::from_micros(rng.uniform_u64(500, 8_000));
            let span = Instant::from_millis(rng.uniform_u64(20, 2_000));
            // One, two or three phases, cut anywhere (off-grid too).
            let mut phases: Vec<Instant> = (0..rng.uniform_u64(0, 2))
                .map(|_| Instant::from_micros(rng.uniform_u64(1, span.total_micros() - 1)))
                .collect();
            phases.push(span);
            phases.sort_unstable();
            phases.dedup();
            let seed = rng.next_u64();

            let mut reference = random_toys(&mut SimRng::seed_from_u64(seed), n, la, span);
            let expected = reference_run(&mut reference, &phases, la);

            let mut shards = random_toys(&mut SimRng::seed_from_u64(seed), n, la, span);
            let mut ran = 0;
            let mut from = Instant::ZERO;
            for &horizon in &phases {
                ran += drive_serial(&mut shards, from, horizon, la, |s, _| exchange(s));
                from = horizon;
            }
            for (i, (got, want)) in shards.iter().zip(&reference).enumerate() {
                assert_eq!(got.log, want.log, "case {case}: shard {i} log differs");
                assert_eq!(got.now(), span, "case {case}: shard {i} clock");
            }
            assert_eq!(ran, expected, "case {case}: windows run");
            let grid: usize = std::iter::once(Instant::ZERO)
                .chain(phases.iter().copied())
                .zip(&phases)
                .map(|(from, &to)| window_ends(from, to, la).count())
                .sum();
            skipped += grid as u64 - ran;
        }
        assert!(skipped > 0, "the cases never skipped a window");
    }
}
