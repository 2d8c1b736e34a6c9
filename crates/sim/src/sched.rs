//! The simulation driver: a clock bound to an event queue.
//!
//! [`Scheduler`] is deliberately minimal: it owns the virtual clock and the
//! pending-event queue, and the *caller* owns the dispatch loop. This keeps
//! component state machines free of callback plumbing and lets the top-level
//! crate write an explicit, easily-audited main loop:
//!
//! ```
//! use umtslab_sim::sched::Scheduler;
//! use umtslab_sim::time::{Duration, Instant};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.after(Duration::from_millis(10), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some(ev) = sched.next_before(Instant::from_secs(1)) {
//!     match ev {
//!         Ev::Ping => {
//!             log.push((sched.now(), "ping"));
//!             sched.after(Duration::from_millis(5), Ev::Pong);
//!         }
//!         Ev::Pong => log.push((sched.now(), "pong")),
//!     }
//! }
//! assert_eq!(log, vec![
//!     (Instant::from_millis(10), "ping"),
//!     (Instant::from_millis(15), "pong"),
//! ]);
//! ```

use crate::event::{EventHandle, EventQueue};
use crate::time::{Duration, Instant};

/// A virtual clock plus pending-event queue.
pub struct Scheduler<E> {
    now: Instant,
    queue: EventQueue<E>,
    processed: u64,
    late: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`Instant::ZERO`].
    pub fn new() -> Self {
        Scheduler { now: Instant::ZERO, queue: EventQueue::new(), processed: 0, late: 0 }
    }

    /// The current simulated time. Monotonically non-decreasing.
    #[inline]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total events dispatched so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events scheduled into the past and clamped to fire "now" (see
    /// [`Scheduler::at`]). Nonzero only in release builds, where the debug
    /// assertion is compiled out; a correct run keeps it at 0.
    #[inline]
    pub fn late_schedules(&self) -> u64 {
        self.late
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// "now" (still after all events already due at the current instant),
    /// counted in [`Scheduler::late_schedules`], and a debug assertion trips
    /// in debug builds.
    pub fn at(&mut self, at: Instant, event: E) -> EventHandle {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = if at < self.now {
            self.late += 1;
            self.now
        } else {
            at
        };
        self.queue.schedule(at, event)
    }

    /// Schedules `event` after a relative delay.
    pub fn after(&mut self, delay: Duration, event: E) -> EventHandle {
        let at = self.now.saturating_add(delay);
        self.queue.schedule(at, event)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// The firing time of the next pending event.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.queue.peek_time()
    }

    /// Pops the next event and advances the clock to its firing time.
    ///
    /// Deliberately named like `Iterator::next`: the scheduler is the
    /// workspace-wide dispatch-loop idiom, but it cannot implement
    /// `Iterator` because callers interleave scheduling between pops.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<E> {
        let fired = self.queue.pop()?;
        Some(self.advance(fired))
    }

    /// Pops the next event if it fires strictly before `horizon`; otherwise
    /// leaves it queued and advances the clock to `horizon`.
    ///
    /// This is the standard "run until" primitive: looping on it executes
    /// the simulation up to (but not including) the horizon, and the clock
    /// lands exactly on the horizon when the loop ends.
    pub fn next_before(&mut self, horizon: Instant) -> Option<E> {
        match self.queue.pop_before(horizon) {
            Some(fired) => Some(self.advance(fired)),
            None => {
                if horizon > self.now {
                    self.now = horizon;
                }
                None
            }
        }
    }

    fn advance(&mut self, (at, ev): (Instant, E)) -> E {
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.at(Instant::from_millis(3), 3);
        s.at(Instant::from_millis(1), 1);
        assert_eq!(s.next(), Some(1));
        assert_eq!(s.now(), Instant::from_millis(1));
        assert_eq!(s.next(), Some(3));
        assert_eq!(s.now(), Instant::from_millis(3));
        assert_eq!(s.next(), None);
        assert_eq!(s.events_processed(), 2);
    }

    #[test]
    fn after_is_relative_to_now() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(Instant::from_millis(10), "a");
        s.next();
        s.after(Duration::from_millis(5), "b");
        assert_eq!(s.peek_time(), Some(Instant::from_millis(15)));
    }

    #[test]
    fn next_before_respects_horizon() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(Instant::from_millis(10), "in");
        s.at(Instant::from_millis(20), "out");
        let horizon = Instant::from_millis(15);
        assert_eq!(s.next_before(horizon), Some("in"));
        assert_eq!(s.next_before(horizon), None);
        // Clock landed exactly on the horizon; the later event is intact.
        assert_eq!(s.now(), horizon);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.next(), Some("out"));
    }

    #[test]
    fn event_due_exactly_at_horizon_stays_queued() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(Instant::from_millis(15), "edge");
        assert_eq!(s.next_before(Instant::from_millis(15)), None);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let h = s.at(Instant::from_millis(1), "x");
        s.at(Instant::from_millis(2), "y");
        assert!(s.cancel(h));
        assert_eq!(s.next(), Some("y"));
        assert_eq!(s.next(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(Instant::from_millis(10), "a");
        s.next();
        s.at(Instant::from_millis(5), "late");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_in_the_past_is_clamped_and_counted_in_release() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(Instant::from_millis(10), "a");
        s.next();
        assert_eq!(s.late_schedules(), 0);
        s.at(Instant::from_millis(5), "late");
        assert_eq!(s.late_schedules(), 1);
        assert_eq!(s.next(), Some("late"));
        assert_eq!(s.now(), Instant::from_millis(10));
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.at(Instant::from_millis(7), i);
        }
        for i in 0..10 {
            assert_eq!(s.next(), Some(i));
        }
    }
}
