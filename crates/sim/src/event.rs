//! Deterministic event queue.
//!
//! The queue orders events by their firing time; events scheduled for the
//! same instant fire in the order they were scheduled (FIFO). This tie-break
//! rule is what makes simulation runs bit-for-bit reproducible: a plain
//! binary heap over `(Instant, payload)` would pop equal-time events in an
//! unspecified order.
//!
//! Cancellation is generation-checked. Every queued entry holds a slot in a
//! small table, and its [`EventHandle`] packs that slot with the slot's
//! generation. Firing or cancelling an event bumps the generation, so a
//! handle to an event that already fired, was already cancelled, or whose
//! slot now holds a later event no longer matches, and cancelling it is a
//! no-op. A slot is recycled once its heap entry is gone, so the table is
//! bounded by the peak number of queued entries, never by the number of
//! events processed.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs the event's slot (high 32 bits) with the slot's generation when
/// the event was scheduled (low 32 bits). Only [`EventQueue::schedule`]
/// makes handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(slot: u32, generation: u32) -> EventHandle {
        EventHandle(u64::from(slot) << 32 | u64::from(generation))
    }

    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn generation(self) -> u32 {
        self.0 as u32
    }
}

struct Entry<E> {
    at: Instant,
    seq: u64,
    handle: EventHandle,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties,
        // the first-scheduled) entry surfaces first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The generation of a slot that is never reused.
const RETIRED: u32 = u32::MAX;

/// A time-ordered queue of events with payloads of type `E`.
///
/// # Examples
///
/// ```
/// use umtslab_sim::event::EventQueue;
/// use umtslab_sim::time::Instant;
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_millis(5), "second");
/// q.schedule(Instant::from_millis(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (Instant::from_millis(1), "first"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Current generation of each slot. A heap entry is pending iff its
    /// handle's generation equals its slot's.
    generations: Vec<u32>,
    /// Slots with no heap entry, ready for reuse.
    free: Vec<u32>,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: Instant, payload: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.generations.len()).expect("under 2^32 queued events");
                self.generations.push(0);
                slot
            }
        };
        let handle = EventHandle::new(slot, self.generations[slot as usize]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, handle, payload });
        self.live += 1;
        handle
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (it will never be popped), `false` if it had already
    /// fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.generations.get_mut(handle.slot()) {
            Some(generation) if *generation == handle.generation() => {
                // The heap entry stays until it surfaces; `skip_cancelled`
                // then frees its slot.
                *generation += 1;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// The firing time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next pending event.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.skip_cancelled();
        let entry = self.heap.pop()?;
        Some(self.fire(entry))
    }

    /// Pops the next pending event if it fires strictly before `horizon`;
    /// otherwise leaves it queued.
    pub fn pop_before(&mut self, horizon: Instant) -> Option<(Instant, E)> {
        self.skip_cancelled();
        if self.heap.peek()?.at >= horizon {
            return None;
        }
        let entry = self.heap.pop().expect("peeked entry must pop");
        Some(self.fire(entry))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Fires a pending entry taken off the heap: its handle goes stale and
    /// its slot is freed.
    fn fire(&mut self, entry: Entry<E>) -> (Instant, E) {
        let slot = entry.handle.slot();
        self.generations[slot] += 1;
        self.release(slot);
        self.live -= 1;
        (entry.at, entry.payload)
    }

    // Forced inline: once `peek_time` gained a second caller the
    // compiler outlined this, and `pop_before` paid a call per
    // dispatched event (the fleet's event-bound settle ran ~4% slower).
    #[inline(always)]
    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.generations[top.handle.slot()] == top.handle.generation() {
                break;
            }
            let dead = self.heap.pop().expect("peeked entry must pop");
            self.release(dead.handle.slot());
        }
    }

    /// Returns a slot whose heap entry is gone to the free list. A slot
    /// whose generation reached `u32::MAX` is retired instead: no handle
    /// carries that generation, and recycling would have to wrap it back
    /// onto the generations of stale handles.
    fn release(&mut self, slot: usize) {
        if self.generations[slot] != RETIRED {
            self.free.push(slot as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Instant;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "a");
        let _h2 = q.schedule(t(2), "b");
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(h));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_the_entry_was_skipped_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(h));
        // Drops the cancelled entry from the heap.
        assert_eq!(q.peek_time(), Some(t(2)));
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn exhausted_slot_is_retired_not_recycled() {
        let mut q = EventQueue::new();
        q.generations.push(RETIRED - 1);
        q.free.push(0);
        let last = q.schedule(t(1), "last");
        assert_eq!((last.slot(), last.generation()), (0, RETIRED - 1));
        assert_eq!(q.pop(), Some((t(1), "last")));
        assert!(q.free.is_empty(), "slot 0 must not be recycled");
        let next = q.schedule(t(2), "next");
        assert_eq!(next.slot(), 1);
        assert!(!q.cancel(last));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_bogus_handle_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_tracks_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    /// The naive reference: a flat list of pending `(at, id)` pairs, ids
    /// increasing in schedule order, scanned on every operation.
    #[derive(Default)]
    struct Model {
        pending: Vec<(Instant, u64)>,
    }

    impl Model {
        fn next(&self) -> Option<usize> {
            (0..self.pending.len()).min_by_key(|&i| self.pending[i])
        }

        fn peek_time(&self) -> Option<Instant> {
            self.next().map(|i| self.pending[i].0)
        }

        fn pop(&mut self) -> Option<(Instant, u64)> {
            let i = self.next()?;
            Some(self.pending.remove(i))
        }

        fn is_pending(&self, id: u64) -> bool {
            self.pending.iter().any(|&(_, p)| p == id)
        }

        /// `id` is `None` for a handle the queue never issued.
        fn cancel(&mut self, id: Option<u64>) -> bool {
            match self.pending.iter().position(|&(_, p)| Some(p) == id) {
                Some(i) => {
                    self.pending.remove(i);
                    true
                }
                None => false,
            }
        }
    }

    fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> Option<T> {
        if items.is_empty() {
            return None;
        }
        Some(items[rng.uniform_u64(0, items.len() as u64 - 1) as usize])
    }

    #[test]
    fn matches_naive_reference_model() {
        let mut rng = SimRng::seed_from_u64(0xE7E7);
        // Cancels tried per kind: live, any issued, already cancelled,
        // stale on a reused slot, never issued.
        let mut tried = [0u32; 5];
        for _ in 0..64 {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            // Every handle issued so far; the payload is the index.
            let mut handles: Vec<EventHandle> = Vec::new();
            let mut cancelled: Vec<u64> = Vec::new();
            for _ in 0..rng.uniform_u64(1, 600) {
                match rng.uniform_u64(0, 9) {
                    0..=3 => {
                        let at = t(rng.uniform_u64(0, 40));
                        let id = handles.len() as u64;
                        handles.push(q.schedule(at, id));
                        model.pending.push((at, id));
                    }
                    4 | 5 => assert_eq!(q.pop(), model.pop()),
                    6 => assert_eq!(q.peek_time(), model.peek_time()),
                    7 => {
                        let horizon = t(rng.uniform_u64(0, 40));
                        let want = match model.peek_time() {
                            Some(at) if at < horizon => model.pop(),
                            _ => None,
                        };
                        assert_eq!(q.pop_before(horizon), want);
                    }
                    _ => {
                        let kind = rng.uniform_u64(0, 4) as usize;
                        let target = match kind {
                            0 => pick(&mut rng, &model.pending).map(|(_, id)| Some(id)),
                            1 => (!handles.is_empty())
                                .then(|| Some(rng.uniform_u64(0, handles.len() as u64 - 1))),
                            2 => pick(&mut rng, &cancelled).map(Some),
                            3 => {
                                let stale: Vec<u64> = (0..handles.len() as u64)
                                    .filter(|&id| !model.is_pending(id))
                                    .filter(|&id| {
                                        model.pending.iter().any(|&(_, p)| {
                                            handles[p as usize].slot()
                                                == handles[id as usize].slot()
                                        })
                                    })
                                    .collect();
                                pick(&mut rng, &stale).map(Some)
                            }
                            _ => Some(None),
                        };
                        let Some(id) = target else { continue };
                        tried[kind] += 1;
                        let handle = match id {
                            Some(id) => handles[id as usize],
                            None => {
                                let beyond = q.generations.len() as u64;
                                let slot = rng.uniform_u64(beyond, u64::from(u32::MAX)) as u32;
                                EventHandle::new(slot, rng.next_u64() as u32)
                            }
                        };
                        let hit = model.cancel(id);
                        assert_eq!(q.cancel(handle), hit);
                        if hit {
                            cancelled.push(id.expect("only issued handles cancel"));
                        }
                    }
                }
                assert_eq!(q.len(), model.pending.len());
                assert_eq!(q.is_empty(), model.pending.is_empty());
            }
            loop {
                let popped = q.pop();
                assert_eq!(popped, model.pop());
                if popped.is_none() {
                    break;
                }
            }
            // Drained: every slot is free again.
            assert_eq!(q.free.len(), q.generations.len());
        }
        assert!(tried.iter().all(|&n| n > 50), "every cancel kind exercised: {tried:?}");
    }

    #[test]
    fn slot_table_is_bounded_by_peak_pending() {
        const K: u64 = 8;
        let mut rng = SimRng::seed_from_u64(0xB0B0);
        let mut q = EventQueue::new();
        for i in 0..K {
            q.schedule(t(rng.uniform_u64(0, 100)), i);
        }
        for i in K..1_000_000 {
            let (now, _) = q.pop().expect("K events pending");
            q.schedule(now + crate::time::Duration::from_micros(rng.uniform_u64(0, 5_000)), i);
        }
        assert_eq!(q.len(), K as usize);
        assert!(q.generations.len() <= K as usize, "slots: {}", q.generations.len());
        assert!(q.free.len() <= K as usize);
    }
}
