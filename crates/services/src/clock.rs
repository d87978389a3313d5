//! Deterministic virtual-time event scheduling.
//!
//! The service runtime ([`crate::runtime`]) is a discrete-event
//! simulator: nothing in it reads a wall clock or sleeps. Time is a
//! plain `u64` nanosecond counter that jumps from one scheduled event to
//! the next, so a run over millions of in-flight requests is exactly as
//! reproducible as a single seeded RNG stream — and runs as fast as the
//! host can drain the queue, not as slow as the latencies it models.
//!
//! [`EventQueue`] is the scheduler's core, ordered by `(time,
//! sequence)`. The sequence number is assigned at scheduling time,
//! which gives **FIFO tie-breaking for simultaneous events** — without
//! it, order among equal timestamps would depend on insertion history
//! in ways that are easy to perturb and hard to debug. Determinism here
//! is load-bearing: the per-request ledger the runtime emits is
//! asserted bit-identical across runs.
//!
//! Entries live in two places. An event scheduled at or after the
//! latest entry of a **sorted tail** is appended to it in O(1); any
//! other goes to a binary min-heap. Pop takes whichever head has the
//! smaller `(time, sequence)`, so the pop order is exactly a single
//! heap's. The tail pays off for timers armed at a fixed offset from
//! *now* — the runtime's per-request deadlines arrive in time order and
//! mostly pop stale, and as a heap they would sit under every other
//! push and pop.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled entry: fires at `at`, FIFO among equals via `seq`.
#[derive(Debug)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) out first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic priority queue of timed events.
///
/// Events pop in nondecreasing time order; events scheduled for the
/// same instant pop in the order they were scheduled. The queue also
/// tracks the virtual *now* — the timestamp of the last popped event —
/// and rejects scheduling into the past, which turns subtle causality
/// bugs into loud panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Entries scheduled before the tail's last entry.
    heap: BinaryHeap<Scheduled<E>>,
    /// Entries in `(at, seq)` order: each was scheduled no earlier than
    /// the one before it, and `seq` grows with every schedule.
    tail: VecDeque<Scheduled<E>>,
    next_seq: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            tail: VecDeque::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// The virtual time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `event` to fire at absolute virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current virtual time — a scheduled
    /// past is always a logic error in a discrete-event loop.
    pub fn schedule(&mut self, at: u64, event: E) {
        assert!(
            at >= self.now,
            "event scheduled into the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled { at, seq, event };
        if self.tail.back().is_none_or(|last| at >= last.at) {
            self.tail.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Whether the tail holds the earliest pending entry.
    fn tail_is_next(&self) -> bool {
        match (self.tail.front(), self.heap.peek()) {
            (Some(tail), Some(heap)) => tail.key() < heap.key(),
            (tail, _) => tail.is_some(),
        }
    }

    /// Pops the earliest event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let entry = if self.tail_is_next() {
            self.tail.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(entry.at >= self.now, "queue yielded an event in the past");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        if self.tail_is_next() {
            self.tail.front().map(|entry| entry.at)
        } else {
            self.heap.peek().map(|entry| entry.at)
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.tail.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.tail.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            q.schedule(100, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn interleaved_schedules_keep_fifo_among_equals() {
        let mut q = EventQueue::new();
        q.schedule(50, 1u32);
        q.schedule(40, 0);
        assert_eq!(q.pop(), Some((40, 0)));
        // Scheduled *after* popping to t=40, still ties FIFO at t=50.
        q.schedule(50, 2);
        q.schedule(50, 3);
        assert_eq!(q.pop(), Some((50, 1)));
        assert_eq!(q.pop(), Some((50, 2)));
        assert_eq!(q.pop(), Some((50, 3)));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        let _ = q.pop();
        q.schedule(99, ());
    }
}
