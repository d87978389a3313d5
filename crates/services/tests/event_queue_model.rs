//! Model test of the virtual-time scheduler ([`EventQueue`]).
//!
//! Random interleavings of `schedule` and `pop` drive the real queue
//! and a reference that keeps every pending `(time, sequence)` pair in
//! a plain `Vec` and pops the smallest. Times are drawn at or after the
//! queue's *now* with many ties, and in monotone runs at or after the
//! latest time scheduled so far, so both the heap and the sorted tail
//! fill and their heads often tie. Every pop, `peek_time`, `len`,
//! `is_empty` and `now` must agree with the reference.

use proptest::prelude::*;
use redundancy_services::EventQueue;

/// The reference scheduler: pending `(at, seq)` pairs, smallest first.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64)>,
    next_seq: u64,
    now: u64,
}

impl Model {
    /// Schedules at `at` and returns the entry's sequence number, which
    /// the real queue carries as its event.
    fn schedule(&mut self, at: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq));
        seq
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let earliest = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
        let entry = self.pending.swap_remove(earliest);
        self.now = entry.0;
        Some(entry)
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().min().map(|&(at, _)| at)
    }
}

proptest! {
    #[test]
    fn event_queue_pops_exactly_like_a_sorted_reference(
        ops in proptest::collection::vec((0u8..10, 0u64..4), 1..300),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        // The latest time scheduled so far: a monotone run starts here.
        let mut horizon = 0u64;
        for (kind, delta) in ops {
            match kind {
                0..=3 => prop_assert_eq!(queue.pop(), model.pop()),
                _ => {
                    let at = if kind < 7 { queue.now() + delta } else { horizon + delta };
                    horizon = horizon.max(at);
                    queue.schedule(at, model.schedule(at));
                }
            }
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
            prop_assert_eq!(queue.peek_time(), model.peek_time());
            prop_assert_eq!(queue.now(), model.now);
        }
        loop {
            let popped = model.pop();
            prop_assert_eq!(queue.pop(), popped);
            if popped.is_none() {
                break;
            }
        }
    }
}
