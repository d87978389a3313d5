//! The owned trace recorder against a shared handle.
//!
//! Random sequential programs open and close spans, emit points and
//! fork child recorders (nested up to depth 3). Each child is joined
//! after its last event and before its parent records again, and the
//! program is cut into trials. Every program runs three ways:
//!
//! - the reference: a tree of cloned [`ObsHandle`]s on one
//!   [`CollectorObserver`], where a fork is a clone and a join drops it;
//! - a buffering [`Trace`] root, whose trials are handed off to a
//!   [`StreamingMerger`];
//! - a forwarding [`Trace`] root on a handle of its own.
//!
//! Every case checks that both recorders deliver exactly the reference
//! stream: the same events, span ids, parents, clocks and `seq`s, and
//! that each handed-off trial numbers its events' `seq` from 0, as the
//! checkpoint log persists them.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use redundancy_obs::{
    CollectorObserver, CostSnapshot, ObsHandle, Point, SpanKind, SpanStatus, SpanToken,
    StreamingMerger, Trace,
};

/// How deep forks may nest.
const MAX_DEPTH: usize = 3;

/// The recording calls a program makes, on either recorder.
trait Record {
    fn begin(&mut self, clock: u64) -> SpanToken;
    fn end(&mut self, token: SpanToken, clock: u64);
    fn point(&mut self, clock: u64);
}

impl Record for ObsHandle {
    fn begin(&mut self, clock: u64) -> SpanToken {
        self.begin_span(clock, || SpanKind::Scope { name: "s" })
    }

    fn end(&mut self, token: SpanToken, clock: u64) {
        self.end_span(token, clock, SpanStatus::Ok, CostSnapshot::ZERO);
    }

    fn point(&mut self, clock: u64) {
        self.emit(clock, || Point::Custom {
            name: "p",
            detail: "".into(),
        });
    }
}

impl Record for Trace {
    fn begin(&mut self, clock: u64) -> SpanToken {
        self.begin_span(clock, || SpanKind::Scope { name: "s" })
    }

    fn end(&mut self, token: SpanToken, clock: u64) {
        self.end_span(token, clock, SpanStatus::Ok, CostSnapshot::ZERO);
    }

    fn point(&mut self, clock: u64) {
        self.emit(clock, || Point::Custom {
            name: "p",
            detail: "".into(),
        });
    }
}

/// One recorder per nesting level (the root first), each with its open
/// spans, innermost last.
type Frames<R> = Vec<(R, Vec<SpanToken>)>;

/// One program step, decoded from a random code.
#[derive(Debug, Clone, Copy)]
enum Op {
    Point,
    Begin,
    End,
    Fork,
    Join,
    /// Closes the root's spans and ends the trial.
    Trial,
}

fn op(code: u8) -> Op {
    match code % 8 {
        0 | 1 => Op::Point,
        2 | 3 => Op::Begin,
        4 => Op::End,
        5 => Op::Fork,
        6 => Op::Join,
        _ => Op::Trial,
    }
}

/// Applies `op` at `clock` to the innermost frame. `fork` and `join`
/// make and splice a child recorder; `trial` ends a trial on the root.
fn step<R: Record>(
    frames: &mut Frames<R>,
    op: Op,
    clock: u64,
    fork: impl Fn(&R) -> R,
    join: impl Fn(&mut R, R),
    trial: impl FnOnce(&mut R),
) {
    let depth = frames.len() - 1;
    let (top, open) = frames.last_mut().expect("the root frame");
    match op {
        Op::Point => top.point(clock),
        Op::Begin => open.push(top.begin(clock)),
        Op::End => match open.pop() {
            Some(token) => top.end(token, clock),
            None => top.point(clock),
        },
        Op::Fork if depth < MAX_DEPTH => {
            let child = fork(top);
            frames.push((child, Vec::new()));
        }
        // A child may be joined with spans still open.
        Op::Join if depth > 0 => {
            let (child, _) = frames.pop().expect("a child frame");
            join(&mut frames.last_mut().expect("its parent").0, child);
        }
        Op::Fork | Op::Join => top.point(clock),
        Op::Trial => {
            // Only the root ends a trial: join every child first.
            while frames.len() > 1 {
                let (child, _) = frames.pop().expect("a child frame");
                join(&mut frames.last_mut().expect("its parent").0, child);
            }
            let (root, open) = &mut frames[0];
            while let Some(token) = open.pop() {
                root.end(token, clock);
            }
            trial(root);
        }
    }
}

proptest! {
    #[test]
    fn owned_traces_record_the_shared_handle_stream(
        codes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let reference = Arc::new(CollectorObserver::new());
        let forwarded = Arc::new(CollectorObserver::new());
        let merged = Arc::new(CollectorObserver::new());
        let tapped = Arc::new(Mutex::new(Vec::new()));
        let merger = {
            let tapped = Arc::clone(&tapped);
            StreamingMerger::new(merged.clone())
                .with_tap(move |_, events| tapped.lock().unwrap().push(events.to_vec()))
        };
        let mut trials = 0;

        let mut shared: Frames<ObsHandle> = vec![(ObsHandle::new(reference.clone()), Vec::new())];
        let mut buffering: Frames<Trace> = vec![(Trace::new(), Vec::new())];
        let mut forwarding: Frames<Trace> =
            vec![(Trace::forwarding(ObsHandle::new(forwarded.clone())), Vec::new())];

        // A final trial end flushes the buffering root.
        for (clock, op) in codes.iter().map(|&code| op(code)).chain([Op::Trial]).enumerate() {
            let clock = clock as u64;
            step(&mut shared, op, clock, ObsHandle::clone, |_, child| drop(child), |_| {});
            step(&mut buffering, op, clock, Trace::fork, Trace::join, |root| {
                root.hand_off(|events| merger.submit(trials, events));
                trials += 1;
            });
            step(&mut forwarding, op, clock, Trace::fork, Trace::join, |_| {});
        }

        let expected = reference.take();
        prop_assert_eq!(merger.forwarded(), trials);
        for trial in tapped.lock().unwrap().iter() {
            let seqs: Vec<u64> = trial.iter().map(|event| event.seq).collect();
            prop_assert_eq!(seqs, (0..trial.len() as u64).collect::<Vec<_>>());
        }
        prop_assert_eq!(merged.take(), expected.clone());
        prop_assert_eq!(forwarded.take(), expected);
    }
}
