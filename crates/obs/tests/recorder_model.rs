//! The owned trace recorder against a shared handle.
//!
//! Random sequential programs open and close spans, emit points and
//! fork child recorders (nested up to depth 3). Each child is joined
//! after its last event and before its parent records again, and the
//! program is cut into trials. Every program runs three ways:
//!
//! - the reference: a tree of `SharedHandle`s on one
//!   [`RingBufferObserver`], where a fork is a clone and a join drops it.
//!   It is a frozen copy of the per-event handle the recorder replaced,
//!   which sent each event to the observer as it happened;
//! - a buffering [`Trace`] root, whose trials are handed off to a
//!   [`StreamingMerger`];
//! - a [`Trace`] root attached to an [`ObsHandle`] of its own.
//!
//! Every case checks that both recorders deliver exactly the reference
//! stream: the same events, span ids, parents, clocks and `seq`s; that
//! each handed-off trial numbers its events' `seq` from 0, as the
//! checkpoint log persists them; and that the attached root delivers
//! each unit as one batch as soon as it finishes, never a whole event
//! early or late.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use redundancy_obs::{
    CollectorObserver, CostSnapshot, Event, EventKind, ObsHandle, Observer, Point,
    RingBufferObserver, SpanId, SpanKind, SpanStatus, StreamingMerger, Trace, ROOT_SPAN,
};

/// The frozen reference: an observer, a span-id allocator shared by
/// every clone, and the current span. Each event goes straight to the
/// observer.
#[derive(Clone)]
struct SharedHandle {
    observer: Arc<dyn Observer>,
    ids: Arc<AtomicU64>,
    current: SpanId,
}

/// A token of the reference handle: the span and the one to restore.
#[derive(Clone, Copy)]
struct SharedToken {
    span: SpanId,
    previous: SpanId,
}

impl SharedHandle {
    fn new(observer: Arc<dyn Observer>) -> Self {
        SharedHandle {
            observer,
            ids: Arc::new(AtomicU64::new(1)),
            current: ROOT_SPAN,
        }
    }

    fn record(&self, span: SpanId, parent: SpanId, clock: u64, kind: EventKind) {
        self.observer.record(Event {
            seq: 0,
            span,
            parent,
            clock,
            kind,
        });
    }
}

/// The recording calls a program makes, on any recorder.
trait Record {
    type Token: Copy;
    fn begin(&mut self, clock: u64) -> Self::Token;
    fn end(&mut self, token: Self::Token, clock: u64);
    fn point(&mut self, clock: u64);
}

fn point() -> Point {
    Point::Custom {
        name: "p",
        detail: "".into(),
    }
}

impl Record for SharedHandle {
    type Token = SharedToken;

    fn begin(&mut self, clock: u64) -> SharedToken {
        let span = self.ids.fetch_add(1, Ordering::Relaxed);
        let kind = SpanKind::Scope { name: "s" };
        self.record(span, self.current, clock, EventKind::SpanStart { kind });
        let token = SharedToken {
            span,
            previous: self.current,
        };
        self.current = span;
        token
    }

    fn end(&mut self, token: SharedToken, clock: u64) {
        let (status, cost) = (SpanStatus::Ok, CostSnapshot::ZERO);
        self.record(
            token.span,
            token.previous,
            clock,
            EventKind::SpanEnd { status, cost },
        );
        self.current = token.previous;
    }

    fn point(&mut self, clock: u64) {
        self.record(self.current, self.current, clock, EventKind::Point(point()));
    }
}

impl Record for Trace {
    type Token = redundancy_obs::SpanToken;

    fn begin(&mut self, clock: u64) -> Self::Token {
        self.begin_span(clock, || SpanKind::Scope { name: "s" })
    }

    fn end(&mut self, token: Self::Token, clock: u64) {
        self.end_span(token, clock, SpanStatus::Ok, CostSnapshot::ZERO);
    }

    fn point(&mut self, clock: u64) {
        self.emit(clock, point);
    }
}

/// One recorder per nesting level (the root first), each with its open
/// spans, innermost last.
type Frames<R> = Vec<(R, Vec<<R as Record>::Token>)>;

/// How deep forks may nest.
const MAX_DEPTH: usize = 3;

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

/// Records every batch it receives, and refuses single events: a trace
/// delivers whole units.
#[derive(Default)]
struct Batches(Mutex<Vec<Vec<Event>>>);

impl Observer for Batches {
    fn record(&self, _event: Event) {
        panic!("a trace delivers whole units, never single events");
    }

    fn record_batch(&self, events: &[Event]) {
        self.0.lock().unwrap().push(events.to_vec());
    }
}

/// A unit's events as the attached root hands them over: `seq`s
/// numbered from 0 within the unit.
fn numbered(unit: &[Event]) -> Vec<Event> {
    (0..)
        .zip(unit)
        .map(|(seq, &event)| Event { seq, ..event })
        .collect()
}

proptest! {
    #[test]
    fn owned_traces_record_the_shared_handle_stream(
        codes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Large enough for any program: `events` reads it without taking.
        let reference = RingBufferObserver::shared(1 << 12);
        let merged = Arc::new(CollectorObserver::new());
        let delivered = Arc::new(Batches::default());
        let tapped = Arc::new(Mutex::new(Vec::new()));
        let merger = {
            let tapped = Arc::clone(&tapped);
            StreamingMerger::new(merged.clone())
                .with_tap(move |_, events| tapped.lock().unwrap().push(events.to_vec()))
        };
        let mut trials = 0;
        // The units the reference stream has finished, and where the
        // next one starts.
        let mut units = Vec::new();
        let mut unit_start = 0;

        let mut shared: Frames<SharedHandle> =
            vec![(SharedHandle::new(reference.clone()), Vec::new())];
        let mut buffering: Frames<Trace> = vec![(Trace::new(), Vec::new())];
        let mut attached: Frames<Trace> =
            vec![(Trace::attached(ObsHandle::new(delivered.clone())), Vec::new())];

        // A final trial end flushes the buffering root.
        for (clock, op) in codes.iter().map(|&code| op(code)).chain([Op::Trial]).enumerate() {
            let clock = clock as u64;
            step(&mut shared, op, clock, SharedHandle::clone, |_, child| drop(child), |_| {});
            step(&mut buffering, op, clock, Trace::fork, Trace::join, |root| {
                root.hand_off(|events| {
                    let ends = [events.len()];
                    merger.submit(trials, events, &ends);
                });
                trials += 1;
            });
            step(&mut attached, op, clock, Trace::fork, Trace::join, |_| {});
            // A unit finishes when the root stands at its root span with
            // every child joined. The attached root must have delivered
            // exactly the finished units by now, each as one batch.
            let stream = reference.events();
            if shared.len() == 1 && shared[0].1.is_empty() && unit_start < stream.len() {
                units.push(numbered(&stream[unit_start..]));
                unit_start = stream.len();
            }
            prop_assert_eq!(&*delivered.0.lock().unwrap(), &units);
        }

        let expected = reference.events();
        prop_assert_eq!(unit_start, expected.len(), "the last trial ends a unit");
        prop_assert_eq!(merger.forwarded(), trials);
        for trial in tapped.lock().unwrap().iter() {
            let seqs: Vec<u64> = trial.iter().map(|event| event.seq).collect();
            prop_assert_eq!(seqs, (0..trial.len() as u64).collect::<Vec<_>>());
        }
        prop_assert_eq!(merged.take(), expected);
    }
}
