//! Owned trace recording: each traced execution context owns its
//! [`Trace`], a forked context's events reach its parent when the parent
//! joins it, and a root trace hands finished units to its observer — or
//! a whole run of trials to a campaign's merger.

use std::cell::Cell;
use std::fmt;

use crate::event::{
    CostSnapshot, Event, EventKind, Point, SpanId, SpanKind, SpanStatus, ROOT_SPAN,
};
use crate::observer::ObsHandle;

/// Token returned by [`Trace::begin_span`]; hand it back to
/// [`Trace::end_span`]. Carries the previous span to restore.
#[derive(Debug, Clone, Copy)]
#[must_use = "end_span must be called with this token"]
pub struct SpanToken {
    span: SpanId,
    previous: SpanId,
}

/// One execution context's trace recorder.
///
/// A trace buffers its events — a plain `Vec` push per event, span ids
/// counted from 1 within the trace. [`fork`](Self::fork) hands a child a
/// trace recycled from the parent's earlier joins, whose local root
/// stands for the span the parent was in at fork time.
/// [`join`](Self::join) splices the child's events back into the parent,
/// in program order: span ids are shifted past the ids the parent has
/// allocated and the local root is mapped back to the fork-time span.
///
/// The rule that makes the spliced stream the one a single shared
/// allocator would have recorded: **join each child after its last event
/// and before the parent records again.** The child's spans then take
/// exactly the ids a shared allocator would have handed out, in the same
/// order. Children run on other threads (threaded patterns) are joined in
/// fork order, so the stream does not depend on the schedule.
///
/// Recording touches no shared state: no lock, no atomic, no refcount.
/// Each event is built straight in the buffer: the hot recording methods
/// are `#[inline]`, so a caller in another crate constructs the event in
/// place rather than in a temporary that the push copies.
///
/// The buffered events leave a root trace in one of two ways:
///
/// - [`hand_off`](Self::hand_off) gives them to the caller, recycling the
///   trace — and every child trace it recycled — for the next trial. A
///   trace can record a **run** of consecutive trials before it is handed
///   off: [`end_trial`](Self::end_trial) closes each one, restarting `seq`
///   at 0 while span ids continue, so the run's ids are exactly those one
///   shared allocator would assign its trials. The simulator's traced
///   campaigns hand each run to a
///   [`StreamingMerger`](crate::StreamingMerger) this way.
/// - A root trace [`attached`](Self::attached) to an [`ObsHandle`] hands
///   the handle each **unit** as soon as it finishes: everything recorded
///   from when the trace leaves its root span until it returns there, or
///   a single point emitted at the root. The handle numbers the unit's
///   span ids from its shared allocator and delivers the unit to its
///   observer as one [`Observer::record_batch`](crate::Observer::record_batch).
///
/// A unit that a panic unwinds through is dropped with its trace, never
/// delivered.
///
/// # Examples
///
/// ```
/// use redundancy_obs::{CostSnapshot, SpanKind, SpanStatus, Trace};
///
/// let mut trace = Trace::new();
/// let outer = trace.begin_span(0, || SpanKind::Scope { name: "outer" });
/// let mut child = trace.fork();
/// let inner = child.begin_span(0, || SpanKind::Scope { name: "inner" });
/// child.end_span(inner, 1, SpanStatus::Ok, CostSnapshot::ZERO);
/// trace.join(child);
/// trace.end_span(outer, 1, SpanStatus::Ok, CostSnapshot::ZERO);
///
/// let mut events = Vec::new();
/// trace.hand_off(|buffered| events.append(buffered));
/// assert_eq!(events.len(), 4);
/// // The child's span took the next id and sits under the fork-time span.
/// assert_eq!((events[1].span, events[1].parent), (2, 1));
/// ```
#[derive(Default)]
pub struct Trace(Box<Recorder>);

#[derive(Default)]
struct Recorder {
    /// Buffered events in program order; each one's `seq` is its position
    /// from `trial_start`.
    events: Vec<Event>,
    /// Where the trial being recorded starts in `events`: 0 unless
    /// [`Trace::end_trial`] closed earlier trials of a run.
    trial_start: usize,
    /// Span ids this trace allocated: its local ids are `1..=spans`.
    spans: u64,
    /// The span new events belong to, in local ids.
    current: SpanId,
    /// What the local root stands for in the trace this one was forked
    /// from: that trace's current span at fork time.
    root: SpanId,
    /// Set on a root trace attached to a handle: each finished unit goes
    /// to it.
    handle: Option<ObsHandle>,
    /// Emptied traces of joined children, handed out again by `fork`.
    /// A `Cell` so forking needs only a shared borrow.
    spare: Cell<Vec<Trace>>,
}

impl Recorder {
    #[inline]
    fn push(&mut self, span: SpanId, parent: SpanId, clock: u64, kind: EventKind) {
        let seq = (self.events.len() - self.trial_start) as u64;
        self.events.push(Event {
            seq,
            span,
            parent,
            clock,
            kind,
        });
    }

    /// Delivers the buffered unit to the attached handle once the trace
    /// stands at its root again.
    #[inline]
    fn unit_done(&mut self) {
        if self.current != ROOT_SPAN || self.events.is_empty() {
            return;
        }
        if let Some(handle) = &self.handle {
            handle.deliver(&mut self.events, self.spans);
            self.events.clear();
            self.spans = 0;
        }
    }
}

impl Trace {
    /// A buffering root trace: span ids from 1, the root span current.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A root trace that hands each finished unit to `handle`, span ids
    /// taken from the handle's allocator (see the type docs).
    #[must_use]
    pub fn attached(handle: ObsHandle) -> Self {
        Trace(Box::new(Recorder {
            handle: Some(handle),
            ..Recorder::default()
        }))
    }

    /// Opens a span; `kind` is evaluated once.
    #[inline]
    pub fn begin_span(&mut self, clock: u64, kind: impl FnOnce() -> SpanKind) -> SpanToken {
        let recorder = &mut *self.0;
        recorder.spans += 1;
        let token = SpanToken {
            span: recorder.spans,
            previous: recorder.current,
        };
        recorder.push(
            token.span,
            token.previous,
            clock,
            EventKind::SpanStart { kind: kind() },
        );
        recorder.current = token.span;
        token
    }

    /// Closes a span opened by [`begin_span`](Self::begin_span), restoring
    /// the previous current span.
    #[inline]
    pub fn end_span(
        &mut self,
        token: SpanToken,
        clock: u64,
        status: SpanStatus,
        cost: CostSnapshot,
    ) {
        let recorder = &mut *self.0;
        recorder.push(
            token.span,
            token.previous,
            clock,
            EventKind::SpanEnd { status, cost },
        );
        recorder.current = token.previous;
        recorder.unit_done();
    }

    /// Emits a point event in the current span; `point` is evaluated once.
    #[inline]
    pub fn emit(&mut self, clock: u64, point: impl FnOnce() -> Point) {
        let recorder = &mut *self.0;
        let current = recorder.current;
        recorder.push(current, current, clock, EventKind::Point(point()));
        recorder.unit_done();
    }

    /// A child trace whose local root stands for this trace's current
    /// span. It is recycled from an earlier [`join`](Self::join) when one
    /// is available, so a warm trace forks without allocating.
    ///
    /// Join the child after its last event and before this trace records
    /// again. Dropping a child that still holds events is a bug, caught
    /// by a debug assertion.
    #[must_use]
    #[inline]
    pub fn fork(&self) -> Trace {
        let mut spare = self.0.spare.take();
        let child = spare.pop();
        self.0.spare.set(spare);
        let mut child = child.unwrap_or_default();
        child.0.root = self.0.current;
        child
    }

    /// Splices `child` — a trace [`fork`](Self::fork)ed from this one —
    /// back in: its span ids shifted past the ones this trace allocated,
    /// its local root mapped to the fork-time span. The emptied child is
    /// kept for the next fork.
    #[inline]
    pub fn join(&mut self, mut child: Trace) {
        let recorder = &mut *self.0;
        let joined = &mut *child.0;
        if !joined.events.is_empty() {
            let shift = recorder.spans;
            recorder.spans += joined.spans;
            let root = joined.root;
            let map = |id: SpanId| if id == ROOT_SPAN { root } else { id + shift };
            let first = (recorder.events.len() - recorder.trial_start) as u64;
            // A bounded range keeps the iterator's length exact, so the
            // splice reserves once instead of checking per event.
            let seqs = first..first + joined.events.len() as u64;
            recorder
                .events
                .extend(joined.events.iter().zip(seqs).map(|(event, seq)| Event {
                    seq,
                    span: map(event.span),
                    parent: map(event.parent),
                    ..*event
                }));
            joined.events.clear();
            joined.spans = 0;
            joined.current = ROOT_SPAN;
            recorder.unit_done();
        }
        recorder.spare.get_mut().push(child);
    }

    /// Closes the trial recorded since the trace was last handed off or
    /// closed a trial, and returns where it ends in the buffer. The trace
    /// keeps recording: the next event starts the next trial at `seq` 0,
    /// and span ids continue, so a run of trials numbers its spans exactly
    /// as one shared allocator would. Call it at the root span.
    #[inline]
    pub fn end_trial(&mut self) -> usize {
        let recorder = &mut *self.0;
        debug_assert_eq!(recorder.current, ROOT_SPAN, "a trial ends at the root");
        recorder.trial_start = recorder.events.len();
        recorder.trial_start
    }

    /// Hands the buffered events to `take` — typically
    /// [`StreamingMerger::submit`](crate::StreamingMerger::submit), which
    /// leaves the vector empty with its capacity — and restarts this
    /// trace: empty, span ids from 1, the root span current. The buffer
    /// and the recycled children stay, so the next run recorded here
    /// allocates nothing.
    #[inline]
    pub fn hand_off(&mut self, take: impl FnOnce(&mut Vec<Event>)) {
        let recorder = &mut *self.0;
        take(&mut recorder.events);
        recorder.events.clear();
        recorder.trial_start = 0;
        recorder.spans = 0;
        recorder.current = ROOT_SPAN;
    }
}

/// Losing buffered events silently would drop part of a trace, so a
/// debug build panics. Never while unwinding: a second panic would abort
/// the process, and the unwinding unit is abandoned anyway.
impl Drop for Trace {
    fn drop(&mut self) {
        let unjoined = self.0.events.len();
        if cfg!(debug_assertions) && unjoined > 0 && !std::thread::panicking() {
            panic!(
                "a trace was dropped with {unjoined} buffered event(s) never joined into its \
                 parent or delivered: join every forked context, hand a root trace's events \
                 off, and close every span a root attached to an observer opens"
            );
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("buffered", &self.0.events.len())
            .field("current", &self.0.current)
            .field("attached", &self.0.handle.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(trace: &mut Trace, clock: u64) {
        let span = trace.begin_span(clock, || SpanKind::Scope { name: "s" });
        trace.emit(clock, || Point::Custom {
            name: "p",
            detail: "".into(),
        });
        trace.end_span(span, clock + 1, SpanStatus::Ok, CostSnapshot::ZERO);
    }

    #[test]
    fn forks_reuse_joined_children_and_hand_off_restarts_the_ids() {
        let mut trace = Trace::new();
        let child = trace.fork();
        let recycled = &*child.0 as *const Recorder;
        trace.join(child);
        let child = trace.fork();
        assert_eq!(&*child.0 as *const Recorder, recycled);
        trace.join(child);

        let mut trials = [Vec::new(), Vec::new()];
        for trial in &mut trials {
            scope(&mut trace, 0);
            trace.hand_off(|events| trial.append(events));
        }
        assert_eq!(trials[0], trials[1], "ids and seqs restart at hand-off");
    }

    #[test]
    fn a_run_restarts_seq_per_trial_and_continues_span_ids() {
        let mut run = Trace::new();
        scope(&mut run, 0);
        let first_end = run.end_trial();
        // The second trial forks a child and joins it under its span.
        let outer = run.begin_span(0, || SpanKind::Scope { name: "outer" });
        let mut child = run.fork();
        scope(&mut child, 0);
        run.join(child);
        run.end_span(outer, 1, SpanStatus::Ok, CostSnapshot::ZERO);
        let ends = [first_end, run.end_trial()];
        let mut events = Vec::new();
        run.hand_off(|buffered| events.append(buffered));
        assert_eq!(ends, [3, 8]);
        let ids: Vec<_> = events.iter().map(|e| (e.seq, e.span, e.parent)).collect();
        assert_eq!(
            ids,
            [
                (0, 1, 0),
                (1, 1, 1),
                (2, 1, 0),
                (0, 2, 0),
                (1, 3, 2),
                (2, 3, 3),
                (3, 3, 2),
                (4, 2, 0),
            ]
        );
        // A hand-off restarts both: the next trial is numbered afresh.
        scope(&mut run, 0);
        run.hand_off(|buffered| events = buffered.clone());
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].span, 1);
    }

    /// Records the size of every batch it receives.
    #[derive(Default)]
    struct Batches(std::sync::Mutex<Vec<usize>>);

    impl crate::Observer for Batches {
        fn record(&self, _event: Event) {
            panic!("a trace delivers whole units, never single events");
        }

        fn record_batch(&self, events: &[Event]) {
            self.0.lock().unwrap().push(events.len());
        }
    }

    #[test]
    fn an_attached_root_delivers_each_unit_when_it_returns_to_its_root() {
        let batches = std::sync::Arc::new(Batches::default());
        let mut trace = Trace::attached(ObsHandle::new(batches.clone()));
        let delivered = || batches.0.lock().unwrap().clone();
        // A point at the root is a unit of its own.
        trace.emit(0, || Point::Custom {
            name: "p",
            detail: "".into(),
        });
        assert_eq!(delivered(), [1]);
        // A span is delivered whole, with what its forks recorded.
        let outer = trace.begin_span(0, || SpanKind::Scope { name: "outer" });
        let mut child = trace.fork();
        scope(&mut child, 0);
        trace.join(child);
        assert_eq!(delivered(), [1], "the unit is still open");
        trace.end_span(outer, 2, SpanStatus::Ok, CostSnapshot::ZERO);
        assert_eq!(delivered(), [1, 5]);
        // A child forked and joined at the root is a unit too; an empty
        // one delivers nothing.
        let child = trace.fork();
        trace.join(child);
        let mut child = trace.fork();
        scope(&mut child, 0);
        trace.join(child);
        assert_eq!(delivered(), [1, 5, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never joined")]
    fn dropping_an_attached_root_mid_unit_panics_in_debug_builds() {
        let mut trace = Trace::attached(ObsHandle::new(std::sync::Arc::new(Batches::default())));
        let _open = trace.begin_span(0, || SpanKind::Scope { name: "open" });
        drop(trace);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never joined")]
    fn dropping_an_unjoined_child_with_events_panics_in_debug_builds() {
        let trace = Trace::new();
        let mut child = trace.fork();
        scope(&mut child, 0);
        drop(child);
    }

    #[test]
    fn dropping_an_unjoined_child_while_unwinding_does_not_abort() {
        let result = std::panic::catch_unwind(|| {
            let trace = Trace::new();
            let mut child = trace.fork();
            scope(&mut child, 0);
            panic!("trial bug");
        });
        assert!(result.is_err());
    }
}
