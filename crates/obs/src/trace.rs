//! Owned trace recording: each traced execution context owns its
//! [`Trace`], and a forked context's events reach its parent when the
//! parent joins it.

use std::cell::Cell;
use std::fmt;

use crate::event::{
    CostSnapshot, Event, EventKind, Point, SpanId, SpanKind, SpanStatus, ROOT_SPAN,
};
use crate::observer::{ObsHandle, SpanToken};

/// One execution context's trace recorder.
///
/// A trace either **buffers** its events — a plain `Vec` push per event,
/// span ids counted from 1 within the trace — or **forwards** them to a
/// shared [`ObsHandle`] as they happen. [`fork`](Self::fork) hands a
/// child a buffering trace, recycled from the parent's earlier joins,
/// whose local root stands for the span the parent was in at fork time.
/// [`join`](Self::join) splices the child's events back into the
/// parent, in program order: span ids are shifted past the ids the
/// parent has allocated (a forwarding parent reserves them from its
/// handle's allocator) and the local root is mapped back to the
/// fork-time span. A forwarding parent hands the joined events to its
/// observer as one [`Observer::record_batch`](crate::Observer::record_batch).
///
/// The rule that makes the spliced stream the one a shared handle would
/// have recorded: **join each child after its last event and before the
/// parent records again.** The child's spans then take exactly the ids a
/// shared allocator would have handed out, in the same order. Children
/// run on other threads (threaded patterns) are joined in fork order, so
/// the stream does not depend on the schedule.
///
/// Recording touches no shared state: no lock, no atomic, no refcount.
/// The simulator's traced campaigns give each trial a buffering root
/// trace and hand its events to a
/// [`StreamingMerger`](crate::StreamingMerger) with
/// [`hand_off`](Self::hand_off), recycling the trace — and every child
/// trace it recycled — for the worker's next trial.
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
    /// Buffered events in program order; each one's `seq` is its position.
    events: Vec<Event>,
    /// Span ids this trace allocated: its local ids are `1..=spans`.
    spans: u64,
    /// The span new events belong to, in local ids.
    current: SpanId,
    /// What the local root stands for in the trace this one was forked
    /// from: that trace's current span at fork time.
    root: SpanId,
    /// Set on a forwarding trace: its own events go straight to the
    /// handle, and joined children go to the handle's observer.
    handle: Option<ObsHandle>,
    /// Emptied traces of joined children, handed out again by `fork`.
    /// A `Cell` so forking needs only a shared borrow.
    spare: Cell<Vec<Trace>>,
}

impl Recorder {
    fn push(&mut self, span: SpanId, parent: SpanId, clock: u64, kind: EventKind) {
        let seq = self.events.len() as u64;
        self.events.push(Event {
            seq,
            span,
            parent,
            clock,
            kind,
        });
    }
}

impl Trace {
    /// A buffering root trace: span ids from 1, the root span current.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace that sends its own events straight to `handle` — span ids
    /// from the handle's allocator, parented under its current span — and
    /// forwards each joined child to the handle's observer as one batch.
    #[must_use]
    pub fn forwarding(handle: ObsHandle) -> Self {
        Trace(Box::new(Recorder {
            handle: Some(handle),
            ..Recorder::default()
        }))
    }

    /// The span new events are attributed to: a local id on a buffering
    /// trace, the handle's current span on a forwarding one.
    fn current_span(&self) -> SpanId {
        match &self.0.handle {
            Some(handle) => handle.current_span(),
            None => self.0.current,
        }
    }

    /// Opens a span; `kind` is evaluated once.
    pub fn begin_span(&mut self, clock: u64, kind: impl FnOnce() -> SpanKind) -> SpanToken {
        let recorder = &mut *self.0;
        if let Some(handle) = &mut recorder.handle {
            return handle.begin_span(clock, kind);
        }
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
    pub fn end_span(
        &mut self,
        token: SpanToken,
        clock: u64,
        status: SpanStatus,
        cost: CostSnapshot,
    ) {
        let recorder = &mut *self.0;
        if let Some(handle) = &mut recorder.handle {
            return handle.end_span(token, clock, status, cost);
        }
        recorder.push(
            token.span,
            token.previous,
            clock,
            EventKind::SpanEnd { status, cost },
        );
        recorder.current = token.previous;
    }

    /// Emits a point event in the current span; `point` is evaluated once.
    pub fn emit(&mut self, clock: u64, point: impl FnOnce() -> Point) {
        let recorder = &mut *self.0;
        if let Some(handle) = &recorder.handle {
            return handle.emit(clock, point);
        }
        let current = recorder.current;
        recorder.push(current, current, clock, EventKind::Point(point()));
    }

    /// A buffering child trace whose local root stands for this trace's
    /// current span. It is recycled from an earlier [`join`](Self::join)
    /// when one is available, so a warm trace forks without allocating.
    ///
    /// Join the child after its last event and before this trace records
    /// again. Dropping a child that still holds events is a bug, caught
    /// by a debug assertion.
    #[must_use]
    pub fn fork(&self) -> Trace {
        let root = self.current_span();
        let mut spare = self.0.spare.take();
        let child = spare.pop();
        self.0.spare.set(spare);
        let mut child = child.unwrap_or_default();
        child.0.root = root;
        child
    }

    /// Splices `child` — a trace [`fork`](Self::fork)ed from this one —
    /// back in: its span ids shifted past the ones this trace allocated,
    /// its local root mapped to the fork-time span. A buffering trace
    /// appends the events; a forwarding one hands them to its observer as
    /// one batch. The emptied child is kept for the next fork.
    pub fn join(&mut self, mut child: Trace) {
        let recorder = &mut *self.0;
        let joined = &mut *child.0;
        if !joined.events.is_empty() {
            let shift = match &recorder.handle {
                Some(handle) => handle.reserve(joined.spans) - 1,
                None => {
                    let shift = recorder.spans;
                    recorder.spans += joined.spans;
                    shift
                }
            };
            let root = joined.root;
            let map = |id: SpanId| if id == ROOT_SPAN { root } else { id + shift };
            match &recorder.handle {
                Some(handle) => {
                    for event in &mut joined.events {
                        event.span = map(event.span);
                        event.parent = map(event.parent);
                    }
                    handle.observer().record_batch(&joined.events);
                }
                None => {
                    let first = recorder.events.len() as u64;
                    recorder
                        .events
                        .extend(joined.events.iter().zip(first..).map(|(event, seq)| Event {
                            seq,
                            span: map(event.span),
                            parent: map(event.parent),
                            ..*event
                        }));
                }
            }
            joined.events.clear();
            joined.spans = 0;
            joined.current = ROOT_SPAN;
        }
        // A forwarding trace has nothing to splice and is no fork's spare.
        if joined.handle.is_none() {
            recorder.spare.get_mut().push(child);
        }
    }

    /// Hands the buffered events to `take` — typically
    /// [`StreamingMerger::submit`](crate::StreamingMerger::submit), which
    /// leaves the vector empty with its capacity — and restarts this
    /// trace: empty, span ids from 1, the root span current. The buffer
    /// and the recycled children stay, so the next trial recorded here
    /// allocates nothing.
    pub fn hand_off(&mut self, take: impl FnOnce(&mut Vec<Event>)) {
        let recorder = &mut *self.0;
        take(&mut recorder.events);
        recorder.events.clear();
        recorder.spans = 0;
        recorder.current = ROOT_SPAN;
    }
}

/// Losing buffered events silently would drop part of a trace, so a
/// debug build panics. Never while unwinding: a second panic would abort
/// the process, and the unwinding trial's trace is abandoned anyway.
impl Drop for Trace {
    fn drop(&mut self) {
        let unjoined = self.0.events.len();
        if cfg!(debug_assertions) && unjoined > 0 && !std::thread::panicking() {
            panic!(
                "a trace was dropped with {unjoined} buffered event(s) never joined into its \
                 parent: join every forked context, and hand a root trace's events off"
            );
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("buffered", &self.0.events.len())
            .field("current", &self.current_span())
            .field("forwarding", &self.0.handle.is_some())
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
