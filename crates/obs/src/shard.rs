//! Sharded capture: record event streams on independent shards (one per
//! trial or per worker) and merge them back into a single stream that is
//! indistinguishable from a serial recording.
//!
//! A parallel Monte-Carlo campaign cannot share one [`ObsHandle`] across
//! worker threads without interleaving the streams of concurrent trials
//! and allocating span ids in scheduling order — both of which destroy
//! the deterministic-replay guarantee. Instead, every trial records into
//! a shard of its own through its own handle (span ids start at 1 per
//! shard), and [`merge_shards`] stitches the shards together in trial
//! order, renumbering span ids exactly as one shared allocator would
//! have assigned them. The merged stream is therefore *bit-for-bit
//! identical* to what the serial traced run records, so every downstream
//! consumer — `split_trials`, `TraceSummary`, exporters — works unchanged
//! on parallel campaigns.
//!
//! The campaign engine's shards are per-thread [`WorkerArena`]s. The
//! thread running a trial records its events into a thread-local buffer
//! without a lock or an atomic read-modify-write; events from any other
//! thread (variants run in `Threaded` mode) go to a locked side buffer,
//! which the owner splices in before its next record. The
//! [`StreamingMerger`] then forwards each finished trial to the sink in
//! one [`Observer::record_batch`] call, straight from that buffer.
//! [`CollectorObserver`] is the plain, locked shard for everything else.
//!
//! [`ObsHandle`]: crate::ObsHandle

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::event::{Event, EventKind, ROOT_SPAN};
use crate::observer::{ObsHandle, Observer};

/// Unbounded in-memory capture for one shard (one trial or worker).
///
/// Unlike [`RingBufferObserver`](crate::RingBufferObserver) it never
/// evicts and does not pre-allocate capacity, so creating one per trial
/// is cheap. Sequence numbers are assigned contiguously from 0 in record
/// order, shard-locally.
#[derive(Default)]
pub struct CollectorObserver {
    events: Mutex<Vec<Event>>,
}

impl CollectorObserver {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Takes the recorded events out, leaving the collector empty.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.lock())
    }

    /// Consumes the collector, returning the recorded events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
            .into_inner()
            .expect("collector lock is never poisoned")
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events
            .lock()
            .expect("collector lock is never poisoned")
    }
}

impl Observer for CollectorObserver {
    fn record(&self, event: Event) {
        push_numbered(&mut self.lock(), event);
    }

    fn record_batch(&self, events: &[Event]) {
        append_numbered(&mut self.lock(), events.iter().copied());
    }
}

/// Appends `event` with its position as `seq`.
fn push_numbered(events: &mut Vec<Event>, event: Event) {
    let seq = events.len() as u64;
    events.push(Event { seq, ..event });
}

/// Appends `more`, each event with its position as `seq`.
fn append_numbered(events: &mut Vec<Event>, more: impl ExactSizeIterator<Item = Event>) {
    let first = events.len() as u64;
    events.extend(more.zip(first..).map(|(event, seq)| Event { seq, ..event }));
}

/// The number of span ids a shard's local allocator consumed: every
/// `SpanStart` allocated exactly one id.
fn spans_allocated(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanStart { .. }))
        .count() as u64
}

/// Renumbers one shard's span ids into the campaign-wide id space and
/// forwards its events to `sink` in order, as one batch.
///
/// Shard-local handles allocate ids `1..=k` contiguously in span-start
/// order (see [`ObsHandle::new`](crate::ObsHandle::new)), so the remap is
/// the affine shift `local + offset` with `ROOT_SPAN` left untouched —
/// exactly the ids a single shared allocator would have handed out had
/// the shards been recorded one after another. Returns the number of ids
/// the shard consumed so the caller can advance its allocator cursor.
pub fn forward_renumbered(mut events: Vec<Event>, offset: u64, sink: &dyn Observer) -> u64 {
    let allocated = renumber_in_place(&mut events, offset);
    sink.record_batch(&events);
    allocated
}

/// Shifts one shard's span ids into the campaign-wide id space without
/// forwarding anything: the renumbering half of [`forward_renumbered`].
/// Returns the number of ids the shard consumed.
pub fn renumber_in_place(events: &mut [Event], offset: u64) -> u64 {
    let allocated = spans_allocated(events);
    for event in events.iter_mut() {
        if event.span != ROOT_SPAN {
            event.span += offset;
        }
        if event.parent != ROOT_SPAN {
            event.parent += offset;
        }
    }
    allocated
}

/// Merges shard streams (each recorded through its own fresh
/// [`ObsHandle`], ids starting at 1) into one flat stream, in shard
/// order, renumbering span ids and sequence numbers as a single serial
/// recording would have. See the module docs for why the result is
/// bit-for-bit identical to the serial stream.
#[must_use]
pub fn merge_shards(shards: Vec<Vec<Event>>) -> Vec<Event> {
    let merged = CollectorObserver::new();
    let mut offset = 0;
    for shard in shards {
        offset += forward_renumbered(shard, offset, &merged);
    }
    merged.into_events()
}

/// The observer behind a [`WorkerArena`]'s handles.
///
/// Records made on the thread that owns the shard go to that thread's
/// owner buffer ([`PRIMARY`]) with no lock. Every other record — from
/// another thread, into a re-entrant arena, or while the owner buffer is
/// borrowed — goes to `side` under its lock, and `pending` tells the
/// owner to splice `side` in before its next record. An owner record
/// therefore lands after every foreign record that happened before it,
/// and each event's `seq` is its position in the shard's stream.
#[derive(Default)]
struct TrialShard {
    side: Mutex<Vec<Event>>,
    /// Whether `side` holds events not yet spliced. Written only under
    /// `side`'s lock; the owner reads it with a plain load per record.
    pending: AtomicBool,
}

impl TrialShard {
    fn lock_side(&self) -> MutexGuard<'_, Vec<Event>> {
        self.side.lock().expect("shard side lock is never poisoned")
    }

    fn record_locked(&self, event: Event) {
        let mut side = self.lock_side();
        push_numbered(&mut side, event);
        self.pending.store(true, Ordering::Release);
    }

    /// Moves the side buffer's events onto the end of `owned`.
    fn splice_into(&self, owned: &mut Vec<Event>) {
        let mut side = self.lock_side();
        append_numbered(owned, side.drain(..));
        self.pending.store(false, Ordering::Relaxed);
    }

    /// Splices the side buffer into `owned` if anything waits there.
    fn catch_up(&self, owned: &mut Vec<Event>) {
        if self.pending.load(Ordering::Acquire) {
            self.splice_into(owned);
        }
    }

    /// Records on the owner path; `false` when this thread may not.
    fn record_owned(&self, event: Event) -> bool {
        PRIMARY
            .try_with(|primary| {
                let Ok(mut primary) = primary.try_borrow_mut() else {
                    return false;
                };
                let primary = &mut *primary;
                if !primary.owns(self) {
                    return false;
                }
                self.catch_up(&mut primary.events);
                push_numbered(&mut primary.events, event);
                true
            })
            .unwrap_or(false)
    }
}

impl Observer for TrialShard {
    fn record(&self, event: Event) {
        if !self.record_owned(event) {
            self.record_locked(event);
        }
    }
}

/// A thread's primary arena: the shard its trials record into, the
/// pooled handle on it, and the owner buffer.
struct Primary {
    /// Created by the thread's first trial, then kept for its lifetime.
    shard: Option<(Arc<TrialShard>, ObsHandle)>,
    /// The running trial's events, in record order.
    events: Vec<Event>,
    /// Whether a trial is running on this arena. A trial that starts on
    /// the thread meanwhile — a traced trial running a traced campaign,
    /// or an outer trial the pool's help-drain runs while a trial waits
    /// on a nested region — gets a re-entrant arena instead.
    busy: bool,
}

impl Primary {
    fn owns(&self, shard: &TrialShard) -> bool {
        self.shard
            .as_ref()
            .is_some_and(|(own, _)| std::ptr::eq(&**own, shard))
    }

    /// Starts a trial: a handle numbering from 1, or `None` when a trial
    /// is already running on this arena.
    fn check_out(&mut self) -> Option<ObsHandle> {
        if self.busy {
            return None;
        }
        self.busy = true;
        let (shard, pooled) = self.shard.get_or_insert_with(|| {
            let shard = Arc::new(TrialShard::default());
            let handle = ObsHandle::new(Arc::clone(&shard) as Arc<dyn Observer>);
            (shard, handle)
        });
        // A panicked trial leaves its events behind; they are no part of
        // this one.
        self.events.clear();
        if shard.pending.load(Ordering::Acquire) {
            shard.lock_side().clear();
            shard.pending.store(false, Ordering::Relaxed);
        }
        Some(pooled.restart())
    }
}

thread_local! {
    /// This thread's primary arena (see [`with_worker_arena`]).
    static PRIMARY: RefCell<Primary> = const {
        RefCell::new(Primary {
            shard: None,
            events: Vec::new(),
            busy: false,
        })
    };
}

/// One traced trial's recording arena (see [`with_worker_arena`]).
pub struct WorkerArena {
    handle: ObsHandle,
    /// `None` on the thread's primary arena, whose events live in the
    /// thread-local owner buffer; a re-entrant arena's own shard, which
    /// every record reaches through its lock, otherwise.
    reentrant: Option<Arc<TrialShard>>,
}

impl WorkerArena {
    fn reentrant() -> Self {
        let shard = Arc::new(TrialShard::default());
        WorkerArena {
            handle: ObsHandle::new(Arc::clone(&shard) as Arc<dyn Observer>),
            reentrant: Some(shard),
        }
    }

    /// A handle recording into this arena: span ids from 1, the root span
    /// current, exactly like a fresh [`ObsHandle::new`]. Clones of it
    /// (forked contexts, `Threaded` variant threads) record here too.
    #[must_use]
    pub fn handle(&self) -> ObsHandle {
        self.handle.clone()
    }

    /// Hands everything recorded so far to `merger` as trial `index`
    /// (see [`StreamingMerger::submit`]), leaving the arena empty. On
    /// the primary arena the merge reads the owner buffer in place, so
    /// the buffer keeps its capacity for the thread's next trial.
    pub fn submit(&mut self, merger: &StreamingMerger, index: usize) {
        match &self.reentrant {
            None => PRIMARY.with_borrow_mut(|primary| {
                let (shard, _) = primary
                    .shard
                    .as_ref()
                    .expect("a checked-out primary arena has its shard");
                shard.catch_up(&mut primary.events);
                merger.submit(index, &mut primary.events);
            }),
            Some(shard) => {
                let mut events = std::mem::take(&mut *shard.lock_side());
                merger.submit(index, &mut events);
            }
        }
    }
}

impl Drop for WorkerArena {
    fn drop(&mut self) {
        if self.reentrant.is_none() {
            // Runs on unwind too: a panicked trial frees the arena, and
            // the next check-out clears what it left behind.
            let _ = PRIMARY.try_with(|primary| {
                if let Ok(mut primary) = primary.try_borrow_mut() {
                    primary.busy = false;
                }
            });
        }
    }
}

/// Runs `f` — one traced trial — on this thread's pooled primary
/// [`WorkerArena`], creating it on first use.
///
/// Worker threads are persistent (see the simulator's pool), so one
/// arena per worker makes per-trial recording allocation-free: the
/// handle's span-id allocator restarts in place and the owner buffer
/// keeps its capacity. A trial that starts while another runs on this
/// thread — a traced trial running a traced campaign, or the pool's
/// help-drain running an outer trial while a trial waits on a nested
/// region — gets a fresh re-entrant arena, which records through a lock
/// and is dropped afterwards rather than replacing the primary.
pub fn with_worker_arena<R>(f: impl FnOnce(&mut WorkerArena) -> R) -> R {
    let handle = PRIMARY
        .try_with(|primary| {
            primary
                .try_borrow_mut()
                .ok()
                .and_then(|mut primary| primary.check_out())
        })
        .ok()
        .flatten();
    let mut arena = match handle {
        Some(handle) => WorkerArena {
            handle,
            reentrant: None,
        },
        None => WorkerArena::reentrant(),
    };
    f(&mut arena)
}

/// An observer of each trial's renumbered events at forward time
/// (see [`StreamingMerger::with_tap`]).
type TrialTap = Box<dyn Fn(usize, &[Event]) + Send + Sync>;

/// Streams shard merging: forwards trial `i`'s events to the sink as
/// soon as every trial `< i` has been submitted, instead of buffering
/// the whole campaign and merging at the end.
///
/// The sink sees exactly the stream [`merge_shards`] would produce —
/// submissions are renumbered and forwarded under one lock, in strict
/// trial order, one [`Observer::record_batch`] per trial — but peak
/// memory is bounded by the *out-of-orderness* of the submitters (a
/// window of in-flight trials), not by the campaign size. With
/// [`with_window`](Self::with_window), submitters that run too far ahead
/// block until the gap trial arrives, making the bound a hard guarantee;
/// the submitter owning the gap trial can never block, so the window
/// cannot deadlock (chunks are claimed in index order).
pub struct StreamingMerger {
    sink: Arc<dyn Observer>,
    window: Option<usize>,
    tap: Option<TrialTap>,
    state: Mutex<MergeState>,
    advanced: Condvar,
}

struct MergeState {
    /// Next trial index to forward.
    next: usize,
    /// Span-id offset accumulated over forwarded shards.
    offset: u64,
    /// Shards submitted out of order, waiting for the gap to fill.
    pending: BTreeMap<usize, Vec<Event>>,
    /// Emptied buffers of forwarded pending shards, handed to later
    /// out-of-order submitters in exchange for theirs.
    spare: Vec<Vec<Event>>,
    /// High-water mark of `pending` (including the shard being merged).
    peak_buffered: usize,
    /// Set by [`StreamingMerger::abort`]: a submitter is unwinding, so
    /// blocked submitters must wake and later submissions are discarded.
    aborted: bool,
    /// Submitters blocked on the window. A forwarding submitter wakes
    /// the condvar only when this is non-zero: the futex condvar makes
    /// a wake syscall on every `notify_all`, waiters or not.
    waiters: usize,
}

impl StreamingMerger {
    /// Creates a merger forwarding to `sink`, starting at trial 0.
    #[must_use]
    pub fn new(sink: Arc<dyn Observer>) -> Self {
        StreamingMerger {
            sink,
            window: None,
            tap: None,
            state: Mutex::new(MergeState {
                next: 0,
                offset: 0,
                pending: BTreeMap::new(),
                spare: Vec::new(),
                peak_buffered: 0,
                aborted: false,
                waiters: 0,
            }),
            advanced: Condvar::new(),
        }
    }

    /// Enforces a hard bound on buffered shards: a submission more than
    /// `window` trials ahead of the merge frontier blocks until the
    /// frontier advances. `window` is clamped to at least 1.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window.max(1));
        self
    }

    /// Starts the merge frontier at trial `next` with `offset` span ids
    /// already consumed, instead of trial 0 — the resume entry point: a
    /// campaign replaying trials `0..next` from a checkpoint continues
    /// the id space exactly where the interrupted run's merge left off.
    #[must_use]
    pub fn with_start(mut self, next: usize, offset: u64) -> Self {
        let state = self.state.get_mut().expect("merger lock never poisoned");
        state.next = next;
        state.offset = offset;
        self
    }

    /// Observes each trial's events — span ids renumbered into the
    /// campaign-wide id space, i.e. exactly the slice of the merged
    /// stream this trial contributes — just before they are forwarded to
    /// the sink. `seq` values are still shard-local: sinks assign global
    /// sequence numbers at record time, so replaying tapped slices
    /// through a fresh sink (the checkpoint-resume path) reproduces the
    /// merged stream exactly. The tap runs under the merger lock, in
    /// strict trial order; keep it cheap (the checkpoint committer
    /// serializes to an in-memory buffer).
    #[must_use]
    pub fn with_tap(mut self, tap: impl Fn(usize, &[Event]) + Send + Sync + 'static) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Unblocks every submitter waiting on the window and discards all
    /// later submissions.
    ///
    /// A submitter that panics never submits its trial, so the merge
    /// frontier stops there forever and — with a window — every other
    /// submitter eventually blocks on the condvar: the campaign would
    /// deadlock instead of propagating the panic. Callers that catch a
    /// trial panic call `abort` before unwinding; blocked `submit` calls
    /// return immediately (their events are dropped — the stream is
    /// abandoned anyway).
    pub fn abort(&self) {
        self.state
            .lock()
            .expect("merger lock never poisoned")
            .aborted = true;
        self.advanced.notify_all();
    }

    /// Submits trial `index`'s shard, forwarding it (and any unblocked
    /// successors) if the merge frontier has reached it.
    ///
    /// The frontier trial is renumbered, tapped and forwarded straight
    /// from `events`, which is left empty with its capacity. Only an
    /// out-of-order submission moves its events into the merger; `events`
    /// then comes back as an empty spare buffer.
    ///
    /// Each index must be submitted exactly once; indices must cover
    /// `0..n` by the time the campaign ends or later shards stay queued.
    pub fn submit(&self, index: usize, events: &mut Vec<Event>) {
        let mut state = self.state.lock().expect("merger lock never poisoned");
        if let Some(window) = self.window {
            // Too far ahead: wait for the frontier. The submitter of the
            // frontier trial itself never enters this branch
            // (index == state.next fails the guard), so progress is
            // guaranteed. Time spent here is run-ahead backpressure — the
            // flight recorder counts and times it per blocked submission.
            let mut stalled_since = None;
            while !state.aborted && index > state.next && index - state.next >= window {
                if stalled_since.is_none() {
                    crate::telemetry::add(crate::telemetry::Counter::MergerStalls, 1);
                    stalled_since = crate::telemetry::timer_start();
                }
                state.waiters += 1;
                state = self
                    .advanced
                    .wait(state)
                    .expect("merger lock never poisoned");
                state.waiters -= 1;
            }
            crate::telemetry::timer_stop(crate::telemetry::Timer::MergerStallNs, stalled_since);
        }
        if state.aborted {
            events.clear();
            return;
        }
        state.peak_buffered = state.peak_buffered.max(state.pending.len() + 1);
        if index != state.next {
            // Nothing can be forwarded until the frontier trial arrives.
            let spare = state
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(events.len()));
            state
                .pending
                .insert(index, std::mem::replace(events, spare));
            return;
        }
        // In-order fast path: the frontier trial's shard never touches the
        // pending map (a BTreeMap insert+remove allocates a node per trial,
        // which at jobs=1 is every trial).
        self.forward(&mut state, events);
        let mut forwarded = 1u64;
        loop {
            let next = state.next;
            let Some(mut shard) = state.pending.remove(&next) else {
                break;
            };
            self.forward(&mut state, &mut shard);
            state.spare.push(shard);
            forwarded += 1;
        }
        // Read under the lock: a submitter that starts waiting after
        // this point re-checks the advanced frontier before it sleeps.
        let wake = state.waiters > 0;
        drop(state);
        crate::telemetry::add(crate::telemetry::Counter::MergerTrialsForwarded, forwarded);
        if wake {
            self.advanced.notify_all();
        }
    }

    /// Renumbers, taps and forwards the frontier trial's `events` as one
    /// batch, leaving the buffer empty.
    fn forward(&self, state: &mut MergeState, events: &mut Vec<Event>) {
        state.offset += renumber_in_place(events, state.offset);
        if let Some(tap) = &self.tap {
            tap(state.next, events);
        }
        self.sink.record_batch(events);
        events.clear();
        state.next += 1;
    }

    /// High-water mark of simultaneously buffered shards (including the
    /// one being merged at the time).
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.state
            .lock()
            .expect("merger lock never poisoned")
            .peak_buffered
    }

    /// Number of shards forwarded so far.
    #[must_use]
    pub fn forwarded(&self) -> usize {
        self.state.lock().expect("merger lock never poisoned").next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostSnapshot, Point, SpanKind, SpanStatus};
    use crate::observer::{ObsHandle, RingBufferObserver};
    use std::sync::Arc;

    /// Records `trials` two-span "trials" through one shared handle (the
    /// serial shape) or one handle per trial (the sharded shape).
    fn record_trial(handle: &mut ObsHandle, index: u64) {
        let trial = handle.begin_span(0, || SpanKind::Trial { index, seed: index });
        let inner = handle.begin_span(0, || SpanKind::Scope { name: "work" });
        handle.end_span(inner, 5, SpanStatus::Ok, CostSnapshot::ZERO);
        handle.end_span(
            trial,
            5,
            SpanStatus::Trial {
                disposition: "correct",
            },
            CostSnapshot::ZERO,
        );
    }

    #[test]
    fn merged_shards_match_a_serial_recording() {
        let serial_ring = RingBufferObserver::shared(64);
        let mut serial = ObsHandle::new(serial_ring.clone());
        for i in 0..3 {
            record_trial(&mut serial, i);
        }

        let shards: Vec<Vec<Event>> = (0..3)
            .map(|i| {
                let collector = Arc::new(CollectorObserver::new());
                let mut handle = ObsHandle::new(collector.clone());
                record_trial(&mut handle, i);
                collector.take()
            })
            .collect();

        assert_eq!(merge_shards(shards), serial_ring.events());
    }

    #[test]
    fn collector_assigns_contiguous_seq_and_takes() {
        let c = Arc::new(CollectorObserver::new());
        let mut handle = ObsHandle::new(c.clone());
        record_trial(&mut handle, 0);
        assert_eq!(c.len(), 4);
        let events = c.take();
        assert!(c.is_empty());
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn forward_renumbered_reports_allocated_ids() {
        let c = Arc::new(CollectorObserver::new());
        let mut handle = ObsHandle::new(c.clone());
        record_trial(&mut handle, 0);
        let sink = CollectorObserver::new();
        let allocated = forward_renumbered(c.take(), 10, &sink);
        assert_eq!(allocated, 2);
        let events = sink.into_events();
        // Local ids 1 and 2 shifted to 11 and 12; ROOT parents untouched.
        assert_eq!(events[0].span, 11);
        assert_eq!(events[0].parent, ROOT_SPAN);
        assert_eq!(events[1].span, 12);
        assert_eq!(events[1].parent, 11);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_shards(Vec::new()).is_empty());
        assert!(merge_shards(vec![Vec::new(), Vec::new()]).is_empty());
    }

    /// Produces one recorded shard per trial, for feeding mergers.
    fn recorded_shards(n: u64) -> Vec<Vec<Event>> {
        (0..n)
            .map(|i| {
                let collector = Arc::new(CollectorObserver::new());
                let mut handle = ObsHandle::new(collector.clone());
                record_trial(&mut handle, i);
                collector.take()
            })
            .collect()
    }

    #[test]
    fn streaming_merge_matches_batch_merge_for_out_of_order_submits() {
        let shards = recorded_shards(6);
        let expected = merge_shards(shards.clone());

        let sink = Arc::new(CollectorObserver::new());
        let merger = StreamingMerger::new(sink.clone());
        // Worst-case order: last first.
        for (i, mut shard) in shards.into_iter().enumerate().rev() {
            merger.submit(i, &mut shard);
        }
        assert_eq!(merger.forwarded(), 6);
        assert_eq!(sink.take(), expected);
    }

    #[test]
    fn streaming_merge_forwards_eagerly_and_tracks_peak() {
        let shards = recorded_shards(4);
        let sink = Arc::new(CollectorObserver::new());
        let merger = StreamingMerger::new(sink.clone());
        let mut iter = shards.into_iter().enumerate();

        // In-order submission: each shard is forwarded immediately, so at
        // most one shard is ever buffered.
        let (i0, mut s0) = iter.next().unwrap();
        merger.submit(i0, &mut s0);
        assert_eq!(merger.forwarded(), 1);
        assert!(!sink.is_empty(), "first shard must stream out immediately");
        for (i, mut s) in iter {
            merger.submit(i, &mut s);
        }
        assert_eq!(merger.peak_buffered(), 1);
    }

    #[test]
    fn streaming_merge_recycles_out_of_order_buffers() {
        let shards = recorded_shards(5);
        let merger = StreamingMerger::new(Arc::new(CollectorObserver::new()));
        // In order: forwarded straight from the caller's buffer, which
        // comes back empty with its allocation.
        let mut first = shards[0].clone();
        let allocation = first.as_ptr();
        merger.submit(0, &mut first);
        assert!(first.is_empty());
        assert_eq!(first.as_ptr(), allocation);
        // Out of order: the events are parked, and the caller gets a dry
        // spare reserved to the parked shard's length.
        let mut parked = shards[2].clone();
        let parked_allocation = parked.as_ptr();
        merger.submit(2, &mut parked);
        assert!(parked.is_empty() && parked.capacity() >= 4);
        assert_ne!(parked.as_ptr(), parked_allocation);
        // Filling the gap forwards trials 1 and 2; trial 2's emptied
        // buffer goes to the spares, and the next out-of-order submitter
        // gets that very allocation back.
        merger.submit(1, &mut shards[1].clone());
        assert_eq!(merger.forwarded(), 3);
        let mut ahead = shards[4].clone();
        merger.submit(4, &mut ahead);
        assert!(ahead.is_empty());
        assert_eq!(ahead.as_ptr(), parked_allocation);
        merger.submit(3, &mut shards[3].clone());
        assert_eq!(merger.forwarded(), 5);
    }

    #[test]
    fn windowed_merge_blocks_runahead_submitters() {
        use std::sync::mpsc;

        let shards = recorded_shards(5);
        let expected = merge_shards(shards.clone());
        let sink = Arc::new(CollectorObserver::new());
        let merger = Arc::new(StreamingMerger::new(sink.clone()).with_window(2));

        // Submit trial 3 from another thread: 3 - next(0) >= 2, so it
        // must block until trials 0..=1 land.
        let (tx, rx) = mpsc::channel();
        let runner = {
            let merger = Arc::clone(&merger);
            let mut shard = shards[3].clone();
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                merger.submit(3, &mut shard);
            })
        };
        rx.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            merger.forwarded(),
            0,
            "run-ahead shard must not be accepted before the window opens"
        );

        for i in [0usize, 1, 2, 4] {
            merger.submit(i, &mut shards[i].clone());
        }
        runner.join().unwrap();
        assert_eq!(merger.forwarded(), 5);
        assert!(merger.peak_buffered() <= 2);
        assert_eq!(sink.take(), expected);
    }

    /// The window boundary is exact: with window `w` and frontier at
    /// `next`, index `next + w - 1` is the furthest admissible
    /// submission (`index - next >= window` blocks), and `next + w`
    /// blocks.
    #[test]
    fn windowed_merge_boundary_is_exact() {
        use std::sync::mpsc;

        let shards = recorded_shards(6);
        let window = 3;
        let sink = Arc::new(CollectorObserver::new());
        let merger = Arc::new(StreamingMerger::new(sink).with_window(window));

        // Frontier is at 0. Index 2 == next + window - 1 must be
        // admitted without blocking (submit on this thread would hang
        // forever if the guard were `index - next >= window - 1`).
        merger.submit(2, &mut shards[2].clone());
        assert_eq!(merger.forwarded(), 0, "gap at 0 not filled yet");

        // Index 3 == next + window sits exactly on the boundary
        // (3 - 0 >= 3) and must block.
        let (tx, rx) = mpsc::channel();
        let blocked = {
            let merger = Arc::clone(&merger);
            let mut shard = shards[3].clone();
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                merger.submit(3, &mut shard);
            })
        };
        rx.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let state = merger.state.lock().unwrap();
            assert!(
                !state.pending.contains_key(&3),
                "index == next + window must wait outside the buffer"
            );
        }

        // Filling the gap advances the frontier past the boundary and
        // releases the blocked submitter.
        merger.submit(0, &mut shards[0].clone());
        merger.submit(1, &mut shards[1].clone());
        blocked.join().unwrap();
        for (i, shard) in shards.iter().enumerate().take(6).skip(4) {
            merger.submit(i, &mut shard.clone());
        }
        assert_eq!(merger.forwarded(), 6);
        assert!(merger.peak_buffered() <= window);
    }

    /// Adversarial schedule: the owner of the gap trial is delayed while
    /// every other submitter races as far ahead as it can. The window
    /// must hold as a hard bound on buffered shards, nobody may
    /// deadlock, and the merged stream must still be byte-identical to
    /// the batch merge.
    #[test]
    fn windowed_merge_survives_runahead_stampede() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let n = 64;
        let window = 4;
        let shards = recorded_shards(n as u64);
        let expected = merge_shards(shards.clone());

        let sink = Arc::new(CollectorObserver::new());
        let merger = Arc::new(StreamingMerger::new(sink.clone()).with_window(window));
        let racers = 4;
        let barrier = Arc::new(Barrier::new(racers + 1));
        let max_seen_ahead = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            // Four racers split trials 1.. among themselves by stride
            // and submit as fast as they can.
            for r in 0..racers {
                let merger = Arc::clone(&merger);
                let barrier = Arc::clone(&barrier);
                let max_seen_ahead = Arc::clone(&max_seen_ahead);
                let shards = &shards;
                scope.spawn(move || {
                    barrier.wait();
                    let mut i = 1 + r;
                    while i < n {
                        merger.submit(i, &mut shards[i].clone());
                        // How far past the frontier did this submission
                        // land? Sampled after the fact, so it can read
                        // low, never high.
                        let ahead = i.saturating_sub(merger.forwarded());
                        max_seen_ahead.fetch_max(ahead, Ordering::Relaxed);
                        i += racers;
                    }
                });
            }
            // The gap owner holds trial 0 back until the stampede is
            // under way.
            barrier.wait();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(merger.forwarded(), 0, "nothing may pass the gap");
            merger.submit(0, &mut shards[0].clone());
        });

        assert_eq!(merger.forwarded(), n);
        assert!(
            merger.peak_buffered() <= window,
            "peak {} exceeded window {}",
            merger.peak_buffered(),
            window
        );
        assert!(
            max_seen_ahead.load(Ordering::Relaxed) < window,
            "a submission landed {} ahead of the frontier (window {})",
            max_seen_ahead.load(Ordering::Relaxed),
            window
        );
        assert_eq!(sink.take(), expected);
    }

    #[test]
    fn abort_releases_blocked_submitters_and_discards_late_submissions() {
        use std::sync::mpsc;

        let shards = recorded_shards(4);
        let sink = Arc::new(CollectorObserver::new());
        let merger = Arc::new(StreamingMerger::new(sink.clone()).with_window(1));

        // Trial 1 blocks on the window (1 - 0 >= 1): the trial-0
        // submitter is about to panic, so without abort this thread
        // would wait forever.
        let (tx, rx) = mpsc::channel();
        let blocked = {
            let merger = Arc::clone(&merger);
            let mut shard = shards[1].clone();
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                merger.submit(1, &mut shard);
            })
        };
        rx.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        merger.abort();
        blocked.join().expect("abort must release the submitter");

        // Submissions after the abort are discarded, not forwarded.
        merger.submit(0, &mut shards[0].clone());
        assert_eq!(merger.forwarded(), 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn with_start_continues_an_interrupted_merge() {
        let shards = recorded_shards(6);
        let expected = merge_shards(shards.clone());

        // First run: trials 0..3 forwarded, then the process "dies".
        let first_sink = Arc::new(CollectorObserver::new());
        let first = StreamingMerger::new(first_sink.clone());
        let mut offset = 0;
        for (i, mut shard) in shards.iter().take(3).cloned().enumerate() {
            first.submit(i, &mut shard);
            offset = spans_allocated(&first_sink.lock());
        }
        let replayed: Vec<Event> = first_sink.take();

        // Resume: replay the persisted prefix into a fresh sink, then
        // continue the merge from trial 3 with the offset carried over.
        let sink = Arc::new(CollectorObserver::new());
        for event in replayed {
            sink.lock().push(event);
        }
        let resumed = StreamingMerger::new(sink.clone()).with_start(3, offset);
        for (i, mut shard) in shards.iter().cloned().enumerate().skip(3) {
            resumed.submit(i, &mut shard);
        }
        assert_eq!(resumed.forwarded(), 6);
        assert_eq!(sink.take(), expected);
    }

    #[test]
    fn tap_sees_renumbered_events_in_trial_order() {
        let shards = recorded_shards(4);
        let expected = merge_shards(shards.clone());

        let tapped = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::new(CollectorObserver::new());
        let merger = {
            let tapped = Arc::clone(&tapped);
            StreamingMerger::new(sink.clone())
                .with_tap(move |i, events| tapped.lock().unwrap().push((i, events.to_vec())))
        };
        // Reverse order: the tap must still fire 0,1,2,3.
        for (i, mut shard) in shards.into_iter().enumerate().rev() {
            merger.submit(i, &mut shard);
        }
        let tapped = tapped.lock().unwrap();
        assert_eq!(
            tapped.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Replaying the tapped slices through a fresh seq-assigning sink
        // reproduces the merged stream exactly: span ids are already
        // campaign-wide, and the sink restores global seqs.
        let replay = CollectorObserver::new();
        for (_, events) in tapped.iter() {
            for event in events {
                replay.record(*event);
            }
        }
        assert_eq!(replay.into_events(), expected);
        assert_eq!(sink.take(), expected);
    }

    /// Runs one trial on this thread's arena, submitting it to `merger`
    /// as trial `index`; returns whether it ran on the primary arena.
    fn arena_trial(merger: &StreamingMerger, index: u64) -> bool {
        with_worker_arena(|arena| {
            let mut handle = arena.handle();
            record_trial(&mut handle, index);
            arena.submit(merger, index as usize);
            arena.reentrant.is_none()
        })
    }

    /// Each tapped trial's events and the address of the buffer they
    /// were forwarded from.
    type Tapped = Arc<Mutex<Vec<(Vec<Event>, usize)>>>;

    /// A merger whose tap keeps each trial's `(events, buffer address)`.
    fn tapped_merger() -> (StreamingMerger, Tapped) {
        let tapped = Arc::new(Mutex::new(Vec::new()));
        let merger = {
            let tapped = Arc::clone(&tapped);
            StreamingMerger::new(Arc::new(CollectorObserver::new())).with_tap(move |_, events| {
                tapped
                    .lock()
                    .unwrap()
                    .push((events.to_vec(), events.as_ptr() as usize));
            })
        };
        (merger, tapped)
    }

    #[test]
    fn worker_arena_is_reused_per_thread_and_fresh_when_reentered() {
        let (merger, tapped) = tapped_merger();
        assert!(arena_trial(&merger, 0));
        assert!(arena_trial(&merger, 1));
        // A trial started while one runs on this thread gets a re-entrant
        // arena; its records stay out of the outer trial's stream.
        let (inner_merger, inner_tapped) = tapped_merger();
        with_worker_arena(|outer| {
            assert!(outer.reentrant.is_none());
            let mut handle = outer.handle();
            let trial = handle.begin_span(0, || SpanKind::Trial { index: 2, seed: 2 });
            assert!(!arena_trial(&inner_merger, 0), "nested arena is re-entrant");
            handle.end_span(
                trial,
                1,
                SpanStatus::Trial {
                    disposition: "correct",
                },
                CostSnapshot::ZERO,
            );
            outer.submit(&merger, 2);
        });
        // The re-entrant arena was not cached over the primary.
        assert!(arena_trial(&merger, 3));

        let tapped = tapped.lock().unwrap();
        let inner = inner_tapped.lock().unwrap();
        assert_eq!(tapped.len(), 4);
        assert_eq!(tapped[2].0.len(), 2, "outer trial kept only its own events");
        assert_eq!(
            inner[0].0,
            recorded_shards(1)[0],
            "inner trial recorded whole"
        );
        // Span ids restart at 1 for each trial's handle, so trials 0 and 1
        // renumber into consecutive id ranges exactly as fresh handles
        // would; and the primary arena merges from the same owner buffer
        // every time.
        let ids = |events: &[Event]| {
            events
                .iter()
                .map(|e| (e.span, e.parent))
                .collect::<Vec<_>>()
        };
        let stream: Vec<Event> = tapped[..2]
            .iter()
            .flat_map(|(events, _)| events.clone())
            .collect();
        assert_eq!(ids(&stream), ids(&merge_shards(recorded_shards(2))));
        assert_eq!(tapped[0].1, tapped[1].1, "owner buffer reused");
        assert_eq!(tapped[0].1, tapped[3].1, "owner buffer reused");
    }

    #[test]
    fn a_panicked_trial_leaves_nothing_for_the_next() {
        let result = std::panic::catch_unwind(|| {
            with_worker_arena(|arena| {
                let mut handle = arena.handle();
                let _ = handle.begin_span(0, || SpanKind::Scope { name: "lost" });
                // A record from another thread waits in the side buffer.
                let foreign = handle.clone();
                std::thread::scope(|scope| {
                    scope.spawn(move || {
                        foreign.emit(1, || Point::Custom {
                            name: "lost",
                            detail: "".into(),
                        })
                    });
                });
                panic!("trial bug");
            })
        });
        assert!(result.is_err());
        let (merger, tapped) = tapped_merger();
        assert!(arena_trial(&merger, 0), "the arena is free again");
        assert_eq!(tapped.lock().unwrap()[0].0, recorded_shards(1)[0]);
    }

    #[test]
    fn a_record_while_the_owner_buffer_is_borrowed_takes_the_locked_path() {
        let tick = |handle: &ObsHandle, clock| {
            handle.emit(clock, || Point::Custom {
                name: "tick",
                detail: "".into(),
            });
        };
        let (merger, tapped) = tapped_merger();
        with_worker_arena(|arena| {
            let handle = arena.handle();
            tick(&handle, 0);
            PRIMARY.with_borrow_mut(|_| tick(&handle, 1));
            tick(&handle, 2);
            arena.submit(&merger, 0);
        });
        let tapped = tapped.lock().unwrap();
        let events = &tapped[0].0;
        let fields = |f: fn(&Event) -> u64| events.iter().map(f).collect::<Vec<_>>();
        assert_eq!(fields(|e| e.clock), [0, 1, 2]);
        assert_eq!(fields(|e| e.seq), [0, 1, 2]);
    }

    #[test]
    fn collector_record_batch_equals_a_record_loop() {
        let shards = recorded_shards(4);
        let batched = CollectorObserver::new();
        let looped = CollectorObserver::new();
        for shard in &shards {
            batched.record_batch(shard);
            batched.record_batch(&[]);
            for &event in shard {
                looped.record(event);
            }
        }
        assert_eq!(batched.into_events(), looped.into_events());
    }

    #[test]
    fn in_order_submissions_never_buffer() {
        let sink = Arc::new(CollectorObserver::new());
        let merger = StreamingMerger::new(sink.clone());
        for i in 0..8 {
            let collector = Arc::new(CollectorObserver::new());
            let mut handle = ObsHandle::new(collector.clone());
            record_trial(&mut handle, i);
            merger.submit(i as usize, &mut collector.take());
        }
        assert_eq!(merger.forwarded(), 8);
        assert_eq!(
            merger.peak_buffered(),
            1,
            "in-order submissions bypass the pending map"
        );
        assert_eq!(sink.take().len(), 8 * 4);
    }
}
