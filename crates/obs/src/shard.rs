//! Sharded capture: record event streams on independent shards (one per
//! trial) and merge them back into a single stream that is
//! indistinguishable from a serial recording.
//!
//! A parallel Monte-Carlo campaign cannot share one span-id allocator
//! across worker threads without interleaving the streams of concurrent
//! trials and allocating span ids in scheduling order — both of which
//! destroy the deterministic-replay guarantee. Instead, every trial
//! records into a shard of its own (span ids start at 1 per shard: the
//! campaign engine gives each trial a buffering [`Trace`]), and
//! [`merge_shards`] stitches the shards together in trial order,
//! renumbering span ids exactly as one shared allocator would have
//! assigned them. The merged stream is therefore *bit-for-bit identical*
//! to what the serial traced run records, so every downstream consumer —
//! `split_trials`, `TraceSummary`, exporters — works unchanged on
//! parallel campaigns. The [`StreamingMerger`] is the streaming form: it
//! forwards each finished trial to the sink in one
//! [`Observer::record_batch`] call, straight from the trial's buffer.
//! [`CollectorObserver`] is the plain, locked shard for everything else.
//!
//! [`Trace`]: crate::Trace

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::event::{Event, EventKind, ROOT_SPAN};
use crate::observer::Observer;

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
        self.record_batch(&[event]);
    }

    /// Appends `events`, each with its position as `seq`.
    fn record_batch(&self, events: &[Event]) {
        let mut collected = self.lock();
        let first = collected.len() as u64;
        collected.extend(
            events
                .iter()
                .zip(first..)
                .map(|(&event, seq)| Event { seq, ..event }),
        );
    }
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
/// Shard-local recorders allocate ids `1..=k` contiguously in span-start
/// order (see [`Trace::new`](crate::Trace::new)), so the remap is
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

/// Merges shard streams (each recorded with span ids starting at 1, as
/// a fresh [`Trace`](crate::Trace) numbers them) into one flat stream, in shard
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
/// block until the gap trial arrives, making the bound a hard guarantee
/// for them; the submitter owning the gap trial can never block, so the
/// window cannot deadlock (chunks are claimed in index order). A trial
/// that runs above another on the same thread — the worker pool's
/// help-drain can run one while a trial waits on a nested region —
/// submits with [`submit_nested`](Self::submit_nested), which never
/// waits: the trial it would wait for may be the one suspended below it.
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
    /// Shards submitted out of order, waiting for the gap to fill, each
    /// with whether it came from [`StreamingMerger::submit`] (as opposed
    /// to `submit_nested`).
    pending: BTreeMap<usize, (Vec<Event>, bool)>,
    /// How many of `pending` came from `submit`.
    windowed: usize,
    /// Emptied buffers of forwarded pending shards, handed to later
    /// out-of-order submitters in exchange for theirs.
    spare: Vec<Vec<Event>>,
    /// High-water mark of `windowed`, counting the shard being submitted.
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
                windowed: 0,
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
    /// successors) if the merge frontier has reached it. With a window,
    /// a submission `window` or more trials ahead of the frontier first
    /// waits for it.
    ///
    /// The frontier trial is renumbered, tapped and forwarded straight
    /// from `events`, which is left empty with its capacity. Only an
    /// out-of-order submission moves its events into the merger; `events`
    /// then comes back as an empty spare buffer.
    ///
    /// Each index must be submitted exactly once; indices must cover
    /// `0..n` by the time the campaign ends or later shards stay queued.
    pub fn submit(&self, index: usize, events: &mut Vec<Event>) {
        self.submit_within(index, events, true);
    }

    /// Like [`submit`](Self::submit), but never waits on the window: for
    /// a trial running above another one, suspended on the same thread,
    /// whose submission the window could make it wait for. Such a shard
    /// does not count towards [`peak_buffered`](Self::peak_buffered).
    pub fn submit_nested(&self, index: usize, events: &mut Vec<Event>) {
        self.submit_within(index, events, false);
    }

    /// Submits as [`submit`](Self::submit) does, waiting on the window
    /// only when `windowed`.
    fn submit_within(&self, index: usize, events: &mut Vec<Event>, windowed: bool) {
        let mut state = self.state.lock().expect("merger lock never poisoned");
        if let Some(window) = self.window.filter(|_| windowed) {
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
        if windowed {
            state.peak_buffered = state.peak_buffered.max(state.windowed + 1);
        }
        if index != state.next {
            // Nothing can be forwarded until the frontier trial arrives.
            let spare = state
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(events.len()));
            state
                .pending
                .insert(index, (std::mem::replace(events, spare), windowed));
            state.windowed += usize::from(windowed);
            return;
        }
        // In-order fast path: the frontier trial's shard never touches the
        // pending map (a BTreeMap insert+remove allocates a node per trial,
        // which at jobs=1 is every trial).
        self.forward(&mut state, events);
        let mut forwarded = 1u64;
        loop {
            let next = state.next;
            let Some((mut shard, windowed)) = state.pending.remove(&next) else {
                break;
            };
            state.windowed -= usize::from(windowed);
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

    /// High-water mark of simultaneously buffered shards submitted with
    /// [`submit`](Self::submit), counting the one being submitted at the
    /// time. With a window, it never exceeds the window.
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
    use crate::event::{CostSnapshot, SpanKind, SpanStatus};
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

    #[test]
    fn nested_submissions_skip_the_window_and_the_peak() {
        let shards = recorded_shards(6);
        let expected = merge_shards(shards.clone());
        let sink = Arc::new(CollectorObserver::new());
        let merger = StreamingMerger::new(sink.clone()).with_window(2);
        // Both sit at least a window past the frontier (0): a windowed
        // submission would block this very thread forever.
        merger.submit_nested(5, &mut shards[5].clone());
        merger.submit_nested(3, &mut shards[3].clone());
        assert_eq!(merger.forwarded(), 0);
        assert_eq!(merger.peak_buffered(), 0, "nested shards are not counted");
        merger.submit(1, &mut shards[1].clone());
        assert_eq!(merger.peak_buffered(), 1);
        for i in [0, 2, 4] {
            merger.submit(i, &mut shards[i].clone());
        }
        assert_eq!(merger.forwarded(), 6);
        assert!(merger.peak_buffered() <= 2);
        assert_eq!(sink.take(), expected);
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
