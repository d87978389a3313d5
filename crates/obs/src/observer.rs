//! Observers: where recorded events go.
//!
//! The [`Observer`] trait is the single sink interface. Instrumented code
//! never calls it directly: it records into an execution context's
//! [`Trace`](crate::Trace), which buffers events and hands them over
//! whole — a root trace attached to an [`ObsHandle`] delivers each
//! finished unit as one [`Observer::record_batch`], and the campaign
//! engine's merger delivers one batch per run of trials. When no trace is
//! attached (the default) instrumentation is a single `Option` test; a
//! disabled observer (e.g. [`NoopObserver`]) is never attached, so event
//! payloads are not even built. Either way the hot path never allocates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::shard::renumber_in_place;

/// A sink for [`Event`]s.
///
/// Implementations must be thread-safe: the `Threaded` execution mode
/// records from several variant threads at once.
pub trait Observer: Send + Sync {
    /// Whether this observer wants events at all. Instrumentation caches
    /// this at attach time and skips event construction when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. The observer assigns the event's global `seq`.
    fn record(&self, event: Event);

    /// Records `events` in order, with exactly the effect of calling
    /// [`record`](Self::record) on each of them in turn: the same `seq`
    /// values, the same retained events, the same drop counts. The
    /// default does just that; sinks override it to pay their locking
    /// once per batch instead of once per event. Traced contexts hand
    /// every sink their events in batches: one per unit of a root trace,
    /// one per run of consecutive trials from the campaign engine's
    /// merge.
    fn record_batch(&self, events: &[Event]) {
        for &event in events {
            self.record(event);
        }
    }
}

/// The default observer: discards everything and reports itself disabled,
/// so instrumentation never even constructs events.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// Bounded in-memory capture: keeps the most recent `capacity` events,
/// dropping the oldest on overflow (and counting the drops).
///
/// # Examples
///
/// ```
/// use redundancy_obs::{Event, EventKind, Observer, Point, RingBufferObserver};
///
/// let ring = RingBufferObserver::new(2);
/// for i in 0..3 {
///     ring.record(Event {
///         seq: 0,
///         span: 0,
///         parent: 0,
///         clock: i,
///         kind: EventKind::Point(Point::Custom {
///             name: "tick",
///             detail: "".into(),
///         }),
///     });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// let events = ring.events();
/// assert_eq!(events[0].seq, 1); // seq 0 was evicted
/// ```
pub struct RingBufferObserver {
    capacity: usize,
    inner: Mutex<Ring>,
}

/// The retained events in a fixed slab: until the slab first fills, the
/// events are `slab` in order and `head` is 0; after that the slab stays
/// `capacity` long, `head` indexes the oldest event and each record
/// overwrites it.
struct Ring {
    slab: Vec<Event>,
    head: usize,
    dropped: u64,
    /// The `seq` of the next recorded event. Assigned under the lock, so
    /// concurrent recorders store their events in `seq` order.
    seq: u64,
}

impl Ring {
    /// The retained events, oldest first, as at most two slices.
    fn as_slices(&self) -> (&[Event], &[Event]) {
        let (newest, oldest) = self.slab.split_at(self.head);
        (oldest, newest)
    }

    /// Copies `src` over the slab from slot `at`, numbering it from `seq`.
    fn write(&mut self, at: usize, src: &[Event], seq: u64) {
        let dst = &mut self.slab[at..at + src.len()];
        dst.copy_from_slice(src);
        number(dst, seq);
    }
}

/// Numbers `events` consecutively from `first`.
fn number(events: &mut [Event], first: u64) {
    for (event, seq) in events.iter_mut().zip(first..) {
        event.seq = seq;
    }
}

impl RingBufferObserver {
    /// Creates a ring buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferObserver {
            capacity,
            inner: Mutex::new(Ring {
                slab: Vec::with_capacity(capacity),
                head: 0,
                dropped: 0,
                seq: 0,
            }),
        }
    }

    /// Convenience: a new ring behind an `Arc`, ready to attach.
    #[must_use]
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().slab.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().slab.is_empty()
    }

    /// Number of events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies the retained events out, oldest first.
    ///
    /// The output vector is allocated *before* the lock is taken and the
    /// buffer never exceeds `capacity`, so the critical section is two
    /// bulk memcpys — recording threads are not stalled behind an
    /// element-by-element clone.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.capacity);
        let inner = self.lock();
        let (front, back) = inner.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        out
    }

    /// Takes the retained events out, leaving the buffer empty (the drop
    /// counter and sequence numbering continue).
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        let mut inner = self.lock();
        let (front, back) = inner.as_slices();
        let taken = [front, back].concat();
        inner.slab.clear();
        inner.head = 0;
        taken
    }

    /// Clears the buffer and the drop counter.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.slab.clear();
        inner.head = 0;
        inner.dropped = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.inner
            .lock()
            .expect("ring buffer lock is never poisoned")
    }
}

impl Observer for RingBufferObserver {
    fn record(&self, mut event: Event) {
        let mut inner = self.lock();
        event.seq = inner.seq;
        inner.seq += 1;
        if inner.slab.len() < self.capacity {
            inner.slab.push(event);
        } else {
            let head = inner.head;
            inner.slab[head] = event;
            inner.head = (head + 1) % self.capacity;
            inner.dropped += 1;
        }
    }

    /// One lock and one `seq` range for the whole batch. Only the newest
    /// `capacity` events of a batch can survive it: the ones before them
    /// are numbered and counted as dropped without being stored. The rest
    /// land in at most two slice copies.
    fn record_batch(&self, events: &[Event]) {
        let inner = &mut *self.lock();
        let skipped = events.len().saturating_sub(self.capacity);
        let kept = &events[skipped..];
        let first = inner.seq + skipped as u64;
        inner.seq += events.len() as u64;
        inner.dropped += skipped as u64;
        // First copy: into the free tail of a slab that has not filled
        // yet, or over the oldest events from `head` to the slab's end.
        let len = inner.slab.len();
        let split = if len < self.capacity {
            let split = (self.capacity - len).min(kept.len());
            inner.slab.extend_from_slice(&kept[..split]);
            number(&mut inner.slab[len..], first);
            split
        } else {
            let head = inner.head;
            let split = (self.capacity - head).min(kept.len());
            inner.write(head, &kept[..split], first);
            inner.head = (head + split) % self.capacity;
            inner.dropped += split as u64;
            split
        };
        // Second copy: what did not fit overwrites the oldest events from
        // slot 0, since the first copy filled the slab or reached its end.
        let rest = &kept[split..];
        if !rest.is_empty() {
            inner.write(0, rest, first + split as u64);
            inner.head = rest.len();
            inner.dropped += rest.len() as u64;
        }
    }
}

/// Broadcasts every event to several sinks (e.g. an aggregating observer
/// and a [`RingBufferObserver`] capturing the raw stream).
///
/// Enabled iff any sink is enabled; disabled sinks are skipped per event.
pub struct FanoutObserver {
    sinks: Vec<Arc<dyn Observer>>,
}

impl FanoutObserver {
    /// Wraps the given sinks.
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Self {
        FanoutObserver { sinks }
    }
}

impl Observer for FanoutObserver {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: Event) {
        // Hand the incoming event itself to the final enabled sink
        // instead of copying for every sink including the last.
        let mut enabled = self.sinks.iter().filter(|s| s.enabled());
        let Some(mut current) = enabled.next() else {
            return;
        };
        for next in enabled {
            current.record(event);
            current = next;
        }
        current.record(event);
    }

    /// Every enabled sink gets the same borrowed batch: nothing is copied.
    fn record_batch(&self, events: &[Event]) {
        for sink in self.sinks.iter().filter(|s| s.enabled()) {
            sink.record_batch(events);
        }
    }
}

/// A shared delivery point for root traces: an observer and the span-id
/// allocator of one id space.
///
/// Every root [`Trace`](crate::Trace) [`attached`](crate::Trace::attached)
/// to a clone of one handle hands it finished units; the handle takes each
/// unit's span ids from the shared allocator, so all of them number their
/// spans in one sequence (e.g. every trial of a serial traced campaign),
/// and delivers the unit as one [`Observer::record_batch`]. Observer and
/// allocator sit behind one `Arc`, so a clone costs one refcount bump.
#[derive(Clone)]
pub struct ObsHandle(Arc<HandleShared>);

/// What every clone of one [`ObsHandle`] shares.
struct HandleShared {
    observer: Arc<dyn Observer>,
    /// The next span id to hand out.
    ids: AtomicU64,
}

impl ObsHandle {
    /// Wraps an observer. Span ids start at 1.
    #[must_use]
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        ObsHandle(Arc::new(HandleShared {
            observer,
            ids: AtomicU64::new(1),
        }))
    }

    /// The observer this handle feeds.
    #[must_use]
    pub fn observer(&self) -> &Arc<dyn Observer> {
        &self.0.observer
    }

    /// Delivers one finished unit — `spans` span ids numbered from 1 —
    /// with its ids shifted to the next `spans` ids of the allocator.
    pub(crate) fn deliver(&self, unit: &mut [Event], spans: u64) {
        let first = self.0.ids.fetch_add(spans, Ordering::Relaxed);
        renumber_in_place(unit, first - 1);
        self.0.observer.record_batch(unit);
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("next_span", &self.0.ids.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostSnapshot, EventKind, Point, SpanKind, SpanStatus, ROOT_SPAN};

    fn tick(clock: u64) -> Event {
        Event {
            seq: 0,
            span: 0,
            parent: 0,
            clock,
            kind: EventKind::Point(Point::Custom {
                name: "tick",
                detail: "".into(),
            }),
        }
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let ring = RingBufferObserver::new(3);
        for i in 0..10 {
            ring.record(tick(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 7);
        let events = ring.events();
        // The three newest survive, in order, with continuous seq.
        assert_eq!(
            events.iter().map(|e| e.clock).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn ring_buffer_exactly_at_capacity_does_not_drop() {
        let ring = RingBufferObserver::new(4);
        for i in 0..4 {
            ring.record(tick(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ring_buffer_take_and_clear() {
        let ring = RingBufferObserver::new(2);
        for i in 0..3 {
            ring.record(tick(i));
        }
        let taken = ring.take();
        assert_eq!(taken.len(), 2);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1, "take keeps the drop counter");
        ring.record(tick(9));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0, "clear resets the drop counter");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = RingBufferObserver::new(0);
    }

    /// A root trace on `observer`, through a handle of its own.
    fn attached(observer: Arc<dyn Observer>) -> crate::Trace {
        crate::Trace::attached(ObsHandle::new(observer))
    }

    #[test]
    fn span_nesting_restores_parent() {
        let ring = RingBufferObserver::shared(64);
        let mut trace = attached(ring.clone());
        let outer = trace.begin_span(0, || SpanKind::Scope { name: "outer" });
        let inner = trace.begin_span(1, || SpanKind::Scope { name: "inner" });
        trace.emit(2, || Point::Custom {
            name: "inside",
            detail: "".into(),
        });
        trace.end_span(inner, 3, SpanStatus::Ok, CostSnapshot::ZERO);
        assert!(ring.is_empty(), "the unit is still open");
        trace.end_span(outer, 4, SpanStatus::Ok, CostSnapshot::ZERO);

        let events = ring.events();
        assert_eq!(events.len(), 5);
        // The point is attributed to the inner span; parents chain up,
        // and the end of each span restores its parent.
        assert_eq!(events[2].span, 2);
        assert!(matches!(events[1].kind, EventKind::SpanStart { .. }));
        assert_eq!(events[1].parent, 1);
        assert_eq!((events[3].span, events[3].parent), (2, 1));
        assert_eq!((events[4].span, events[4].parent), (1, ROOT_SPAN));
        assert_eq!(events[0].parent, ROOT_SPAN);
    }

    #[test]
    fn handle_clones_share_one_allocator() {
        let ring = RingBufferObserver::shared(64);
        let handle = ObsHandle::new(ring.clone());
        let mut first = crate::Trace::attached(handle.clone());
        let mut second = crate::Trace::attached(handle);
        let outer = first.begin_span(0, || SpanKind::Scope { name: "outer" });
        let span = second.begin_span(0, || SpanKind::Scope { name: "other" });
        second.end_span(span, 1, SpanStatus::Ok, CostSnapshot::ZERO);
        let mut child = first.fork();
        let child_span = child.begin_span(0, || SpanKind::Scope { name: "child" });
        child.end_span(child_span, 1, SpanStatus::Ok, CostSnapshot::ZERO);
        first.join(child);
        first.end_span(outer, 2, SpanStatus::Ok, CostSnapshot::ZERO);
        let events = ring.events();
        // Units take their ids when delivered: the second trace's unit
        // finished first and took id 1, the first trace's took 2 and 3,
        // its child's span parented under the fork-time span.
        assert_eq!((events[0].span, events[0].parent), (1, ROOT_SPAN));
        assert_eq!((events[2].span, events[2].parent), (2, ROOT_SPAN));
        assert_eq!((events[3].span, events[3].parent), (3, 2));
    }

    #[test]
    fn fanout_broadcasts_to_enabled_sinks() {
        let a = RingBufferObserver::shared(8);
        let b = RingBufferObserver::shared(8);
        let fan = FanoutObserver::new(vec![
            a.clone() as Arc<dyn Observer>,
            Arc::new(NoopObserver),
            b.clone() as Arc<dyn Observer>,
        ]);
        assert!(fan.enabled());
        let mut trace = attached(Arc::new(fan));
        let span = trace.begin_span(0, || SpanKind::Scope { name: "s" });
        trace.end_span(span, 1, SpanStatus::Ok, CostSnapshot::ZERO);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert!(!FanoutObserver::new(vec![Arc::new(NoopObserver)]).enabled());
    }

    #[test]
    fn fanout_two_sinks_both_receive_every_event() {
        // Regression for the last-sink copy: with exactly two sinks, the
        // second (final) sink receives the event by value — both must
        // still see the identical stream.
        let a = RingBufferObserver::shared(8);
        let b = RingBufferObserver::shared(8);
        let fan = FanoutObserver::new(vec![
            a.clone() as Arc<dyn Observer>,
            b.clone() as Arc<dyn Observer>,
        ]);
        for i in 0..5 {
            fan.record(tick(i));
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 5);
        // A disabled final sink must not swallow the event meant for the
        // enabled one before it.
        let c = RingBufferObserver::shared(8);
        let fan = FanoutObserver::new(vec![c.clone() as Arc<dyn Observer>, Arc::new(NoopObserver)]);
        for i in 0..3 {
            fan.record(tick(i));
        }
        assert_eq!(c.len(), 3);
    }

    /// Splitmix steps: a deterministic source of batch sizes.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Batches of 0–20 events, sized from `seed`.
    fn batches(seed: u64) -> Vec<Vec<Event>> {
        let mut clock = 0;
        (0..12)
            .map(|b| {
                let len = mix(seed ^ b) % 21;
                (0..len)
                    .map(|_| {
                        clock += 1;
                        tick(clock)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ring_record_batch_equals_a_record_loop() {
        for capacity in 1..=8 {
            for seed in 0..16 {
                let batched = RingBufferObserver::new(capacity);
                let looped = RingBufferObserver::new(capacity);
                for batch in batches(seed) {
                    batched.record_batch(&batch);
                    for &event in &batch {
                        looped.record(event);
                    }
                    let cell = format!("capacity {capacity}, seed {seed}");
                    assert_eq!(batched.events(), looped.events(), "{cell}");
                    assert_eq!(batched.dropped(), looped.dropped(), "{cell}");
                }
                // The next seq continues from the same place.
                batched.record(tick(0));
                looped.record(tick(0));
                assert_eq!(batched.events(), looped.events());
            }
        }
    }

    #[test]
    fn fanout_record_batch_equals_a_record_loop() {
        let disabled = || Arc::new(NoopObserver) as Arc<dyn Observer>;
        for slot in 0..3 {
            let rings: Vec<_> = (0..4).map(|_| RingBufferObserver::shared(6)).collect();
            let fanout = |rings: &[Arc<RingBufferObserver>]| {
                let mut sinks: Vec<Arc<dyn Observer>> = rings
                    .iter()
                    .map(|ring| Arc::clone(ring) as Arc<dyn Observer>)
                    .collect();
                // The disabled sink goes first, in the middle, or last.
                sinks.insert(slot, disabled());
                FanoutObserver::new(sinks)
            };
            let (batched, looped) = (fanout(&rings[..2]), fanout(&rings[2..]));
            for batch in batches(slot as u64) {
                batched.record_batch(&batch);
                for &event in &batch {
                    looped.record(event);
                }
            }
            for ring in &rings[1..] {
                assert_eq!(ring.events(), rings[0].events(), "disabled sink at {slot}");
                assert_eq!(
                    ring.dropped(),
                    rings[0].dropped(),
                    "disabled sink at {slot}"
                );
            }
            assert!(!rings[0].is_empty());
        }
    }

    #[test]
    fn concurrent_records_are_stored_in_seq_order() {
        const THREADS: usize = 4;
        const RECORDS: usize = 10_000;
        for capacity in [1 << 16, 64] {
            let ring = RingBufferObserver::new(capacity);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        for i in 0..RECORDS {
                            ring.record(tick(i as u64));
                        }
                    });
                }
            });
            let total = (THREADS * RECORDS) as u64;
            let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "capacity {capacity}: retained events out of seq order"
            );
            assert_eq!(ring.len() as u64 + ring.dropped(), total);
            // The retained events are exactly the newest seqs.
            let newest: Vec<u64> = (total - seqs.len() as u64..total).collect();
            assert_eq!(seqs, newest, "capacity {capacity}");
        }
    }
}
