//! Zero-allocation guarantee for the steady-state traced hot path.
//!
//! One test, alone in its own integration binary: it installs a counting
//! `#[global_allocator]`, and sharing the process with other tests would
//! let their allocations race the measurement.
//!
//! The contract under test: once the per-worker arena and the ring sink
//! are warm, recording a traced trial — restart the arena's pooled
//! handle, open spans, emit points, close spans, and merge the owner
//! buffer in place into the sink as one batch — performs **zero** heap
//! allocations. Every dynamic string is an interned [`Symbol`], every
//! event is `Copy`, the handle's span-id allocator is pooled with the
//! arena, the owner buffer keeps its capacity across trials, and the
//! in-order merge path never touches the pending map.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use redundancy_core::obs::{
    with_worker_arena, CostSnapshot, Observer, Point, RingBufferObserver, SpanKind, SpanStatus,
    StreamingMerger, Symbol,
};

/// Counts every allocation and reallocation made while the *current
/// thread* is inside the measured window. The filter matters: libtest's
/// harness thread allocates at its own pace, and a process-wide count
/// would race it. Frees are not interesting here (a path that frees
/// without allocating cannot leak allocations into the steady state).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are being measured.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    // `try_with` never initializes a destroyed TLS slot; a thread that is
    // tearing down simply stops counting.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Events each traced trial records (trial span + variant span + one
/// point = 2 begins, 1 point, 2 ends).
const EVENTS_PER_TRIAL: u64 = 5;

/// One steady-state traced trial, exactly as the campaign driver runs
/// it at jobs=1: spans and points recorded through the arena handle,
/// then the arena submitted to the merger, which streams it to the sink
/// in order.
fn traced_trial(i: usize, variant: Symbol, rule: Symbol, merger: &StreamingMerger) {
    with_worker_arena(|arena| {
        let mut handle = arena.handle();
        let trial = handle.begin_span(0, || SpanKind::Trial {
            index: i as u64,
            seed: i as u64,
        });
        let var = handle.begin_span(1, || SpanKind::Variant { name: variant });
        handle.emit(2, || Point::Workaround {
            rule,
            applied: true,
        });
        handle.end_span(var, 3, SpanStatus::Ok, CostSnapshot::ZERO);
        handle.end_span(
            trial,
            4,
            SpanStatus::Trial {
                disposition: "correct",
            },
            CostSnapshot::ZERO,
        );
        arena.submit(merger, i);
    });
}

#[test]
fn steady_state_traced_path_allocates_zero_per_event() {
    // Interned before measurement: symbols are a one-time cost by design.
    let variant = Symbol::intern("alloc-test-variant");
    let rule = Symbol::intern("alloc-test-rule");

    let sink = RingBufferObserver::shared(64);
    let merger = StreamingMerger::new(sink.clone() as Arc<dyn Observer>);

    // Warmup: arena creation, first owner-buffer growth, ring fill,
    // telemetry thread-locals — every one-time cost the steady state
    // amortizes.
    const WARMUP: usize = 32;
    const MEASURED: usize = 512;
    for i in 0..WARMUP {
        traced_trial(i, variant, rule, &merger);
    }

    MEASURING.with(|m| m.set(true));
    for i in WARMUP..WARMUP + MEASURED {
        traced_trial(i, variant, rule, &merger);
    }
    MEASURING.with(|m| m.set(false));
    let measured_allocations = ALLOCATIONS.load(Ordering::Relaxed);

    // Sanity: the events actually flowed end to end.
    assert_eq!(merger.forwarded(), WARMUP + MEASURED);
    assert_eq!(sink.len(), sink.capacity());
    assert_eq!(
        sink.dropped(),
        (WARMUP + MEASURED) as u64 * EVENTS_PER_TRIAL - sink.capacity() as u64
    );

    assert_eq!(
        measured_allocations,
        0,
        "steady-state traced path must not allocate \
         ({MEASURED} trials, {} events)",
        MEASURED as u64 * EVENTS_PER_TRIAL
    );
}
