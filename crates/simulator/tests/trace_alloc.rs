//! Zero-allocation guarantee for the steady-state traced hot path.
//!
//! One test, alone in its own integration binary: it installs a counting
//! `#[global_allocator]`, and sharing the process with other tests would
//! let their allocations race the measurement.
//!
//! The contract under test: once the worker's recycled trace and the
//! ring sink are warm, recording a traced trial — open spans in the
//! trial's context, fork a child context that records its own span and
//! point, join it, close the trial span, and hand the trace's buffer to
//! the merger, which forwards it in place into the sink as one batch —
//! performs **zero** heap allocations. Every dynamic string is an
//! interned [`Symbol`], every event is `Copy`, the fork reuses the child
//! trace the previous trial's join recycled, the buffers keep their
//! capacity across trials, and the in-order merge path never touches the
//! pending map.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use redundancy_core::context::ExecContext;
use redundancy_core::cost::Cost;
use redundancy_core::obs::{
    Observer, Point, RingBufferObserver, SpanKind, SpanStatus, StreamingMerger, Symbol, Trace,
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
/// it at jobs=1: the trial's context records into the worker's trace, a
/// forked child records the variant span and is joined, and the trace's
/// events go to the merger, which streams them to the sink in order.
fn traced_trial(
    trace: &mut Option<Trace>,
    i: usize,
    variant: Symbol,
    rule: Symbol,
    merger: &StreamingMerger,
) {
    let mut ctx = ExecContext::new(i as u64).with_trace(trace.take().unwrap_or_default());
    let span = ctx.obs_begin(|| SpanKind::Trial {
        index: i as u64,
        seed: i as u64,
    });
    let mut child = ctx.fork(0);
    let var = child.obs_begin(|| SpanKind::Variant { name: variant });
    child.charge(1).expect("no fuel budget");
    child.obs_emit(|| Point::Workaround {
        rule,
        applied: true,
    });
    child.obs_end(var, SpanStatus::Ok, child.cost().snapshot());
    ctx.add_sequential_cost(child.cost());
    ctx.join(child);
    ctx.obs_end(
        span,
        SpanStatus::Trial {
            disposition: "correct",
        },
        Cost::ZERO.snapshot(),
    );
    let mut recorded = ctx.take_trace().expect("the trial's trace");
    recorded.hand_off(|events| merger.submit(i, events));
    *trace = Some(recorded);
}

#[test]
fn steady_state_traced_path_allocates_zero_per_event() {
    // Interned before measurement: symbols are a one-time cost by design.
    let variant = Symbol::intern("alloc-test-variant");
    let rule = Symbol::intern("alloc-test-rule");

    let sink = RingBufferObserver::shared(64);
    let merger = StreamingMerger::new(sink.clone() as Arc<dyn Observer>);

    // Warmup: the trace and its first child, first buffer growth, ring
    // fill, telemetry thread-locals — every one-time cost the steady
    // state amortizes.
    const WARMUP: usize = 32;
    const MEASURED: usize = 512;
    let mut trace = None;
    for i in 0..WARMUP {
        traced_trial(&mut trace, i, variant, rule, &merger);
    }

    MEASURING.with(|m| m.set(true));
    for i in WARMUP..WARMUP + MEASURED {
        traced_trial(&mut trace, i, variant, rule, &merger);
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
