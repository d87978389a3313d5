//! The traced run's recording machinery: a counting global allocator,
//! exact per-thread counters, and sampled spans.
//!
//! Everything here is owned by the benchmark and sits *around* the calls
//! into the engines; nothing is compiled into the engines themselves.
//!
//! - **Allocations** are counted by [`CountingAlloc`] while
//!   [`set_alloc_counting`] is on (one relaxed load per allocation
//!   otherwise).
//! - **Counters** ([`Count`]) are exact: every wrapped call bumps one.
//!   Each recording thread owns its own cells, so two workers never
//!   write the same cache line.
//! - **Spans** are sampled. A sampled item opens a root span
//!   ([`item`]); wrapped calls made inside it open nested spans
//!   ([`nested`]). Unsampled items are timed whole instead, so their
//!   mean is known without the spans' overhead. Calls that cannot be
//!   tied to an item (sink records, provider plans) are sampled
//!   1-in-[`SAMPLE`] by call count ([`sampled_call`]) and never subtract
//!   from an enclosing span. A span's self time is its duration minus
//!   its nested children's, corrected for the recorder's own clock reads
//!   (see [`calibrate`]). Spans are kept in memory ([`MAX_KEPT`] per
//!   thread at most) and written out by [`write_spans`] when the run
//!   ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One item in `SAMPLE` gets spans.
pub const SAMPLE: u64 = 64;

/// Upper bound on raw spans each thread keeps for the span file;
/// aggregates keep counting past it.
pub const MAX_KEPT: usize = 50_000;

/// The layers spans are recorded for, named after the modules they wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's trial closure (context set-up and classification).
    Trial,
    /// `ParallelEvaluation::run` (`core::patterns`).
    Patterns,
    /// `Variant::execute` of one NVP version (`faults::variant`).
    Variant,
    /// `Adjudicator::adjudicate_batch_row` (`core::adjudicator`).
    Adjudicator,
    /// `Observer::record` on the ring sink (`obs`).
    Sink,
    /// `PlannedProvider::plan` (`services::provider`).
    Provider,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 6] = [
        Layer::Trial,
        Layer::Patterns,
        Layer::Variant,
        Layer::Adjudicator,
        Layer::Sink,
        Layer::Provider,
    ];

    /// The span name written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trial => "bench.trial",
            Layer::Patterns => "core.patterns",
            Layer::Variant => "faults.variant",
            Layer::Adjudicator => "core.adjudicator",
            Layer::Sink => "obs.sink",
            Layer::Provider => "services.provider",
        }
    }
}

/// Exact event counters bumped by the wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// `Variant::execute` calls.
    VariantCalls,
    /// `Variant::execute` calls that returned an error.
    VariantFailed,
    /// Votes taken by the wrapped adjudicator.
    Votes,
    /// Votes that rejected (no verdict).
    VotesRejected,
    /// Events recorded by the wrapped sink.
    SinkEvents,
    /// `PlannedProvider::plan` calls (attempts dispatched).
    Plans,
    /// Plans whose planned response is a failure.
    PlansFailed,
    /// Items timed whole without spans (the unsampled ones).
    Items,
    /// Summed raw host time of those items, ns.
    ItemNs,
}

const COUNTS: usize = 9;

/// Per-layer span totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Summed corrected duration (self plus nested children), ns.
    pub total_ns: f64,
    /// Summed corrected self time, ns.
    pub self_ns: f64,
}

impl LayerTotals {
    /// Mean corrected duration per span, ns (0 without spans).
    #[must_use]
    pub fn mean_total(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns / self.spans as f64
        }
    }

    /// Mean corrected self time per span, ns (0 without spans).
    #[must_use]
    pub fn mean_self(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ns / self.spans as f64
        }
    }
}

/// One recorded span, as written to the span file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Layer the span wraps.
    pub layer: Layer,
    /// Span id (unique per run).
    pub id: u64,
    /// Enclosing span id, 0 for a root.
    pub parent: u64,
    /// Item (trial index or call number) the span belongs to.
    pub item: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// What one thread recorded; shared with the collector.
#[derive(Default)]
struct ThreadShared {
    counts: [AtomicU64; COUNTS],
    data: Mutex<ThreadData>,
}

#[derive(Default)]
struct ThreadData {
    totals: [LayerTotals; Layer::ALL.len()],
    spans: Vec<SpanRec>,
}

/// An open span on a thread's stack.
struct Open {
    layer: Layer,
    id: u64,
    start: u64,
    /// Raw (uncorrected) duration of nested children.
    children_raw: u64,
    /// Corrected duration of nested children.
    children_total: f64,
    nested_children: u32,
}

struct ThreadRec {
    shared: Arc<ThreadShared>,
    /// Next span id: the thread's registry index in the high bits, a
    /// local counter below, so no id is shared across threads.
    next_id: u64,
    stack: Vec<Open>,
    /// The sampled item whose spans are open, if any.
    item: Option<u64>,
    /// Wrapped calls seen per layer, for call-count sampling.
    calls: [u64; Layer::ALL.len()],
    /// Spans finished since the last flush to `shared`.
    pending: Vec<(SpanRec, f64, f64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Calibrated clock-read time inside a span's own interval, ns (f64 bits).
static C_IN: AtomicU64 = AtomicU64::new(0);
/// Calibrated extra time a nested child costs its parent, ns (f64 bits).
static C_OUT: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<ThreadShared>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadShared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static REC: RefCell<Option<ThreadRec>> = const { RefCell::new(None) };
}

fn with_rec<R>(f: impl FnOnce(&mut ThreadRec) -> R) -> R {
    REC.with(|cell| {
        let mut slot = cell.borrow_mut();
        let rec = slot.get_or_insert_with(|| {
            let shared = Arc::new(ThreadShared::default());
            let mut registry = registry()
                .lock()
                .expect("probe registry lock is never poisoned");
            registry.push(Arc::clone(&shared));
            ThreadRec {
                shared,
                next_id: ((registry.len() as u64) << 40) + 1,
                stack: Vec::with_capacity(8),
                item: None,
                calls: [0; Layer::ALL.len()],
                pending: Vec::with_capacity(64),
            }
        });
        f(rec)
    })
}

/// Switches counters and spans on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether counters and spans are being recorded.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Bumps an exact counter on the calling thread's own cell.
#[inline]
pub fn count(which: Count, delta: u64) {
    if enabled() {
        with_rec(|rec| {
            rec.shared.counts[which as usize].fetch_add(delta, Ordering::Relaxed);
        });
    }
}

fn begin(rec: &mut ThreadRec, layer: Layer) {
    let id = rec.next_id;
    rec.next_id += 1;
    rec.stack.push(Open {
        layer,
        id,
        start: now_ns(),
        children_raw: 0,
        children_total: 0.0,
        nested_children: 0,
    });
}

/// Closes the top span; `nested` says whether its parent subtracts it.
fn end(rec: &mut ThreadRec, item: u64, nested: bool) {
    let end_ns = now_ns();
    let open = rec.stack.pop().expect("span end matches a begin");
    let raw = end_ns.saturating_sub(open.start);
    let c_in = f64::from_bits(C_IN.load(Ordering::Relaxed));
    let c_out = f64::from_bits(C_OUT.load(Ordering::Relaxed));
    let self_ns =
        (raw as f64 - c_in - open.children_raw as f64 - f64::from(open.nested_children) * c_out)
            .max(0.0);
    let total_ns = self_ns + open.children_total;
    let parent = rec.stack.last_mut();
    let parent_id = parent.as_ref().map_or(0, |p| p.id);
    if nested {
        if let Some(parent) = parent {
            parent.children_raw += raw;
            parent.children_total += total_ns;
            parent.nested_children += 1;
        }
    }
    rec.pending.push((
        SpanRec {
            layer: open.layer,
            id: open.id,
            parent: parent_id,
            item,
            start_ns: open.start,
            end_ns,
        },
        total_ns,
        self_ns,
    ));
    if rec.stack.is_empty() {
        flush(rec);
    }
}

fn flush(rec: &mut ThreadRec) {
    let mut data = rec
        .shared
        .data
        .lock()
        .expect("probe thread data lock is never poisoned");
    for (span, total_ns, self_ns) in rec.pending.drain(..) {
        let totals = &mut data.totals[span.layer as usize];
        totals.spans += 1;
        totals.total_ns += total_ns;
        totals.self_ns += self_ns;
        if data.spans.len() < MAX_KEPT {
            data.spans.push(span);
        }
    }
}

/// Runs `f` as item `item`. When `sampled`, inside a root span of
/// `layer` that wrapped calls made by `f` nest under; otherwise timed
/// whole (two clock reads, no spans) into [`Count::ItemNs`], so the
/// mean item time is known exactly and without the spans' overhead.
#[inline]
pub fn item<R>(layer: Layer, item: u64, sampled: bool, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    if !sampled {
        let start = now_ns();
        let result = f();
        let ns = now_ns() - start;
        with_rec(|rec| {
            rec.shared.counts[Count::Items as usize].fetch_add(1, Ordering::Relaxed);
            rec.shared.counts[Count::ItemNs as usize].fetch_add(ns, Ordering::Relaxed);
        });
        return result;
    }
    with_rec(|rec| {
        rec.item = Some(item);
        begin(rec, layer);
    });
    let result = f();
    with_rec(|rec| {
        end(rec, item, true);
        rec.item = None;
    });
    result
}

/// Runs a wrapped call of `layer`; records a nested span when the
/// calling thread is inside a sampled item.
#[inline]
pub fn nested<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let item = with_rec(|rec| {
        let item = rec.item?;
        begin(rec, layer);
        Some(item)
    });
    let result = f();
    if let Some(item) = item {
        with_rec(|rec| end(rec, item, true));
    }
    result
}

/// Runs a wrapped call of `layer` that belongs to no item; every
/// [`SAMPLE`]th such call on a thread records a span that does not
/// subtract from any enclosing span.
#[inline]
pub fn sampled_call<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let call = with_rec(|rec| {
        let n = rec.calls[layer as usize];
        rec.calls[layer as usize] += 1;
        if n.is_multiple_of(SAMPLE) {
            begin(rec, layer);
            Some(n)
        } else {
            None
        }
    });
    let result = f();
    if let Some(n) = call {
        with_rec(|rec| end(rec, n, false));
    }
    result
}

/// Everything recorded since the last [`reset`].
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Exact counters, indexed by [`Count`].
    pub counts: [u64; COUNTS],
    /// Span totals, indexed by [`Layer`].
    pub totals: [LayerTotals; Layer::ALL.len()],
    /// Raw spans kept (at most [`MAX_KEPT`] per thread).
    pub spans: Vec<SpanRec>,
}

impl Collected {
    /// An exact counter.
    #[must_use]
    pub fn count(&self, which: Count) -> u64 {
        self.counts[which as usize]
    }

    /// A layer's span totals.
    #[must_use]
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.totals[layer as usize]
    }
}

/// Sums every thread's counters and spans. Call between passes, when no
/// wrapped call is running.
#[must_use]
pub fn collect() -> Collected {
    let mut out = Collected::default();
    for shared in registry()
        .lock()
        .expect("probe registry lock is never poisoned")
        .iter()
    {
        for (total, cell) in out.counts.iter_mut().zip(&shared.counts) {
            *total += cell.load(Ordering::Relaxed);
        }
        let data = shared
            .data
            .lock()
            .expect("probe thread data lock is never poisoned");
        for (total, layer) in out.totals.iter_mut().zip(&data.totals) {
            total.spans += layer.spans;
            total.total_ns += layer.total_ns;
            total.self_ns += layer.self_ns;
        }
        out.spans.extend_from_slice(&data.spans);
    }
    out.spans.sort_by_key(|span| (span.start_ns, span.id));
    out
}

/// Zeroes every thread's counters and spans.
pub fn reset() {
    for shared in registry()
        .lock()
        .expect("probe registry lock is never poisoned")
        .iter()
    {
        for cell in &shared.counts {
            cell.store(0, Ordering::Relaxed);
        }
        let mut data = shared
            .data
            .lock()
            .expect("probe thread data lock is never poisoned");
        *data = ThreadData::default();
    }
}

/// Measures the recorder's own cost on this host and stores the
/// corrections spans are adjusted by: the time an empty nested span
/// reports for itself (`c_in`, mostly one clock read) and the extra time
/// each nested child adds to its parent beyond its own duration
/// (`c_out`). It measures on `threads` threads at once, so a clock read
/// costs what it costs while the workload keeps every core busy.
/// Returns `(c_in, c_out)` in ns.
pub fn calibrate(threads: usize) -> (f64, f64) {
    const ROUNDS: u64 = 400;
    const CHILDREN: u32 = 8;
    let was = enabled();
    C_IN.store(0f64.to_bits(), Ordering::Relaxed);
    C_OUT.store(0f64.to_bits(), Ordering::Relaxed);
    reset();
    set_enabled(true);
    let rounds = || {
        let mut bare = Vec::new();
        let mut with_children = Vec::new();
        for round in 0..ROUNDS {
            for (children, out) in [(0, &mut bare), (CHILDREN, &mut with_children)] {
                let start = now_ns();
                item(Layer::Trial, round, true, || {
                    for _ in 0..children {
                        nested(Layer::Variant, || std::hint::black_box(()));
                    }
                });
                out.push((now_ns() - start) as f64);
            }
        }
        (bare, with_children)
    };
    let (mut bare, mut with_children) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads.max(1)).map(|_| scope.spawn(rounds)).collect();
        let mut merge = |(b, w): (Vec<f64>, Vec<f64>)| {
            bare.extend(b);
            with_children.extend(w);
        };
        merge(rounds());
        for other in others {
            merge(other.join().expect("calibration thread never panics"));
        }
    });
    set_enabled(was);
    let empty: Vec<f64> = collect()
        .spans
        .iter()
        .filter(|span| span.layer == Layer::Variant)
        .map(|span| (span.end_ns - span.start_ns) as f64)
        .collect();
    // The calibration spans must not leak into the real passes.
    reset();
    let c_in = crate::stats::median(&empty);
    let per_child =
        (crate::stats::median(&with_children) - crate::stats::median(&bare)) / f64::from(CHILDREN);
    let c_out = (per_child - c_in).max(0.0);
    C_IN.store(c_in.to_bits(), Ordering::Relaxed);
    C_OUT.store(c_out.to_bits(), Ordering::Relaxed);
    (c_in, c_out)
}

/// The calibrated `(c_in, c_out)` in effect, ns.
#[must_use]
pub fn span_cost() -> (f64, f64) {
    (
        f64::from_bits(C_IN.load(Ordering::Relaxed)),
        f64::from_bits(C_OUT.load(Ordering::Relaxed)),
    )
}

/// Writes `spans` as tab-separated lines (`name id parent item start_ns
/// end_ns`) to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\titem\tstart_ns\tend_ns")?;
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            span.layer.name(),
            span.id,
            span.parent,
            span.item,
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

/// A global allocator that counts allocations and bytes while
/// [`set_alloc_counting`] is on and otherwise only forwards to
/// [`System`].
pub struct CountingAlloc;

static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    #[inline]
    fn note(size: usize) {
        if ALLOC_ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator;
        // the caller guarantees `new_size` is valid for `layout`'s align.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn set_alloc_counting(on: bool) {
    ALLOC_ON.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far (reallocations count once,
/// with their new size).
#[must_use]
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
