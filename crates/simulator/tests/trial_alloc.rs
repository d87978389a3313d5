//! Heap allocations per real campaign trial, pinned.
//!
//! One test, alone in its own integration binary: it installs a counting
//! `#[global_allocator]` (the same thread-filtered counter as
//! `trace_alloc.rs`), and sharing the process with other tests would let
//! their allocations race the measurement.
//!
//! The trial is the 3-version NVP shape the repository benchmark runs:
//! `FaultPlan::bohrbugs(7, 3, 0.25)` versions voted by `MajorityVoter`,
//! at `jobs = 1`, through the untraced, traced (into a warmed ring) and
//! resumable (checkpoint interval 32) runners. Campaigns of `N` and
//! `2N` trials are counted and differenced, so per-call set-up (the
//! outcome vector, the checkpoint file, the merger) cancels out and what
//! remains is the per-trial cost: exactly one allocation, the
//! `PatternReport::outcomes` vector. Variant identities are interned
//! symbols, the checkpoint committer serializes into a reused buffer,
//! and trace events are `Copy`, so nothing else on the path allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{Observer, RingBufferObserver};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_sim::{Campaign, CheckpointSpec, TrialOutcome, TrialSummary};

/// Counts every allocation and reallocation made while the *current
/// thread* is inside the measured window (see `trace_alloc.rs`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are being measured.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
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

/// Trials in the smaller of the two differenced campaigns (a multiple
/// of the checkpoint interval, so both end on a full batch).
const N: usize = 512;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn golden(x: &u64) -> u64 {
    x * 2
}

/// The benchmark's NVP ensemble: three Bohrbug-carrying versions.
fn nvp_pattern() -> ParallelEvaluation<u64, u64> {
    let plan = FaultPlan::bohrbugs(7, 3, 0.25);
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            25,
            golden,
            move |c, _| c + shift,
        ));
        pattern.push_variant(variant);
    }
    pattern
}

fn nvp_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    seed: u64,
) -> TrialOutcome {
    let input = seed >> 8;
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

/// Allocations per trial of `run(trials)`: the difference between a
/// `2N`- and an `N`-trial campaign, after one warm-up call.
fn per_trial(run: impl Fn(usize) -> TrialSummary) -> f64 {
    run(N);
    let small = allocations(|| {
        run(N);
    });
    let large = allocations(|| {
        run(2 * N);
    });
    (large - small) as f64 / N as f64
}

#[test]
fn real_trials_allocate_only_their_outcome_vector() {
    let pattern = nvp_pattern();
    let trial = |ctx: &mut ExecContext, seed: u64, _i: usize| nvp_trial(&pattern, ctx, seed);

    let untraced = per_trial(|trials| {
        Campaign::new(trials)
            .run_parallel(1, 1, |seed, i| trial(&mut ExecContext::new(seed), seed, i))
    });

    let ring = RingBufferObserver::shared(4096);
    let sink: Arc<dyn Observer> = ring.clone();
    let traced = per_trial(|trials| {
        Campaign::new(trials).run_traced_parallel(1, 1, Arc::clone(&sink), trial)
    });
    assert_eq!(
        ring.len(),
        ring.capacity(),
        "the warm-up call filled the ring"
    );

    let path = std::env::temp_dir().join(format!("redundancy_trial_alloc_{}", std::process::id()));
    let spec = CheckpointSpec::new(&path, 32);
    let resumable = per_trial(|trials| {
        // A fresh file per call, or the campaign would resume it.
        let _ = std::fs::remove_file(&path);
        Campaign::new(trials)
            .run_parallel_resumable(1, 1, &spec, |seed, i| {
                trial(&mut ExecContext::new(seed), seed, i)
            })
            .expect("checkpoint i/o")
    });
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        (untraced, traced, resumable),
        (1.0, 1.0, 1.0),
        "allocations per trial (run_parallel, run_traced_parallel, run_parallel_resumable)"
    );
}
