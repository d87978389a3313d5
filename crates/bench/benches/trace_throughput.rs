//! Traced vs untraced campaign overhead (host-time).
//!
//! The question this family answers: what does full execution tracing
//! *cost* on top of an otherwise identical campaign? Each worker count
//! benches the untraced driver and its traced twin **back to back** —
//! on a noisy host, thermal and scheduling drift between measurements
//! taken minutes apart easily exceeds the per-event cost being
//! measured, so only adjacent measurements make a meaningful ratio.
//!
//! The traced path under test is the zero-allocation hot path: interned
//! [`Symbol`]s for every dynamic label, `Copy` events, an owned
//! [`Trace`] per worker (recycled across its trials, with forked
//! contexts joined back into it), and the streaming merger's in-place
//! merge, one sink batch per run of up to
//! [`RUN_TRIALS`](redundancy_sim::trial::RUN_TRIALS) trials. The `trace_alloc`
//! integration test pins the zero-allocations-per-event claim; this
//! bench records what that buys in wall-clock terms. Run with
//! `CRITERION_JSON_OUT=BENCH_campaign.json` (see `make bench-campaign`)
//! to mirror the numbers into JSON.
//!
//! [`Symbol`]: redundancy_core::obs::Symbol
//! [`Trace`]: redundancy_core::obs::Trace

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::RingBufferObserver;
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_sim::trial::{Campaign, TrialOutcome};

const TRIALS: usize = 1000;
const CAMPAIGN_SEED: u64 = 2008;
const WORK: u64 = 25;
const DENSITY: f64 = 0.25;
/// Event capacity of the traced benches' ring sink — much smaller than
/// the campaign's total event count, so the bench exercises the
/// bounded-sink path the streaming merge exists for.
const RING_CAPACITY: usize = 4096;

fn golden(x: &u64) -> u64 {
    x * 2
}

/// The same 3-version NVP ensemble `campaign_throughput` runs: each
/// version carries its own seeded Bohrbug, trials cost well under a
/// microsecond — the adversarial case for tracing overhead.
fn nvp_pattern() -> ParallelEvaluation<u64, u64> {
    let plan = FaultPlan::bohrbugs(7, 3, DENSITY);
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            WORK,
            golden,
            move |c, _| c + shift,
        ));
        pattern.push_variant(variant);
    }
    pattern
}

fn traced_nvp_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    i: usize,
) -> TrialOutcome {
    let input = i as u64;
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

fn nvp_trial(pattern: &ParallelEvaluation<u64, u64>, seed: u64, i: usize) -> TrialOutcome {
    let mut ctx = ExecContext::new(seed);
    traced_nvp_trial(pattern, &mut ctx, i)
}

fn bench_trace(c: &mut Criterion) {
    let pattern = nvp_pattern();
    let campaign = Campaign::new(TRIALS);

    // Guard before timing: tracing must never change what the campaign
    // computes, only how long it takes.
    let untraced = campaign.run(CAMPAIGN_SEED, |seed, i| nvp_trial(&pattern, seed, i));
    for jobs in [1usize, 2, 8] {
        let traced = campaign.run_traced_parallel(
            CAMPAIGN_SEED,
            jobs,
            RingBufferObserver::shared(RING_CAPACITY),
            |ctx, _seed, i| traced_nvp_trial(&pattern, ctx, i),
        );
        assert_eq!(untraced, traced, "traced summary diverged at jobs={jobs}");
    }

    let mut group = c.benchmark_group("trace");
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("untraced_{TRIALS}_jobs"), jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    campaign
                        .run_parallel(CAMPAIGN_SEED, jobs, |seed, i| nvp_trial(&pattern, seed, i))
                });
            },
        );
        // The sink is reused across iterations (it overwrites in place),
        // so the measurement sees steady-state arena/pool recycling
        // rather than first-iteration warmup.
        let sink = RingBufferObserver::shared(RING_CAPACITY);
        group.bench_with_input(
            BenchmarkId::new(format!("traced_{TRIALS}_jobs"), jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    campaign.run_traced_parallel(
                        CAMPAIGN_SEED,
                        jobs,
                        sink.clone(),
                        |ctx, _seed, i| traced_nvp_trial(&pattern, ctx, i),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
