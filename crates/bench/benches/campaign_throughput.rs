//! Serial vs parallel Monte-Carlo campaign throughput (host-time).
//!
//! Three workload families, all driven through [`Campaign`]:
//!
//! - **Light** (`campaign/serial`, `campaign/parallel_*`): the original
//!   1000-trial NVP campaign where each trial costs well under a
//!   microsecond. This is the adversarial case for a parallel driver —
//!   any per-trial scheduling overhead shows up directly.
//! - **Heavy** (`campaign/serial_heavy`, `campaign/parallel_heavy_*`):
//!   100 trials with a deterministic ~10 µs compute spin per trial,
//!   modelling campaigns whose trials do real work. Here chunked
//!   claiming plus the persistent pool should approach linear speedup
//!   on multi-core hosts.
//! - **Traced** (`campaign/traced_parallel_*`): the light campaign with
//!   full execution tracing into a bounded ring sink, measuring the
//!   pooled-shard + streaming-merge path of
//!   [`Campaign::run_traced_parallel`].
//! - **Monitored** (`campaign/monitored_parallel_*`): the light campaign
//!   again, but with the flight recorder live — global telemetry on and
//!   a background [`CampaignMonitor`] sampling it — quantifying the
//!   recorder's overhead against `campaign/parallel_*` (budget: ≤ 2%).
//!   Benched back-to-back with its unmonitored twin at each worker
//!   count so host drift doesn't masquerade as recorder overhead.
//!
//! Every parallel driver is asserted bit-identical to its serial
//! counterpart before anything is timed, so the only thing that varies
//! is wall-clock time. Run with `CRITERION_JSON_OUT=BENCH_campaign.json`
//! (see `make bench-campaign`) to mirror the numbers into JSON.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::RingBufferObserver;
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_sim::trial::{Campaign, TrialOutcome};
use redundancy_sim::{CampaignMonitor, MonitorConfig};

const TRIALS: usize = 1000;
const TRIALS_HEAVY: usize = 100;
const CAMPAIGN_SEED: u64 = 2008;
const WORK: u64 = 25;
const DENSITY: f64 = 0.25;
/// Iterations of the heavy-trial spin loop; ~10 µs of multiply/rotate
/// work per trial on a contemporary core.
const HEAVY_SPIN: u64 = 10_000;
/// Event capacity of the traced benches' ring sink — deliberately much
/// smaller than the campaign's total event count, so the bench exercises
/// the bounded-sink path the streaming merge exists for.
const RING_CAPACITY: usize = 4096;

fn golden(x: &u64) -> u64 {
    x * 2
}

/// A 3-version NVP ensemble where each version carries its own seeded
/// Bohrbug — the workload every campaign below re-runs.
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

fn nvp_trial(pattern: &ParallelEvaluation<u64, u64>, seed: u64, i: usize) -> TrialOutcome {
    let mut ctx = ExecContext::new(seed);
    traced_nvp_trial(pattern, &mut ctx, i)
}

/// The same trial against a caller-supplied context, so the traced
/// drivers (which attach an observer to the context) can share it.
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

/// Deterministic compute spin: ~10 µs of serially-dependent integer
/// work. Seeded, so identical across runs and worker counts.
fn spin(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for _ in 0..HEAVY_SPIN {
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7) ^ seed;
    }
    acc
}

fn heavy_nvp_trial(pattern: &ParallelEvaluation<u64, u64>, seed: u64, i: usize) -> TrialOutcome {
    std::hint::black_box(spin(seed));
    nvp_trial(pattern, seed, i)
}

fn bench_campaign(c: &mut Criterion) {
    let pattern = nvp_pattern();
    let campaign = Campaign::new(TRIALS);
    let heavy = Campaign::new(TRIALS_HEAVY);

    // Guard the determinism contract before timing anything: every
    // parallel driver must reproduce the serial summary exactly.
    let serial = campaign.run(CAMPAIGN_SEED, |seed, i| nvp_trial(&pattern, seed, i));
    let serial_heavy = heavy.run(CAMPAIGN_SEED, |seed, i| heavy_nvp_trial(&pattern, seed, i));
    for jobs in [2, 8] {
        let parallel =
            campaign.run_parallel(CAMPAIGN_SEED, jobs, |seed, i| nvp_trial(&pattern, seed, i));
        assert_eq!(serial, parallel, "summary diverged at jobs={jobs}");
        let parallel_heavy = heavy.run_parallel(CAMPAIGN_SEED, jobs, |seed, i| {
            heavy_nvp_trial(&pattern, seed, i)
        });
        assert_eq!(
            serial_heavy, parallel_heavy,
            "heavy summary diverged at jobs={jobs}"
        );
        let traced = campaign.run_traced_parallel(
            CAMPAIGN_SEED,
            jobs,
            RingBufferObserver::shared(RING_CAPACITY),
            |ctx, _seed, i| traced_nvp_trial(&pattern, ctx, i),
        );
        assert_eq!(serial, traced, "traced summary diverged at jobs={jobs}");
    }

    let mut group = c.benchmark_group("campaign");

    // Light workload: sub-microsecond trials. Each unmonitored bench is
    // immediately followed by its flight-recorder-live twin: on a noisy
    // host, thermal and scheduling drift between measurements taken
    // minutes apart easily exceeds the recorder's few-ns-per-trial cost,
    // so the overhead comparison only means something when the two
    // measurements are back to back. The monitor guard is scoped to the
    // monitored bench alone, so every unmonitored bench still measures
    // the recorder truly off (one relaxed load per hook).
    group.bench_function(BenchmarkId::new("serial", TRIALS), |b| {
        b.iter(|| campaign.run(CAMPAIGN_SEED, |seed, i| nvp_trial(&pattern, seed, i)));
    });
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("parallel_{TRIALS}_jobs"), jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    campaign
                        .run_parallel(CAMPAIGN_SEED, jobs, |seed, i| nvp_trial(&pattern, seed, i))
                });
            },
        );
        let monitor = CampaignMonitor::start(MonitorConfig {
            interval: Duration::from_millis(200),
            live: false,
            prometheus_path: None,
            jsonl_path: None,
        });
        let monitored =
            campaign.run_parallel(CAMPAIGN_SEED, jobs, |seed, i| nvp_trial(&pattern, seed, i));
        assert_eq!(
            serial, monitored,
            "summary diverged with monitor live at jobs={jobs}"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("monitored_parallel_{TRIALS}_jobs"), jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    campaign
                        .run_parallel(CAMPAIGN_SEED, jobs, |seed, i| nvp_trial(&pattern, seed, i))
                });
            },
        );
        drop(monitor);
    }

    // Heavy workload: ~10 µs of compute per trial.
    group.bench_function(BenchmarkId::new("serial_heavy", TRIALS_HEAVY), |b| {
        b.iter(|| heavy.run(CAMPAIGN_SEED, |seed, i| heavy_nvp_trial(&pattern, seed, i)));
    });
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("parallel_heavy_{TRIALS_HEAVY}_jobs"), jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    heavy.run_parallel(CAMPAIGN_SEED, jobs, |seed, i| {
                        heavy_nvp_trial(&pattern, seed, i)
                    })
                });
            },
        );
    }

    // Traced: pooled shards + streaming merge into a bounded ring sink.
    // The sink is reused across iterations (it overwrites in place), so
    // the measurement sees steady-state pooled-shard recycling rather
    // than first-iteration allocation.
    for jobs in [1usize, 2, 4, 8] {
        let sink = RingBufferObserver::shared(RING_CAPACITY);
        group.bench_with_input(
            BenchmarkId::new(format!("traced_parallel_{TRIALS}_jobs"), jobs),
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

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
