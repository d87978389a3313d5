//! Batch-adjudication invariance: an Exhaustive N-version campaign —
//! pattern engines adjudicating through the exact voters' row kernel
//! (`batch::vote_row`, pinned to a scalar reference voter by core's
//! `batch_equivalence` suite), traced, at any `--jobs` — reproduces the
//! serial [`Campaign::run_traced`] reference bit for bit: the same
//! [`TrialSummary`] and the same merged event stream.

use std::sync::Arc;

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::CollectorObserver;
use redundancy_core::outcome::VariantFailure;
use redundancy_core::patterns::{DecisionPolicy, ParallelEvaluation};
use redundancy_core::variant::FnVariant;
use redundancy_sim::{Campaign, TrialOutcome, TrialSummary};

const TRIALS: usize = 400;
const SEED: u64 = 0xba7c_4ad9 ^ 0x5eed_2008;

/// An N-version trial: three seed-noisy variants (one of which crashes
/// on some draws) under majority vote, Exhaustive policy — the exact
/// shape that routes through the batch row kernel.
fn nvp_trial(ctx: &mut ExecContext, _seed: u64, _i: usize) -> TrialOutcome {
    let variant = |name: &'static str,
                   work: u64,
                   bias: u64|
     -> Box<dyn redundancy_core::variant::Variant<u64, u64>> {
        Box::new(FnVariant::new(
            name,
            move |x: &u64, ctx: &mut ExecContext| {
                ctx.charge(work).map_err(|_| VariantFailure::Timeout)?;
                let draw = ctx.rng().next_u64();
                if draw % 11 == bias % 11 {
                    return Err(VariantFailure::crash("injected"));
                }
                // Mostly agreeing outputs with occasional silent deviation.
                Ok(x * 10 + u64::from(draw % 17 == 0))
            },
        ))
    };
    let engine = ParallelEvaluation::new(MajorityVoter::new())
        .with_policy(DecisionPolicy::Exhaustive)
        .with_variant(variant("v0", 10, 0))
        .with_variant(variant("v1", 12, 3))
        .with_variant(variant("v2", 15, 7));
    let report = engine.run(&4, ctx);
    let cost = report.cost;
    match report.into_output() {
        Some(40) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

/// Runs the traced campaign at one worker count, returning the summary
/// and the full merged event stream.
fn run_traced_parallel(jobs: usize) -> (TrialSummary, Vec<redundancy_core::obs::Event>) {
    let campaign = Campaign::new(TRIALS);
    let sink = Arc::new(CollectorObserver::new());
    let summary = campaign.run_traced_parallel(SEED, jobs, sink.clone(), nvp_trial);
    (summary, sink.take())
}

#[test]
fn parallel_nvp_campaign_matches_serial_run_traced() {
    let campaign = Campaign::new(TRIALS);
    let sink = Arc::new(CollectorObserver::new());
    let serial = campaign.run_traced(SEED, sink.clone(), nvp_trial);
    let serial_events = sink.take();
    assert!(!serial_events.is_empty(), "campaign must trace");
    for jobs in [1usize, 2, 8] {
        let (summary, events) = run_traced_parallel(jobs);
        assert_eq!(serial, summary, "summary diverged: jobs={jobs}");
        assert_eq!(serial_events, events, "event stream diverged: jobs={jobs}");
    }
}
