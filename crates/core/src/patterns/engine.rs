//! The one decision engine behind the parallel Figure-1 patterns.
//!
//! Every parallel pattern forks its variants, runs them, and feeds their
//! outcomes to an [`IncrementalAdjudicator`] strictly in variant order;
//! the judge alone decides when the verdict is fixed. Under
//! [`DecisionPolicy::Exhaustive`](crate::patterns::DecisionPolicy) the
//! judge never decides early, so every variant runs and the verdict is
//! drawn from the full outcome set. Under `Eager`, the moment the judge
//! fixes the verdict the engine stops paying for redundancy it no longer
//! needs:
//!
//! - in [`ExecutionMode::Sequential`], variants whose turn never came are
//!   *skipped* — recorded as [`VariantFailure::Skipped`] outcomes with a
//!   zero-cost variant span, since they were never forked or started;
//! - in [`ExecutionMode::Threaded`], every variant has already been
//!   spawned, so stragglers are *cooperatively cancelled* through a
//!   [`CancelToken`](crate::context::CancelToken) checked at each
//!   `ExecContext::charge`; they surface as [`VariantFailure::Cancelled`]
//!   outcomes carrying the partial cost they accrued before noticing.
//!   The token is linked to the one the pattern's own context carries, so
//!   an enclosing pattern's verdict stops these variants too.
//!
//! Determinism: the verdict only ever depends on outcomes fed in variant
//! order, so it is reproducible across runs and thread schedules. Each
//! variant's forked context is joined as its outcome is fed, so a traced
//! threaded run records the sequential run's stream. Which stragglers got
//! cancelled (vs. finished just in time) in threaded mode is inherently
//! timing-dependent — the *verdict* is not, and neither is the stream
//! apart from those stragglers' own events.

use std::collections::BTreeMap;
use std::sync::mpsc;

use redundancy_obs::{CostSnapshot, Point, SpanKind, SpanStatus};

use crate::adjudicator::incremental::{Decision, IncrementalAdjudicator};
use crate::context::ExecContext;
use crate::outcome::{VariantFailure, VariantOutcome, Verdict};
use crate::patterns::ExecutionMode;
use crate::variant::{run_contained, BoxedVariant};

/// Runs `variants`, feeding `judge` in variant order and stopping early
/// once it fixes the verdict. Charges the critical-path (parallel) cost
/// of all executed work to `ctx` and returns one outcome per variant, in
/// variant order (skipped and cancelled entries included), with the
/// verdict.
pub(crate) fn run<I, O, J>(
    variants: &[BoxedVariant<I, O>],
    input: &I,
    ctx: &mut ExecContext,
    mode: ExecutionMode,
    judge: &mut J,
) -> (Vec<VariantOutcome<O>>, Verdict<O>)
where
    I: Sync,
    O: Send,
    J: IncrementalAdjudicator<O> + ?Sized,
{
    match mode {
        ExecutionMode::Sequential => run_sequential(variants, input, ctx, judge),
        ExecutionMode::Threaded => run_threaded(variants, input, ctx, judge),
    }
}

fn run_sequential<I, O, J>(
    variants: &[BoxedVariant<I, O>],
    input: &I,
    ctx: &mut ExecContext,
    judge: &mut J,
) -> (Vec<VariantOutcome<O>>, Verdict<O>)
where
    J: IncrementalAdjudicator<O> + ?Sized,
{
    let total = variants.len();
    let mut outcomes: Vec<VariantOutcome<O>> = Vec::with_capacity(total);
    let mut verdict: Option<Verdict<O>> = None;
    for (i, variant) in variants.iter().enumerate() {
        if verdict.is_some() {
            // The verdict is fixed: this variant's turn never comes. It is
            // not forked (keeping the executed prefix's random streams
            // identical to the exhaustive policy's) and costs nothing, but
            // it is first-class in the report and the trace.
            let name = variant.symbol();
            let span = ctx.obs_begin(|| SpanKind::Variant { name });
            ctx.obs_end(
                span,
                SpanStatus::Failed { kind: "skipped" },
                CostSnapshot::ZERO,
            );
            outcomes.push(VariantOutcome::failed(
                name.resolve(),
                VariantFailure::Skipped,
            ));
            continue;
        }
        let mut child = ctx.fork(i as u64);
        let outcome = run_contained(variant.as_ref(), input, &mut child);
        ctx.join(child);
        let decision = judge.feed(&outcome);
        outcomes.push(outcome);
        if decision.is_final() {
            verdict = Some(conclude(ctx, judge, decision, &outcomes, total));
        }
    }
    ctx.add_parallel_costs(outcomes.iter().map(|o| o.cost));
    let verdict = verdict.unwrap_or_else(|| judge.finish(&outcomes));
    (outcomes, verdict)
}

fn run_threaded<I, O, J>(
    variants: &[BoxedVariant<I, O>],
    input: &I,
    ctx: &mut ExecContext,
    judge: &mut J,
) -> (Vec<VariantOutcome<O>>, Verdict<O>)
where
    I: Sync,
    O: Send,
    J: IncrementalAdjudicator<O> + ?Sized,
{
    let total = variants.len();
    let token = ctx.child_cancel_token();
    // Fork every child up front, in variant order, so the random streams
    // (and thus each variant's behavior up to cancellation) are those of
    // the sequential mode. Each child carries the shared token.
    let children: Vec<ExecContext> = (0..total)
        .map(|i| ctx.fork(i as u64).with_cancel_token(token.clone()))
        .collect();

    let mut ordered: Vec<VariantOutcome<O>> = Vec::with_capacity(total);
    let mut verdict: Option<Verdict<O>> = None;
    // Variant threads are crash-contained (run_contained catches panics),
    // so the scope never propagates a panic.
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for (i, (variant, mut child)) in variants.iter().zip(children).enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let outcome = run_contained(variant.as_ref(), input, &mut child);
                // The receiver outlives the scope; a send can only fail if
                // the main thread panicked, which already aborts the test.
                let _ = tx.send((i, outcome, child));
            });
        }
        drop(tx);
        // Buffer out-of-order arrivals; join the children and feed the
        // judge strictly in variant order, so neither the verdict nor the
        // trace depends on thread timing.
        let mut pending: BTreeMap<usize, (VariantOutcome<O>, ExecContext)> = BTreeMap::new();
        for _ in 0..total {
            let (i, outcome, child) = rx.recv().expect("every variant thread sends once");
            pending.insert(i, (outcome, child));
            while let Some((next, child)) = pending.remove(&ordered.len()) {
                ctx.join(child);
                ordered.push(next);
                if verdict.is_none() {
                    let decision = judge.feed(&ordered[ordered.len() - 1]);
                    if decision.is_final() {
                        // Fire the token first so stragglers stop charging
                        // as soon as possible.
                        token.cancel();
                        verdict = Some(conclude(ctx, judge, decision, &ordered, total));
                    }
                }
            }
        }
    });
    ctx.add_parallel_costs(ordered.iter().map(|o| o.cost));
    let verdict = verdict.unwrap_or_else(|| judge.finish(&ordered));
    (ordered, verdict)
}

/// Turns the judge's final decision on the fed prefix into the verdict,
/// marking the early exit in the trace.
fn conclude<O, J>(
    ctx: &mut ExecContext,
    judge: &mut J,
    decision: Decision<O>,
    fed: &[VariantOutcome<O>],
    total: usize,
) -> Verdict<O>
where
    J: IncrementalAdjudicator<O> + ?Sized,
{
    ctx.obs_emit(|| Point::EarlyDecision {
        executed: fed.len(),
        total,
    });
    match decision {
        Decision::Decided(verdict) => verdict,
        // Acceptance is off the table: the rejection follows from the
        // prefix fed so far.
        _ => judge.finish(fed),
    }
}
