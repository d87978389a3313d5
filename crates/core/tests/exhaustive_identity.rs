//! Frozen-reference regression test for the streaming-engine refactor.
//!
//! Both parallel patterns run every policy through one streaming
//! decision engine; `DecisionPolicy::Exhaustive` (the default) is that
//! engine driven by a judge that never decides early. The guarantee is
//! that this changed *nothing* observable: reports, per-variant outcomes,
//! costs, and full traced event streams are bit-identical to the
//! original "run all, then adjudicate" engines on fixed seeds. This test
//! pins that by carrying frozen copies of those engines (written against
//! the public API) and comparing them against `ParallelEvaluation::run`
//! and `ParallelSelection::run` outcome by outcome and event by event.
//! Threaded runs join their variants' traces in variant order, so their
//! streams are compared too.

use redundancy_core::adjudicator::acceptance::{AcceptanceTest, BoxedAcceptance, FnAcceptance};
use redundancy_core::adjudicator::voting::{MajorityVoter, MedianVoter};
use redundancy_core::adjudicator::Adjudicator;
use redundancy_core::context::ExecContext;
use redundancy_core::outcome::{RejectionReason, VariantFailure, VariantOutcome, Verdict};
use redundancy_core::patterns::{
    emit_verdict, verdict_status, ExecutionMode, ParallelEvaluation, ParallelSelection,
    PatternReport,
};
use redundancy_core::variant::{pure_variant, run_contained, BoxedVariant, FnVariant};
use redundancy_obs::{Event, RingBufferObserver, SpanKind};

const SEEDS: [u64; 6] = [0, 1, 7, 42, 0x5eed_2008, u64::MAX];

/// A selection component: a variant and the test that validates it.
type Component<I, O> = (BoxedVariant<I, O>, BoxedAcceptance<I, O>);

/// The pre-refactor executor, frozen: fork each variant in order and run
/// them all in the calling thread (joining each traced fork, as every
/// fork site must).
fn reference_execute<I, O>(
    variants: &[&BoxedVariant<I, O>],
    input: &I,
    ctx: &mut ExecContext,
) -> Vec<VariantOutcome<O>> {
    variants
        .iter()
        .enumerate()
        .map(|(i, variant)| {
            let mut child = ctx.fork(i as u64);
            let outcome = run_contained(variant.as_ref(), input, &mut child);
            ctx.join(child);
            outcome
        })
        .collect()
}

/// The pre-refactor parallel-evaluation engine, frozen: run every
/// variant, charge the critical path, adjudicate the full outcome set,
/// emit the verdict, end the pattern span.
fn reference_run<I, O: Clone>(
    variants: &[BoxedVariant<I, O>],
    adjudicator: &dyn Adjudicator<O>,
    input: &I,
    ctx: &mut ExecContext,
) -> PatternReport<O> {
    let span = ctx.obs_begin(|| SpanKind::Pattern {
        name: "parallel_evaluation",
    });
    let before = ctx.cost();
    let variants: Vec<&BoxedVariant<I, O>> = variants.iter().collect();
    let outcomes = reference_execute(&variants, input, ctx);
    ctx.add_parallel_costs(outcomes.iter().map(|o| o.cost));
    let verdict = adjudicator.adjudicate(&outcomes);
    emit_verdict(ctx, &verdict);
    ctx.obs_end(
        span,
        verdict_status(&verdict),
        ctx.cost().delta_since(before).snapshot(),
    );
    PatternReport {
        verdict,
        cost: ctx.cost().delta_since(before),
        outcomes,
        selected: None,
    }
}

/// The pre-refactor parallel-selection engine, frozen: run every
/// component, charge the critical path, validate each result with its
/// own test, select the first validated one (support = every validated
/// component, dissent = the rest).
fn reference_select<I, O: Clone>(
    components: &[Component<I, O>],
    input: &I,
    ctx: &mut ExecContext,
) -> PatternReport<O> {
    let span = ctx.obs_begin(|| SpanKind::Pattern {
        name: "parallel_selection",
    });
    let before = ctx.cost();
    let variants: Vec<&BoxedVariant<I, O>> = components.iter().map(|(v, _)| v).collect();
    let outcomes = reference_execute(&variants, input, ctx);
    ctx.add_parallel_costs(outcomes.iter().map(|o| o.cost));
    let validated: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| {
            o.output()
                .is_some_and(|out| components[*i].1.accept(input, out))
        })
        .map(|(i, _)| i)
        .collect();
    let verdict = match validated.first() {
        Some(&idx) => Verdict::accepted(
            outcomes[idx].output().expect("validated").clone(),
            validated.len(),
            outcomes.len() - validated.len(),
        ),
        None if outcomes.is_empty() => Verdict::rejected(RejectionReason::NoOutcomes),
        None if outcomes.iter().all(|o| !o.is_ok()) => {
            Verdict::rejected(RejectionReason::AllFailed)
        }
        None => Verdict::rejected(RejectionReason::AcceptanceFailed),
    };
    emit_verdict(ctx, &verdict);
    ctx.obs_end(
        span,
        verdict_status(&verdict),
        ctx.cost().delta_since(before).snapshot(),
    );
    PatternReport {
        verdict,
        cost: ctx.cost().delta_since(before),
        selected: validated
            .first()
            .map(|&idx| outcomes[idx].variant.to_string()),
        outcomes,
    }
}

/// A variant whose output depends on its forked random stream, so any
/// change in fork order or count shows up as a different output.
fn noisy_variant(name: &str, work: u64) -> BoxedVariant<i32, i64> {
    Box::new(FnVariant::new(
        name,
        move |x: &i32, ctx: &mut ExecContext| {
            ctx.charge(work).map_err(|_| VariantFailure::Timeout)?;
            let noise = (ctx.rng().next_u64() % 3) as i64;
            Ok(i64::from(*x) * 10 + noise)
        },
    ))
}

fn crasher() -> BoxedVariant<i32, i64> {
    Box::new(FnVariant::new(
        "crasher",
        |_: &i32, _: &mut ExecContext| -> Result<i64, VariantFailure> { panic!("injected") },
    ))
}

fn variant_set() -> Vec<BoxedVariant<i32, i64>> {
    vec![
        noisy_variant("n1", 10),
        noisy_variant("n2", 25),
        pure_variant("p3", 15, |x: &i32| i64::from(*x) * 10),
        crasher(),
        noisy_variant("n5", 40),
    ]
}

/// Accepts outputs whose noise (the value mod 10) is at most `max_noise`.
fn noise_at_most(max_noise: i64) -> BoxedAcceptance<i32, i64> {
    Box::new(FnAcceptance::new("quiet", move |_: &i32, out: &i64| {
        out % 10 <= max_noise
    }))
}

/// Components that validate, fail validation (depending on their noise
/// draw) and crash; which one validates first moves with the seed, and
/// the last one always validates.
fn component_set() -> Vec<Component<i32, i64>> {
    vec![
        (noisy_variant("s1", 30), noise_at_most(0)),
        (crasher(), noise_at_most(2)),
        (noisy_variant("s3", 10), noise_at_most(1)),
        (noisy_variant("s4", 20), noise_at_most(0)),
        (
            pure_variant("s5", 5, |x: &i32| i64::from(*x) * 10 + 1),
            noise_at_most(1),
        ),
    ]
}

/// Components none of whose results validate, one of which crashes.
fn rejecting_component_set() -> Vec<Component<i32, i64>> {
    let never = || -> BoxedAcceptance<i32, i64> {
        Box::new(FnAcceptance::new("never", |_: &i32, _: &i64| false))
    };
    vec![
        (noisy_variant("r1", 10), never()),
        (crasher(), never()),
        (noisy_variant("r3", 20), never()),
    ]
}

fn evaluation(
    adjudicator: impl Adjudicator<i64> + 'static,
    mode: ExecutionMode,
) -> ParallelEvaluation<i32, i64> {
    let mut engine = ParallelEvaluation::new(adjudicator).with_mode(mode);
    for v in variant_set() {
        engine.push_variant(v);
    }
    engine
}

fn selection(
    components: Vec<Component<i32, i64>>,
    mode: ExecutionMode,
) -> ParallelSelection<i32, i64> {
    let mut engine = ParallelSelection::new().with_mode(mode);
    for (v, t) in components {
        engine.push_component(v, t);
    }
    engine
}

fn assert_reports_match(
    report: &PatternReport<i64>,
    reference: &PatternReport<i64>,
    ctx: &ExecContext,
    ref_ctx: &ExecContext,
    what: &str,
) {
    assert_eq!(report.verdict, reference.verdict, "{what}");
    assert_eq!(report.cost, reference.cost, "{what}");
    assert_eq!(report.selected, reference.selected, "{what}");
    assert_eq!(
        report.outcomes, reference.outcomes,
        "per-variant outcomes diverged: {what}"
    );
    assert_eq!(
        ctx.cost(),
        ref_ctx.cost(),
        "context meters diverged: {what}"
    );
}

fn assert_streams_match(events: &[Event], reference: &[Event], what: &str) {
    assert_eq!(
        events.len(),
        reference.len(),
        "event counts diverged: {what}"
    );
    for (got, want) in events.iter().zip(reference) {
        assert_eq!(got.seq, want.seq, "{what}");
        assert_eq!(got.span, want.span, "{what}");
        assert_eq!(got.parent, want.parent, "{what}");
        assert_eq!(got.clock, want.clock, "{what}");
        assert_eq!(got.kind, want.kind, "{what}");
    }
}

#[test]
fn exhaustive_reports_match_frozen_reference_on_fixed_seeds() {
    for mode in [ExecutionMode::Sequential, ExecutionMode::Threaded] {
        for seed in SEEDS {
            let mut ref_ctx = ExecContext::new(seed);
            let reference = reference_run(&variant_set(), &MajorityVoter::new(), &3, &mut ref_ctx);
            let mut ctx = ExecContext::new(seed);
            let report = evaluation(MajorityVoter::new(), mode).run(&3, &mut ctx);
            let what = format!("{mode:?} seed {seed:#x}");
            assert_reports_match(&report, &reference, &ctx, &ref_ctx, &what);
        }
    }
}

#[test]
fn exhaustive_traced_streams_match_frozen_reference_on_fixed_seeds() {
    for seed in [0u64, 13, 0x5eed_2008] {
        let ref_ring = RingBufferObserver::shared(256);
        let mut ref_ctx = ExecContext::new(seed).with_observer(ref_ring.clone());
        let _ = reference_run(&variant_set(), &MedianVoter::new(), &5, &mut ref_ctx);

        for mode in [ExecutionMode::Sequential, ExecutionMode::Threaded] {
            let ring = RingBufferObserver::shared(256);
            let mut ctx = ExecContext::new(seed).with_observer(ring.clone());
            let _ = evaluation(MedianVoter::new(), mode).run(&5, &mut ctx);

            assert_streams_match(
                &ring.events(),
                &ref_ring.events(),
                &format!("{mode:?} seed {seed:#x}"),
            );
        }
    }
}

#[test]
fn exhaustive_selection_reports_match_frozen_reference_on_fixed_seeds() {
    let mut accepted = 0;
    // Validated, failed validation, crashed: the seeds reach all three.
    let mut seen = [false; 3];
    for mode in [ExecutionMode::Sequential, ExecutionMode::Threaded] {
        for seed in SEEDS {
            for (set, components) in [
                ("mixed", component_set as fn() -> Vec<_>),
                ("rejecting", rejecting_component_set),
            ] {
                let mut ref_ctx = ExecContext::new(seed);
                let components = components();
                let reference = reference_select(&components, &4, &mut ref_ctx);
                for (outcome, (_, test)) in reference.outcomes.iter().zip(&components) {
                    match outcome.output() {
                        Some(out) if test.accept(&4, out) => seen[0] = true,
                        Some(_) => seen[1] = true,
                        None => seen[2] = true,
                    }
                }
                let mut ctx = ExecContext::new(seed);
                let report = selection(components, mode).run(&4, &mut ctx);
                let what = format!("{set} {mode:?} seed {seed:#x}");
                assert_reports_match(&report, &reference, &ctx, &ref_ctx, &what);
                accepted += usize::from(report.is_accepted());
            }
        }
    }
    // The mixed set accepts on every seed; the rejecting set never does.
    assert_eq!(accepted, 2 * SEEDS.len());
    assert_eq!(seen, [true; 3]);
}

#[test]
fn exhaustive_selection_traced_streams_match_frozen_reference_on_fixed_seeds() {
    for seed in [0u64, 13, 0x5eed_2008] {
        let ref_ring = RingBufferObserver::shared(256);
        let mut ref_ctx = ExecContext::new(seed).with_observer(ref_ring.clone());
        let _ = reference_select(&component_set(), &4, &mut ref_ctx);

        for mode in [ExecutionMode::Sequential, ExecutionMode::Threaded] {
            let ring = RingBufferObserver::shared(256);
            let mut ctx = ExecContext::new(seed).with_observer(ring.clone());
            let _ = selection(component_set(), mode).run(&4, &mut ctx);

            assert_streams_match(
                &ring.events(),
                &ref_ring.events(),
                &format!("{mode:?} seed {seed:#x}"),
            );
        }
    }
}

#[test]
fn empty_selection_rejects_with_no_outcomes_in_both_modes() {
    for mode in [ExecutionMode::Sequential, ExecutionMode::Threaded] {
        let ref_ring = RingBufferObserver::shared(16);
        let mut ref_ctx = ExecContext::new(3).with_observer(ref_ring.clone());
        let reference = reference_select(&[], &4, &mut ref_ctx);
        assert_eq!(
            reference.verdict,
            Verdict::rejected(RejectionReason::NoOutcomes)
        );

        let ring = RingBufferObserver::shared(16);
        let mut ctx = ExecContext::new(3).with_observer(ring.clone());
        let report = selection(Vec::new(), mode).run(&4, &mut ctx);
        let what = format!("empty {mode:?}");
        assert_reports_match(&report, &reference, &ctx, &ref_ctx, &what);
        assert_streams_match(&ring.events(), &ref_ring.events(), &what);
    }
}
