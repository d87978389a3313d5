//! Figure 1(a) and 1(b): the two parallel patterns.

use redundancy_obs::SpanKind;

use crate::adjudicator::acceptance::BoxedAcceptance;
use crate::adjudicator::incremental::{BatchIncremental, Decision, IncrementalAdjudicator};
use crate::adjudicator::Adjudicator;
use crate::context::ExecContext;
use crate::outcome::{RejectionReason, VariantOutcome, Verdict};
use crate::patterns::engine;
use crate::patterns::{
    emit_verdict, record_pattern_run, verdict_status, DecisionPolicy, ExecutionMode, PatternReport,
};
use crate::variant::BoxedVariant;

/// The judge of Figure 1(b): validates each outcome with its component's
/// own acceptance test, in priority order. The first validated component
/// is selected; under [`DecisionPolicy::Eager`] it decides on the spot
/// (support 1, dissent the components fed before it), otherwise the
/// verdict waits for every component (support every validated one,
/// dissent the rest).
struct SelectionJudge<'a, I, O> {
    tests: &'a [BoxedAcceptance<I, O>],
    input: &'a I,
    eager: bool,
    fed: usize,
    validated: usize,
    selected: Option<usize>,
}

impl<I, O: Clone> IncrementalAdjudicator<O> for SelectionJudge<'_, I, O> {
    fn feed(&mut self, outcome: &VariantOutcome<O>) -> Decision<O> {
        let idx = self.fed;
        self.fed += 1;
        if let Some(output) = outcome.output() {
            if self.tests[idx].accept(self.input, output) {
                self.validated += 1;
                self.selected.get_or_insert(idx);
                if self.eager {
                    return Decision::Decided(Verdict::accepted(output.clone(), 1, idx));
                }
            }
        }
        Decision::Undecided
    }

    fn finish(&mut self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        match self.selected {
            Some(idx) => Verdict::accepted(
                outcomes[idx]
                    .output()
                    .expect("selected outcome is validated")
                    .clone(),
                self.validated,
                outcomes.len() - self.validated,
            ),
            None if outcomes.is_empty() => Verdict::rejected(RejectionReason::NoOutcomes),
            None if outcomes.iter().all(|o| !o.is_ok()) => {
                Verdict::rejected(RejectionReason::AllFailed)
            }
            None => Verdict::rejected(RejectionReason::AcceptanceFailed),
        }
    }
}

/// Figure 1(a): *parallel evaluation* — execute every alternative with the
/// same input configuration and let a single adjudicator merge the results.
///
/// This is the skeleton of N-version programming (with a majority voter),
/// of process replicas and N-variant systems (with a unanimity voter), and
/// of N-copy data diversity (with re-expressed inputs upstream).
///
/// # Examples
///
/// ```
/// use redundancy_core::adjudicator::voting::MajorityVoter;
/// use redundancy_core::context::ExecContext;
/// use redundancy_core::patterns::ParallelEvaluation;
/// use redundancy_core::variant::pure_variant;
///
/// let nvp = ParallelEvaluation::new(MajorityVoter::new())
///     .with_variant(pure_variant("v1", 10, |x: &i32| x + 1))
///     .with_variant(pure_variant("v2", 12, |x: &i32| x + 1))
///     .with_variant(pure_variant("v3-buggy", 8, |x: &i32| x + 2));
///
/// let mut ctx = ExecContext::new(7);
/// let report = nvp.run(&41, &mut ctx);
/// assert_eq!(report.into_output(), Some(42));
/// ```
pub struct ParallelEvaluation<I, O> {
    variants: Vec<BoxedVariant<I, O>>,
    adjudicator: Box<dyn Adjudicator<O>>,
    mode: ExecutionMode,
    policy: DecisionPolicy,
}

impl<I, O> ParallelEvaluation<I, O> {
    /// Creates the pattern with the given adjudicator and no variants.
    #[must_use]
    pub fn new(adjudicator: impl Adjudicator<O> + 'static) -> Self {
        Self {
            variants: Vec::new(),
            adjudicator: Box::new(adjudicator),
            mode: ExecutionMode::Sequential,
            policy: DecisionPolicy::default(),
        }
    }

    /// Adds an alternative (builder style).
    #[must_use]
    pub fn with_variant(mut self, variant: BoxedVariant<I, O>) -> Self {
        self.variants.push(variant);
        self
    }

    /// Adds an alternative.
    pub fn push_variant(&mut self, variant: BoxedVariant<I, O>) {
        self.variants.push(variant);
    }

    /// Selects the execution mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the decision policy (builder style). Both run the same
    /// engine: the default, [`DecisionPolicy::Exhaustive`], feeds it a
    /// judge that never decides early, so every alternative runs and the
    /// batch adjudicator sees the full outcome set;
    /// [`DecisionPolicy::Eager`] feeds it the adjudicator's incremental
    /// interface and stops once the verdict is fixed.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.policy
    }

    /// Number of alternatives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the pattern has no alternatives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Executes every alternative and adjudicates.
    ///
    /// Virtual time is accounted as the critical path over alternatives in
    /// both execution modes.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        I: Sync,
        O: Send,
    {
        let span = ctx.obs_begin(|| SpanKind::Pattern {
            name: "parallel_evaluation",
        });
        let before = ctx.cost();
        let (outcomes, verdict) = match self.policy {
            DecisionPolicy::Exhaustive => {
                let mut judge = BatchIncremental::new(self.adjudicator.as_ref());
                engine::run(&self.variants, input, ctx, self.mode, &mut judge)
            }
            DecisionPolicy::Eager => {
                let mut judge = self.adjudicator.begin_incremental(self.variants.len());
                engine::run(&self.variants, input, ctx, self.mode, judge.as_mut())
            }
        };
        emit_verdict(ctx, &verdict);
        ctx.obs_end(
            span,
            verdict_status(&verdict),
            ctx.cost().delta_since(before).snapshot(),
        );
        record_pattern_run(&outcomes);
        PatternReport {
            verdict,
            cost: ctx.cost().delta_since(before),
            outcomes,
            // Figure 1(a) merges results through the adjudicator; no single
            // component is "selected".
            selected: None,
        }
    }
}

/// Figure 1(b): *parallel selection* — every alternative executes in
/// parallel and is validated by its own adjudicator; the first (highest
/// priority) validated result is selected, the rest serve as hot spares.
///
/// This is self-checking programming: "acting" components ahead in the
/// list, "hot spares" behind them.
pub struct ParallelSelection<I, O> {
    /// The components' variants, in priority order; `tests[i]` validates
    /// `variants[i]`.
    variants: Vec<BoxedVariant<I, O>>,
    tests: Vec<BoxedAcceptance<I, O>>,
    mode: ExecutionMode,
    policy: DecisionPolicy,
}

impl<I, O> ParallelSelection<I, O> {
    /// Creates an empty pattern.
    #[must_use]
    pub fn new() -> Self {
        Self {
            variants: Vec::new(),
            tests: Vec::new(),
            mode: ExecutionMode::Sequential,
            policy: DecisionPolicy::default(),
        }
    }

    /// Adds a self-checking component: a variant paired with the acceptance
    /// test that validates it. Insertion order is priority order — the
    /// first component is the "acting" one.
    #[must_use]
    pub fn with_component(
        mut self,
        variant: BoxedVariant<I, O>,
        test: BoxedAcceptance<I, O>,
    ) -> Self {
        self.push_component(variant, test);
        self
    }

    /// Adds a self-checking component.
    pub fn push_component(&mut self, variant: BoxedVariant<I, O>, test: BoxedAcceptance<I, O>) {
        self.variants.push(variant);
        self.tests.push(test);
    }

    /// Selects the execution mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the decision policy (builder style). Under
    /// [`DecisionPolicy::Eager`] the first validated (highest-priority)
    /// result decides immediately: lower-priority components are skipped
    /// in sequential mode and cooperatively cancelled in threaded mode.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.policy
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the pattern has no components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Executes all components, validates each result with its own test,
    /// and selects the first validated result.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        I: Sync,
        O: Send + Clone,
    {
        let span = ctx.obs_begin(|| SpanKind::Pattern {
            name: "parallel_selection",
        });
        let before = ctx.cost();
        let mut judge = SelectionJudge {
            tests: &self.tests,
            input,
            eager: self.policy == DecisionPolicy::Eager,
            fed: 0,
            validated: 0,
            selected: None,
        };
        let (outcomes, verdict) = engine::run(&self.variants, input, ctx, self.mode, &mut judge);
        emit_verdict(ctx, &verdict);
        ctx.obs_end(
            span,
            verdict_status(&verdict),
            ctx.cost().delta_since(before).snapshot(),
        );
        record_pattern_run(&outcomes);
        PatternReport {
            verdict,
            cost: ctx.cost().delta_since(before),
            selected: judge.selected.map(|idx| outcomes[idx].variant.to_string()),
            outcomes,
        }
    }
}

impl<I, O> Default for ParallelSelection<I, O> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjudicator::acceptance::FnAcceptance;
    use crate::adjudicator::voting::MajorityVoter;
    use crate::outcome::VariantFailure;
    use crate::variant::{pure_variant, FnVariant};

    fn failing_variant(name: &str) -> BoxedVariant<i32, i32> {
        Box::new(FnVariant::new(name, |_: &i32, _: &mut ExecContext| {
            Err(VariantFailure::crash("injected"))
        }))
    }

    #[test]
    fn parallel_evaluation_masks_minority_fault() {
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_variant(pure_variant("good1", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("good2", 20, |x: &i32| x * 2))
            .with_variant(pure_variant("bad", 5, |x: &i32| x * 3));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&10, &mut ctx);
        assert_eq!(report.output(), Some(&20));
        assert_eq!(report.executed(), 3);
        // Critical path: max(10, 20, 5) = 20 virtual ns.
        assert_eq!(report.cost.virtual_ns, 20);
        assert_eq!(report.cost.work_units, 35);
        assert_eq!(report.cost.invocations, 3);
    }

    #[test]
    fn parallel_evaluation_threaded_matches_sequential() {
        let build = |mode| {
            ParallelEvaluation::new(MajorityVoter::new())
                .with_mode(mode)
                .with_variant(pure_variant("a", 10, |x: &i32| x + 1))
                .with_variant(pure_variant("b", 30, |x: &i32| x + 1))
                .with_variant(pure_variant("c", 20, |x: &i32| x + 2))
        };
        let mut ctx1 = ExecContext::new(11);
        let seq = build(ExecutionMode::Sequential).run(&1, &mut ctx1);
        let mut ctx2 = ExecContext::new(11);
        let thr = build(ExecutionMode::Threaded).run(&1, &mut ctx2);
        assert_eq!(seq.verdict, thr.verdict);
        assert_eq!(seq.cost.virtual_ns, thr.cost.virtual_ns);
        assert_eq!(seq.outcomes.len(), thr.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(thr.outcomes.iter()) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn parallel_evaluation_contains_crashes() {
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_variant(pure_variant("good1", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("good2", 10, |x: &i32| x * 2))
            .with_variant(failing_variant("crasher"));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&10, &mut ctx);
        assert_eq!(report.output(), Some(&20));
        assert_eq!(
            report.outcomes[2].result,
            Err(VariantFailure::crash("injected"))
        );
    }

    #[test]
    fn parallel_evaluation_rejects_without_majority() {
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_variant(pure_variant("a", 1, |x: &i32| x + 1))
            .with_variant(pure_variant("b", 1, |x: &i32| x + 2))
            .with_variant(pure_variant("c", 1, |x: &i32| x + 3));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&0, &mut ctx);
        assert!(!report.is_accepted());
        assert!(report.selected.is_none());
    }

    #[test]
    fn parallel_selection_prefers_acting_component() {
        let good = FnAcceptance::new("positive", |_: &i32, out: &i32| *out > 0);
        let good2 = FnAcceptance::new("positive", |_: &i32, out: &i32| *out > 0);
        let p = ParallelSelection::new()
            .with_component(pure_variant("acting", 10, |x: &i32| x + 1), Box::new(good))
            .with_component(pure_variant("spare", 10, |x: &i32| x + 2), Box::new(good2));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&2));
        assert_eq!(report.selected.as_deref(), Some("acting"));
    }

    #[test]
    fn parallel_selection_falls_to_hot_spare() {
        // Acting component produces an invalid output; spare takes over.
        let test1 = FnAcceptance::new("nonneg", |_: &i32, out: &i32| *out >= 0);
        let test2 = FnAcceptance::new("nonneg", |_: &i32, out: &i32| *out >= 0);
        let p = ParallelSelection::new()
            .with_component(pure_variant("acting", 10, |_: &i32| -1), Box::new(test1))
            .with_component(pure_variant("spare", 10, |x: &i32| x + 2), Box::new(test2));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&3));
        assert_eq!(report.selected.as_deref(), Some("spare"));
    }

    #[test]
    fn parallel_selection_rejects_when_no_component_validates() {
        let test = FnAcceptance::new("never", |_: &i32, _: &i32| false);
        let p = ParallelSelection::new()
            .with_component(pure_variant("a", 1, |x: &i32| *x), Box::new(test));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&1, &mut ctx);
        assert_eq!(
            report.verdict,
            Verdict::rejected(RejectionReason::AcceptanceFailed)
        );
    }

    #[test]
    fn parallel_selection_all_failed() {
        let test = FnAcceptance::new("any", |_: &i32, _: &i32| true);
        let p = ParallelSelection::new().with_component(failing_variant("f"), Box::new(test));
        let mut ctx = ExecContext::new(1);
        let report = p.run(&1, &mut ctx);
        assert_eq!(
            report.verdict,
            Verdict::rejected(RejectionReason::AllFailed)
        );
    }

    #[test]
    fn empty_patterns_reject() {
        let p: ParallelSelection<i32, i32> = ParallelSelection::new();
        let mut ctx = ExecContext::new(1);
        assert!(!p.run(&1, &mut ctx).is_accepted());
        assert!(p.is_empty());

        let p: ParallelEvaluation<i32, i32> = ParallelEvaluation::new(MajorityVoter::new());
        let mut ctx = ExecContext::new(1);
        assert!(!p.run(&1, &mut ctx).is_accepted());
        assert!(p.is_empty());
    }

    #[test]
    fn traced_run_emits_pattern_variant_and_verdict_events() {
        use redundancy_obs::{EventKind, Point, RingBufferObserver, SpanKind, SpanStatus};

        let ring = RingBufferObserver::shared(64);
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_variant(pure_variant("good1", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("good2", 20, |x: &i32| x * 2))
            .with_variant(failing_variant("crasher"));
        let mut ctx = ExecContext::new(1).with_observer(ring.clone());
        let report = p.run(&10, &mut ctx);
        assert_eq!(report.output(), Some(&20));

        let events = ring.events();
        // pattern start, 3 x (variant start + end), verdict, pattern end.
        assert_eq!(events.len(), 9);
        assert!(matches!(
            &events[0].kind,
            EventKind::SpanStart {
                kind: SpanKind::Pattern {
                    name: "parallel_evaluation"
                }
            }
        ));
        assert!(matches!(
            &events[1].kind,
            EventKind::SpanStart { kind: SpanKind::Variant { name } } if *name == "good1"
        ));
        // The crasher's span ends with its failure kind.
        assert!(matches!(
            &events[6].kind,
            EventKind::SpanEnd {
                status: SpanStatus::Failed { kind: "crash" },
                ..
            }
        ));
        assert!(matches!(
            &events[7].kind,
            EventKind::Point(Point::Verdict {
                accepted: true,
                support: 2,
                dissent: 1,
                rejection: None,
            })
        ));
        match &events[8].kind {
            EventKind::SpanEnd { status, cost } => {
                assert_eq!(
                    *status,
                    SpanStatus::Accepted {
                        support: 2,
                        dissent: 1
                    }
                );
                assert_eq!(cost.virtual_ns, 20, "critical path");
                assert_eq!(cost.invocations, 3);
            }
            other => panic!("expected pattern SpanEnd, got {other:?}"),
        }
        // Variant spans are parented under the pattern span.
        assert_eq!(events[1].parent, events[0].span);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        use redundancy_obs::RingBufferObserver;

        let build = || {
            ParallelEvaluation::new(MajorityVoter::new())
                .with_variant(pure_variant("a", 10, |x: &i32| x + 1))
                .with_variant(pure_variant("b", 30, |x: &i32| x + 1))
                .with_variant(failing_variant("c"))
        };
        let mut plain = ExecContext::new(77);
        let mut traced = ExecContext::new(77).with_observer(RingBufferObserver::shared(256));
        let r1 = build().run(&5, &mut plain);
        let r2 = build().run(&5, &mut traced);
        assert_eq!(r1.verdict, r2.verdict);
        assert_eq!(r1.cost, r2.cost);
        for (a, b) in r1.outcomes.iter().zip(r2.outcomes.iter()) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn report_cost_is_per_run_not_cumulative() {
        // Regression: reports used to copy the context's cumulative meter,
        // so the second pattern run on a shared context double-counted the
        // first run's cost.
        let build = || {
            ParallelEvaluation::new(MajorityVoter::new())
                .with_variant(pure_variant("a", 10, |x: &i32| x * 2))
                .with_variant(pure_variant("b", 20, |x: &i32| x * 2))
        };
        let mut ctx = ExecContext::new(5);
        let first = build().run(&1, &mut ctx);
        let second = build().run(&1, &mut ctx);
        assert_eq!(first.cost, second.cost);
        assert_eq!(second.cost.virtual_ns, 20); // critical path of run 2 only
        assert_eq!(second.cost.invocations, 2);
        // The context itself still meters cumulatively across runs.
        assert_eq!(ctx.cost().virtual_ns, 40);
        assert_eq!(ctx.cost().invocations, 4);

        // Same guarantee for parallel selection on the same warm context.
        let test = FnAcceptance::new("any", |_: &i32, _: &i32| true);
        let sel = ParallelSelection::new()
            .with_component(pure_variant("c", 7, |x: &i32| x + 1), Box::new(test));
        let report = sel.run(&1, &mut ctx);
        assert_eq!(report.cost.virtual_ns, 7);
        assert_eq!(report.cost.invocations, 1);
    }

    #[test]
    fn eager_sequential_skips_unneeded_variants() {
        use redundancy_obs::{EventKind, Point, RingBufferObserver, SpanStatus};

        let ring = RingBufferObserver::shared(64);
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_policy(DecisionPolicy::Eager)
            .with_variant(pure_variant("a", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("b", 20, |x: &i32| x * 2))
            .with_variant(pure_variant("c", 30, |x: &i32| x * 2))
            .with_variant(pure_variant("d", 40, |x: &i32| x * 2))
            .with_variant(pure_variant("e", 50, |x: &i32| x * 2));
        let mut ctx = ExecContext::new(1).with_observer(ring.clone());
        let report = p.run(&10, &mut ctx);

        // 3 of 5 agreeing fixes a majority; d and e never run.
        assert_eq!(report.output(), Some(&20));
        assert_eq!(report.executed(), 3);
        assert_eq!(report.skipped(), 2);
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.outcomes[3].result, Err(VariantFailure::Skipped));
        assert_eq!(report.outcomes[4].result, Err(VariantFailure::Skipped));
        // Cost covers only the executed prefix: critical path 30, work 60.
        assert_eq!(report.cost.virtual_ns, 30);
        assert_eq!(report.cost.work_units, 60);
        assert_eq!(report.cost.invocations, 3);

        let events = ring.events();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Point(Point::EarlyDecision {
                executed: 3,
                total: 5
            })
        )));
        // Skipped variants still get first-class (zero-cost) spans.
        let skipped_spans = events
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    EventKind::SpanEnd {
                        status: SpanStatus::Failed { kind: "skipped" },
                        cost,
                    } if *cost == redundancy_obs::CostSnapshot::ZERO
                )
            })
            .count();
        assert_eq!(skipped_spans, 2);
    }

    #[test]
    fn eager_matches_exhaustive_disposition_and_output() {
        let build = |policy| {
            ParallelEvaluation::new(MajorityVoter::new())
                .with_policy(policy)
                .with_variant(pure_variant("a", 10, |x: &i32| x + 1))
                .with_variant(pure_variant("b", 30, |x: &i32| x + 1))
                .with_variant(failing_variant("c"))
                .with_variant(pure_variant("d", 20, |x: &i32| x + 2))
                .with_variant(pure_variant("e", 25, |x: &i32| x + 1))
        };
        let mut c1 = ExecContext::new(42);
        let exhaustive = build(DecisionPolicy::Exhaustive).run(&5, &mut c1);
        let mut c2 = ExecContext::new(42);
        let eager = build(DecisionPolicy::Eager).run(&5, &mut c2);
        assert_eq!(exhaustive.is_accepted(), eager.is_accepted());
        assert_eq!(exhaustive.output(), eager.output());
        // Early exit can only make the run cheaper.
        assert!(eager.cost.work_units <= exhaustive.cost.work_units);
        assert!(eager.cost.virtual_ns <= exhaustive.cost.virtual_ns);
    }

    #[test]
    fn eager_threaded_cancels_stragglers() {
        use redundancy_obs::{EventKind, Point, RingBufferObserver};

        let ring = RingBufferObserver::shared(64);
        let straggler: BoxedVariant<i32, i32> = Box::new(FnVariant::new(
            "straggler",
            |x: &i32, ctx: &mut ExecContext| {
                // Cooperative long-running loop: each charge checks the
                // cancellation token, each sleep yields real time so the
                // cancel reliably lands mid-flight.
                for _ in 0..2_000 {
                    ctx.charge(1).map_err(|_| VariantFailure::Timeout)?;
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                Ok(*x)
            },
        ));
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_mode(ExecutionMode::Threaded)
            .with_policy(DecisionPolicy::Eager)
            .with_variant(pure_variant("a", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("b", 20, |x: &i32| x * 2))
            .with_variant(straggler);
        let mut ctx = ExecContext::new(9).with_observer(ring.clone());
        let report = p.run(&10, &mut ctx);

        // Two agreeing of three fix the majority regardless of the
        // straggler; the straggler is cooperatively cancelled.
        assert_eq!(report.output(), Some(&20));
        assert_eq!(report.outcomes[2].result, Err(VariantFailure::Cancelled));
        assert_eq!(report.cancelled(), 1);
        assert_eq!(report.early_exited(), 1);
        let events = ring.events();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Point(Point::VariantCancelled { variant }) if *variant == "straggler"
        )));
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Point(Point::EarlyDecision {
                executed: 2,
                total: 3
            })
        )));
    }

    #[test]
    fn eager_selection_skips_lower_priority_components() {
        let t = || {
            Box::new(FnAcceptance::new("nonneg", |_: &i32, out: &i32| *out >= 0))
                as BoxedAcceptance<i32, i32>
        };
        let p = ParallelSelection::new()
            .with_policy(DecisionPolicy::Eager)
            .with_component(pure_variant("acting", 10, |_: &i32| -5), t())
            .with_component(pure_variant("spare1", 10, |x: &i32| x + 2), t())
            .with_component(pure_variant("spare2", 10, |x: &i32| x + 3), t());
        let mut ctx = ExecContext::new(3);
        let report = p.run(&4, &mut ctx);
        assert_eq!(report.output(), Some(&6));
        assert_eq!(report.selected.as_deref(), Some("spare1"));
        assert_eq!(report.skipped(), 1);
        assert_eq!(report.outcomes[2].result, Err(VariantFailure::Skipped));
    }

    #[test]
    fn eager_with_batch_only_adjudicator_never_exits_early() {
        use crate::adjudicator::voting::MedianVoter;
        // Median depends on every outcome: the blanket adapter keeps it
        // correct under the eager policy by never deciding early.
        let build = |policy| {
            ParallelEvaluation::new(MedianVoter::new())
                .with_policy(policy)
                .with_variant(pure_variant("a", 10, |x: &i32| x + 1))
                .with_variant(pure_variant("b", 20, |x: &i32| x + 5))
                .with_variant(pure_variant("c", 30, |x: &i32| x + 9))
        };
        let mut c1 = ExecContext::new(4);
        let exhaustive = build(DecisionPolicy::Exhaustive).run(&1, &mut c1);
        let mut c2 = ExecContext::new(4);
        let eager = build(DecisionPolicy::Eager).run(&1, &mut c2);
        assert_eq!(exhaustive.verdict, eager.verdict);
        assert_eq!(exhaustive.cost, eager.cost);
        assert_eq!(eager.skipped(), 0);
    }

    #[test]
    fn eager_unreachable_rejects_from_prefix() {
        // Quorum 3 of 3 with an early crash: acceptance becomes
        // unreachable after the first outcome; b and c are skipped.
        use crate::adjudicator::voting::QuorumVoter;
        let p = ParallelEvaluation::new(QuorumVoter::new(3))
            .with_policy(DecisionPolicy::Eager)
            .with_variant(failing_variant("crasher"))
            .with_variant(pure_variant("b", 20, |x: &i32| x + 1))
            .with_variant(pure_variant("c", 30, |x: &i32| x + 1));
        let mut ctx = ExecContext::new(2);
        let report = p.run(&1, &mut ctx);
        assert!(!report.is_accepted());
        assert_eq!(report.executed(), 1);
        assert_eq!(report.skipped(), 2);
    }

    #[test]
    fn parallel_selection_threaded_matches_sequential() {
        let build = |mode| {
            let t1 = FnAcceptance::new("nonneg", |_: &i32, out: &i32| *out >= 0);
            let t2 = FnAcceptance::new("nonneg", |_: &i32, out: &i32| *out >= 0);
            ParallelSelection::new()
                .with_mode(mode)
                .with_component(pure_variant("a", 10, |_: &i32| -5), Box::new(t1))
                .with_component(pure_variant("b", 20, |x: &i32| x * 2), Box::new(t2))
        };
        let mut c1 = ExecContext::new(3);
        let mut c2 = ExecContext::new(3);
        let seq = build(ExecutionMode::Sequential).run(&4, &mut c1);
        let thr = build(ExecutionMode::Threaded).run(&4, &mut c2);
        assert_eq!(seq.verdict, thr.verdict);
        assert_eq!(seq.selected, thr.selected);
    }

    #[test]
    fn eager_threaded_cancellation_reaches_nested_threaded_patterns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        // Each nested variant charges one unit at a time until a charge
        // fails (counted in `stopped`) or five seconds pass.
        let stopped = Arc::new(AtomicUsize::new(0));
        let slow = |name: &str| -> BoxedVariant<i32, i32> {
            let stopped = Arc::clone(&stopped);
            Box::new(FnVariant::new(
                name,
                move |x: &i32, ctx: &mut ExecContext| {
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_secs(5) {
                        if ctx.charge(1).is_err() {
                            stopped.fetch_add(1, Ordering::SeqCst);
                            return Err(VariantFailure::Timeout);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Ok(*x)
                },
            ))
        };
        let nested = Arc::new(
            ParallelEvaluation::new(MajorityVoter::new())
                .with_mode(ExecutionMode::Threaded)
                .with_policy(DecisionPolicy::Eager)
                .with_variant(slow("slow1"))
                .with_variant(slow("slow2"))
                .with_variant(slow("slow3")),
        );
        let outer = ParallelEvaluation::new(MajorityVoter::new())
            .with_mode(ExecutionMode::Threaded)
            .with_policy(DecisionPolicy::Eager)
            .with_variant(pure_variant("a", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("b", 10, |x: &i32| x * 2))
            .with_variant(Box::new(FnVariant::new(
                "nested",
                move |x: &i32, ctx: &mut ExecContext| {
                    nested
                        .run(x, ctx)
                        .into_output()
                        .ok_or(VariantFailure::Omission)
                },
            )));
        let report = outer.run(&10, &mut ExecContext::new(5));
        assert_eq!(report.output(), Some(&20));
        // The outer verdict is fixed by a and b: its token must reach the
        // nested pattern's variants through their own engine's token.
        assert_eq!(stopped.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn eager_threaded_children_see_an_inherited_cancel_after_fuse() {
        use crate::context::CancelToken;
        let charges = |name: &str| -> BoxedVariant<i32, i32> {
            Box::new(FnVariant::new(name, |x: &i32, ctx: &mut ExecContext| {
                for _ in 0..1_000 {
                    ctx.charge(1).map_err(|_| VariantFailure::Timeout)?;
                }
                Ok(*x)
            }))
        };
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_mode(ExecutionMode::Threaded)
            .with_policy(DecisionPolicy::Eager)
            .with_variant(charges("a"))
            .with_variant(charges("b"))
            .with_variant(charges("c"));
        // The fuse blows after 10 charge checks in all, long before any
        // variant finishes its 1 000 charges.
        let mut ctx = ExecContext::new(1).with_cancel_token(CancelToken::cancel_after(10));
        let report = p.run(&1, &mut ctx);
        assert!(!report.is_accepted());
        assert_eq!(report.cancelled(), 3);
    }
}
