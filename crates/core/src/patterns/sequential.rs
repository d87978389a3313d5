//! Figure 1(c): the *sequential alternatives* pattern.
//!
//! Unlike the parallel engines, this pattern never routes through the
//! batch adjudication kernel ([`crate::adjudicator::batch`]): each
//! alternative is checked by an explicit acceptance test the moment it
//! finishes, so there is no complete outcome row to vote over — the
//! pattern is inherently eager and its adjudication is per-variant.

use redundancy_obs::{Point, SpanKind};

use crate::adjudicator::acceptance::{AcceptanceTest, BoxedAcceptance};
use crate::context::ExecContext;
use crate::outcome::{RejectionReason, Verdict};
use crate::patterns::{emit_verdict, record_pattern_run, verdict_status, PatternReport};
use crate::variant::{run_contained, BoxedVariant};

type RollbackHook = Box<dyn Fn(&mut ExecContext) + Send + Sync>;

/// Figure 1(c): alternatives execute one at a time; an adjudicator checks
/// each result and promotes the next alternative on failure.
///
/// This is the skeleton of recovery blocks, retry blocks (data diversity),
/// registry-based recovery and dynamic service substitution. A rollback
/// hook restores a consistent state between attempts, as recovery blocks
/// require (Randell's "recovery cache").
///
/// # Examples
///
/// ```
/// use redundancy_core::adjudicator::acceptance::FnAcceptance;
/// use redundancy_core::context::ExecContext;
/// use redundancy_core::patterns::SequentialAlternatives;
/// use redundancy_core::variant::pure_variant;
///
/// let rb = SequentialAlternatives::new(FnAcceptance::new(
///     "positive",
///     |_in: &i32, out: &i32| *out > 0,
/// ))
/// .with_variant(pure_variant("primary-buggy", 10, |_x: &i32| -1))
/// .with_variant(pure_variant("alternate", 12, |x: &i32| x + 1));
///
/// let mut ctx = ExecContext::new(0);
/// let report = rb.run(&1, &mut ctx);
/// assert_eq!(report.into_output(), Some(2));
/// ```
pub struct SequentialAlternatives<I, O> {
    variants: Vec<BoxedVariant<I, O>>,
    test: BoxedAcceptance<I, O>,
    rollback: Option<RollbackHook>,
    max_attempts: Option<usize>,
}

impl<I, O> SequentialAlternatives<I, O> {
    /// Creates the pattern with the acceptance test shared by every
    /// alternative.
    #[must_use]
    pub fn new(test: impl AcceptanceTest<I, O> + 'static) -> Self {
        Self {
            variants: Vec::new(),
            test: Box::new(test),
            rollback: None,
            max_attempts: None,
        }
    }

    /// Adds an alternative (builder style). Insertion order is execution
    /// order: the first variant is the primary block.
    #[must_use]
    pub fn with_variant(mut self, variant: BoxedVariant<I, O>) -> Self {
        self.variants.push(variant);
        self
    }

    /// Adds an alternative.
    pub fn push_variant(&mut self, variant: BoxedVariant<I, O>) {
        self.variants.push(variant);
    }

    /// Installs a rollback hook invoked before each non-primary attempt, as
    /// recovery blocks require to restore a consistent state.
    #[must_use]
    pub fn with_rollback(
        mut self,
        rollback: impl Fn(&mut ExecContext) + Send + Sync + 'static,
    ) -> Self {
        self.rollback = Some(Box::new(rollback));
        self
    }

    /// Caps the number of attempted alternatives (default: all).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = Some(max_attempts);
        self
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

    /// Executes alternatives in order until one passes the acceptance test.
    ///
    /// Virtual time is the *sum* of the attempts made — the pattern's
    /// defining cost trade-off against parallel evaluation (§4.1).
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        O: Clone,
    {
        let span = ctx.obs_begin(|| SpanKind::Pattern {
            name: "sequential_alternatives",
        });
        let before = ctx.cost();
        if self.variants.is_empty() {
            let verdict = Verdict::rejected(RejectionReason::NoOutcomes);
            emit_verdict(ctx, &verdict);
            ctx.obs_end(
                span,
                verdict_status(&verdict),
                ctx.cost().delta_since(before).snapshot(),
            );
            record_pattern_run::<O>(&[]);
            return PatternReport {
                verdict,
                outcomes: Vec::new(),
                cost: ctx.cost().delta_since(before),
                selected: None,
            };
        }
        let limit = self
            .max_attempts
            .map_or(self.variants.len(), |m| m.min(self.variants.len()));
        let mut outcomes = Vec::new();
        let mut any_silent_rejection = false;
        for (i, variant) in self.variants.iter().take(limit).enumerate() {
            if i > 0 {
                if let Some(rollback) = &self.rollback {
                    ctx.obs_emit(|| Point::Rollback {
                        label: "pre-alternate",
                    });
                    rollback(ctx);
                }
            }
            let mut child = ctx.fork(i as u64);
            let outcome = run_contained(variant.as_ref(), input, &mut child);
            ctx.join(child);
            ctx.add_sequential_cost(outcome.cost);
            let accepted = outcome.output().map(|out| self.test.accept(input, out));
            outcomes.push(outcome);
            match accepted {
                Some(true) => {
                    let last = outcomes.last().expect("just pushed");
                    let output = last.output().expect("accepted outcome").clone();
                    let selected = Some(last.variant.to_string());
                    let verdict = Verdict::accepted(output, 1, outcomes.len() - 1);
                    emit_verdict(ctx, &verdict);
                    ctx.obs_end(
                        span,
                        verdict_status(&verdict),
                        ctx.cost().delta_since(before).snapshot(),
                    );
                    record_pattern_run(&outcomes);
                    return PatternReport {
                        verdict,
                        cost: ctx.cost().delta_since(before),
                        outcomes,
                        selected,
                    };
                }
                Some(false) => any_silent_rejection = true,
                None => {}
            }
        }
        let reason = if any_silent_rejection {
            RejectionReason::AcceptanceFailed
        } else {
            RejectionReason::AllFailed
        };
        let verdict = Verdict::rejected(reason);
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
            selected: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjudicator::acceptance::FnAcceptance;
    use crate::outcome::VariantFailure;
    use crate::variant::{pure_variant, FnVariant};

    fn positive_test() -> FnAcceptance<impl Fn(&i32, &i32) -> bool> {
        FnAcceptance::new("positive", |_: &i32, out: &i32| *out > 0)
    }

    #[test]
    fn primary_succeeds_without_trying_alternates() {
        let p = SequentialAlternatives::new(positive_test())
            .with_variant(pure_variant("primary", 10, |x: &i32| x + 1))
            .with_variant(pure_variant("alternate", 50, |x: &i32| x + 2));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&2));
        assert_eq!(report.executed(), 1);
        assert_eq!(report.cost.virtual_ns, 10); // alternate never ran
        assert_eq!(report.selected.as_deref(), Some("primary"));
    }

    #[test]
    fn falls_through_to_alternate_and_sums_cost() {
        let p = SequentialAlternatives::new(positive_test())
            .with_variant(pure_variant("primary", 10, |_: &i32| -1))
            .with_variant(pure_variant("alternate", 50, |x: &i32| x + 2));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&3));
        assert_eq!(report.executed(), 2);
        assert_eq!(report.cost.virtual_ns, 60); // sequential: 10 + 50
        assert_eq!(report.selected.as_deref(), Some("alternate"));
    }

    #[test]
    fn detectable_failures_also_trigger_fallback() {
        let crasher: BoxedVariant<i32, i32> =
            Box::new(FnVariant::new("crasher", |_: &i32, _: &mut ExecContext| {
                Err(VariantFailure::crash("boom"))
            }));
        let p = SequentialAlternatives::new(positive_test())
            .with_variant(crasher)
            .with_variant(pure_variant("alternate", 5, |x: &i32| *x));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&9, &mut ctx);
        assert_eq!(report.output(), Some(&9));
    }

    #[test]
    fn rejects_when_all_alternates_rejected() {
        let p = SequentialAlternatives::new(positive_test())
            .with_variant(pure_variant("a", 1, |_: &i32| -1))
            .with_variant(pure_variant("b", 1, |_: &i32| -2));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&1, &mut ctx);
        assert_eq!(
            report.verdict,
            Verdict::rejected(RejectionReason::AcceptanceFailed)
        );
    }

    #[test]
    fn rejects_all_failed_when_every_attempt_crashes() {
        let mk = |name: &str| -> BoxedVariant<i32, i32> {
            Box::new(FnVariant::new(name, |_: &i32, _: &mut ExecContext| {
                Err(VariantFailure::Timeout)
            }))
        };
        let p = SequentialAlternatives::new(positive_test())
            .with_variant(mk("a"))
            .with_variant(mk("b"));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&1, &mut ctx);
        assert_eq!(
            report.verdict,
            Verdict::rejected(RejectionReason::AllFailed)
        );
    }

    #[test]
    fn rollback_runs_before_each_retry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let rollbacks = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rollbacks);
        let p = SequentialAlternatives::new(positive_test())
            .with_rollback(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .with_variant(pure_variant("a", 1, |_: &i32| -1))
            .with_variant(pure_variant("b", 1, |_: &i32| -1))
            .with_variant(pure_variant("c", 1, |x: &i32| *x));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&5, &mut ctx);
        assert_eq!(report.output(), Some(&5));
        // Rolled back before attempts 2 and 3 but not before the primary.
        assert_eq!(rollbacks.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn max_attempts_caps_execution() {
        let p = SequentialAlternatives::new(positive_test())
            .with_max_attempts(1)
            .with_variant(pure_variant("a", 1, |_: &i32| -1))
            .with_variant(pure_variant("b", 1, |x: &i32| *x));
        let mut ctx = ExecContext::new(0);
        let report = p.run(&5, &mut ctx);
        assert!(!report.is_accepted());
        assert_eq!(report.executed(), 1);
    }

    #[test]
    fn report_cost_is_per_run_not_cumulative() {
        // Regression: the second run on a shared context used to report
        // the cumulative meter instead of its own attempts.
        let build = || {
            SequentialAlternatives::new(positive_test())
                .with_variant(pure_variant("primary", 10, |_: &i32| -1))
                .with_variant(pure_variant("alternate", 50, |x: &i32| x + 2))
        };
        let mut ctx = ExecContext::new(0);
        let first = build().run(&1, &mut ctx);
        let second = build().run(&1, &mut ctx);
        assert_eq!(first.cost, second.cost);
        assert_eq!(second.cost.virtual_ns, 60); // 10 + 50, this run only
        assert_eq!(ctx.cost().virtual_ns, 120); // context stays cumulative
    }

    #[test]
    fn empty_pattern_rejects() {
        let p: SequentialAlternatives<i32, i32> = SequentialAlternatives::new(positive_test());
        let mut ctx = ExecContext::new(0);
        assert_eq!(
            p.run(&1, &mut ctx).verdict,
            Verdict::rejected(RejectionReason::NoOutcomes)
        );
    }
}
