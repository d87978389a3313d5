//! Adjudicators: the components that decide which redundant result to trust
//! (paper §3, "Triggers and adjudicators").
//!
//! The paper distinguishes *implicit* adjudicators — built into the
//! redundancy mechanism itself, like the majority vote of N-version
//! programming — from *explicit* adjudicators — designed per application,
//! like recovery-block acceptance tests. Both live here:
//!
//! - [`voting`] provides the implicit family (majority, plurality, quorum,
//!   unanimity, median, numeric tolerance voting);
//! - [`acceptance`] provides the explicit family ([`AcceptanceTest`] and
//!   combinators);
//! - [`incremental`] provides the streaming interface
//!   ([`IncrementalAdjudicator`]) that lets pattern engines fix a verdict
//!   before every variant has run;
//! - [`batch`] provides the exact-equality voting rules ([`VoteRule`])
//!   and the row kernel every exact voter decides through.
//!
//! [`AcceptanceTest`]: acceptance::AcceptanceTest

pub mod acceptance;
pub mod batch;
pub mod incremental;
pub mod voting;

use crate::outcome::{RejectionReason, VariantOutcome, Verdict};
use crate::taxonomy::Adjudication;

pub use batch::VoteRule;
pub use incremental::{BatchIncremental, Decision, IncrementalAdjudicator};

/// Decides a single output from the outcomes of several variants.
///
/// Object-safe so patterns can hold `Box<dyn Adjudicator<O>>`.
pub trait Adjudicator<O>: Send + Sync {
    /// Identifies the adjudicator in reports.
    fn name(&self) -> &str;

    /// Whether this adjudicator is implicit (built-in comparison) or
    /// explicit (application-specific check) in the paper's taxonomy.
    fn adjudication(&self) -> Adjudication;

    /// Draws a verdict from the given outcomes.
    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O>;

    /// Starts a streaming adjudication over `total` variants.
    ///
    /// The default wraps the batch [`adjudicate`](Self::adjudicate) in a
    /// [`BatchIncremental`] adapter that never decides early, so every
    /// adjudicator streams correctly out of the box. Adjudicators whose
    /// verdict can fix before all outcomes are in (the voting family,
    /// [`FirstSuccess`]) override this with native state machines.
    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        let _ = total;
        Box::new(BatchIncremental::new(self))
    }

    /// The exact-equality [`VoteRule`] this adjudicator computes, if any.
    ///
    /// Returning `Some(rule)` is a promise that
    /// [`adjudicate`](Self::adjudicate) is observably identical to
    /// [`batch::vote_row`] under `rule` (the four exact voters decide
    /// through it). Adjudicators whose agreement relation is not plain
    /// equality (acceptance tests, median, tolerance, trimmed mean) keep
    /// the default `None`. No engine calls this: it stays on the trait
    /// only because perfbench's `TimedAdjudicator` wrapper implements it.
    fn vote_rule(&self) -> Option<VoteRule> {
        None
    }

    /// Adjudicates one complete row of outcomes. The engines call
    /// [`adjudicate`](Self::adjudicate) directly; this entry point stays,
    /// defaulting to it, for implementors that still provide it. An
    /// override must produce verdicts identical to `adjudicate`.
    fn adjudicate_batch_row(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        self.adjudicate(outcomes)
    }
}

impl<O> Adjudicator<O> for Box<dyn Adjudicator<O>> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn adjudication(&self) -> Adjudication {
        self.as_ref().adjudication()
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        self.as_ref().adjudicate(outcomes)
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        self.as_ref().begin_incremental(total)
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        self.as_ref().vote_rule()
    }
}

/// Accepts the first outcome that did not detectably fail.
///
/// This is the degenerate adjudicator of plain fail-over (dynamic service
/// substitution, simple retry): it catches crashes, timeouts and omissions
/// but is blind to silent wrong outputs.
///
/// # Examples
///
/// ```
/// use redundancy_core::adjudicator::{Adjudicator, FirstSuccess};
/// use redundancy_core::outcome::{VariantFailure, VariantOutcome};
///
/// let adj = FirstSuccess::new();
/// let outcomes = vec![
///     VariantOutcome::failed("a", VariantFailure::Timeout),
///     VariantOutcome::ok("b", 7),
/// ];
/// assert_eq!(adj.adjudicate(&outcomes).into_output(), Some(7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstSuccess;

impl FirstSuccess {
    /// Creates the adjudicator.
    #[must_use]
    pub fn new() -> Self {
        FirstSuccess
    }
}

impl<O: Clone> Adjudicator<O> for FirstSuccess {
    fn name(&self) -> &str {
        "first-success"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveExplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        if outcomes.is_empty() {
            return Verdict::rejected(RejectionReason::NoOutcomes);
        }
        for (idx, outcome) in outcomes.iter().enumerate() {
            if let Ok(output) = &outcome.result {
                return Verdict::accepted(output.clone(), 1, idx);
            }
        }
        Verdict::rejected(RejectionReason::AllFailed)
    }

    fn begin_incremental<'a>(&'a self, _total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        Box::new(incremental::StreamingFirstSuccess::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::VariantFailure;

    #[test]
    fn first_success_skips_failures() {
        let adj = FirstSuccess::new();
        let outcomes = vec![
            VariantOutcome::failed("a", VariantFailure::Omission),
            VariantOutcome::failed("b", VariantFailure::Timeout),
            VariantOutcome::ok("c", "hello"),
        ];
        match adj.adjudicate(&outcomes) {
            Verdict::Accepted {
                output, dissent, ..
            } => {
                assert_eq!(output, "hello");
                assert_eq!(dissent, 2);
            }
            Verdict::Rejected { .. } => panic!("expected acceptance"),
        }
    }

    #[test]
    fn first_success_rejects_when_all_fail() {
        let adj = FirstSuccess::new();
        let outcomes: Vec<VariantOutcome<i32>> = vec![
            VariantOutcome::failed("a", VariantFailure::Timeout),
            VariantOutcome::failed("b", VariantFailure::crash("x")),
        ];
        assert_eq!(
            adj.adjudicate(&outcomes),
            Verdict::rejected(RejectionReason::AllFailed)
        );
    }

    #[test]
    fn first_success_rejects_empty() {
        let adj = FirstSuccess::new();
        let outcomes: Vec<VariantOutcome<i32>> = vec![];
        assert_eq!(
            adj.adjudicate(&outcomes),
            Verdict::rejected(RejectionReason::NoOutcomes)
        );
    }

    #[test]
    fn boxed_adjudicator_delegates() {
        let adj: Box<dyn Adjudicator<i32>> = Box::new(FirstSuccess::new());
        assert_eq!(adj.name(), "first-success");
        assert_eq!(adj.adjudication(), Adjudication::ReactiveExplicit);
        let outcomes = vec![VariantOutcome::ok("a", 1)];
        assert!(adj.adjudicate(&outcomes).is_accepted());
    }
}
