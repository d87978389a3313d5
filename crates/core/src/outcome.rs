//! Outcomes of variant executions and verdicts of adjudicators.
//!
//! A [`VariantOutcome`] is what one alternative produced — either a value or
//! a [`VariantFailure`]. A [`Verdict`] is what an
//! [`Adjudicator`](crate::adjudicator::Adjudicator) concluded from a set of
//! outcomes. Note the asymmetry the paper emphasizes: a variant can fail
//! *detectably* (crash, timeout, error) or *silently* (wrong output); only
//! adjudication can surface the latter.

use std::fmt;

use redundancy_obs::Symbol;

use crate::cost::Cost;

/// A detectable failure of a single variant execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum VariantFailure {
    /// The variant crashed (panicked or aborted).
    Crash {
        /// Human-readable crash reason.
        message: String,
    },
    /// The variant exceeded its fuel budget (a simulated hang).
    Timeout,
    /// The variant returned an explicit error.
    Error {
        /// Error description.
        message: String,
    },
    /// The variant produced no result (e.g. an unavailable service).
    Omission,
    /// The variant was cooperatively cancelled mid-flight: the verdict was
    /// already fixed, so its remaining work was abandoned
    /// (`DecisionPolicy::Eager`, threaded mode).
    Cancelled,
    /// The variant was never started: the verdict was fixed before its
    /// turn (`DecisionPolicy::Eager`, sequential mode).
    Skipped,
}

impl VariantFailure {
    /// Convenience constructor for crashes.
    #[must_use]
    pub fn crash(message: impl Into<String>) -> Self {
        VariantFailure::Crash {
            message: message.into(),
        }
    }

    /// Convenience constructor for explicit errors.
    #[must_use]
    pub fn error(message: impl Into<String>) -> Self {
        VariantFailure::Error {
            message: message.into(),
        }
    }

    /// Short machine-friendly label for the failure kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            VariantFailure::Crash { .. } => "crash",
            VariantFailure::Timeout => "timeout",
            VariantFailure::Error { .. } => "error",
            VariantFailure::Omission => "omission",
            VariantFailure::Cancelled => "cancelled",
            VariantFailure::Skipped => "skipped",
        }
    }

    /// Whether this failure means the variant never ran to completion
    /// because an early decision made its result irrelevant.
    #[must_use]
    pub fn is_early_exit(&self) -> bool {
        matches!(self, VariantFailure::Cancelled | VariantFailure::Skipped)
    }
}

impl fmt::Display for VariantFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantFailure::Crash { message } => write!(f, "crash: {message}"),
            VariantFailure::Timeout => f.write_str("timeout"),
            VariantFailure::Error { message } => write!(f, "error: {message}"),
            VariantFailure::Omission => f.write_str("omission"),
            VariantFailure::Cancelled => f.write_str("cancelled after early decision"),
            VariantFailure::Skipped => f.write_str("skipped after early decision"),
        }
    }
}

impl std::error::Error for VariantFailure {}

/// The result of executing one variant, with its identity and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantOutcome<O> {
    /// Interned name of the variant that produced this outcome (a
    /// 4-byte copy of [`Variant::symbol`](crate::variant::Variant::symbol)).
    pub variant: Symbol,
    /// The produced value, or a detectable failure.
    pub result: Result<O, VariantFailure>,
    /// Cost of this execution.
    pub cost: Cost,
}

impl<O> VariantOutcome<O> {
    /// Creates a successful outcome.
    #[must_use]
    pub fn ok(variant: impl Into<Symbol>, output: O) -> Self {
        Self {
            variant: variant.into(),
            result: Ok(output),
            cost: Cost::ZERO,
        }
    }

    /// Creates a failed outcome.
    #[must_use]
    pub fn failed(variant: impl Into<Symbol>, failure: VariantFailure) -> Self {
        Self {
            variant: variant.into(),
            result: Err(failure),
            cost: Cost::ZERO,
        }
    }

    /// Attaches a cost to the outcome.
    #[must_use]
    pub fn with_cost(mut self, cost: Cost) -> Self {
        self.cost = cost;
        self
    }

    /// The output, if the variant did not detectably fail.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        self.result.as_ref().ok()
    }

    /// Whether the variant completed without a detectable failure.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// The conclusion an adjudicator draws from a set of variant outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict<O> {
    /// An output was accepted. `support` counts the outcomes agreeing with
    /// it, `dissent` those disagreeing or failed.
    Accepted {
        /// The adjudicated output.
        output: O,
        /// Number of outcomes supporting the output.
        support: usize,
        /// Number of outcomes contradicting the output (including
        /// detectable failures).
        dissent: usize,
    },
    /// No output could be accepted.
    Rejected {
        /// Why adjudication failed (no majority, all failed, test failed…).
        reason: RejectionReason,
    },
}

/// Why an adjudicator rejected all candidate outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RejectionReason {
    /// No candidate reached the required agreement threshold.
    NoQuorum,
    /// Every variant failed detectably.
    AllFailed,
    /// An explicit acceptance test rejected every candidate.
    AcceptanceFailed,
    /// There were no outcomes to adjudicate.
    NoOutcomes,
    /// Outputs disagreed where unanimity was required.
    Disagreement,
}

impl RejectionReason {
    /// Short machine-friendly label for the rejection reason (the label
    /// carried by observability events).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RejectionReason::NoQuorum => "no_quorum",
            RejectionReason::AllFailed => "all_failed",
            RejectionReason::AcceptanceFailed => "acceptance_failed",
            RejectionReason::NoOutcomes => "no_outcomes",
            RejectionReason::Disagreement => "disagreement",
        }
    }
}

impl fmt::Display for RejectionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectionReason::NoQuorum => "no quorum among variant outputs",
            RejectionReason::AllFailed => "all variants failed detectably",
            RejectionReason::AcceptanceFailed => "acceptance test rejected every candidate",
            RejectionReason::NoOutcomes => "no outcomes to adjudicate",
            RejectionReason::Disagreement => "variant outputs disagree",
        })
    }
}

impl<O> Verdict<O> {
    /// Creates an accepted verdict.
    #[must_use]
    pub fn accepted(output: O, support: usize, dissent: usize) -> Self {
        Verdict::Accepted {
            output,
            support,
            dissent,
        }
    }

    /// Creates a rejected verdict.
    #[must_use]
    pub fn rejected(reason: RejectionReason) -> Self {
        Verdict::Rejected { reason }
    }

    /// Whether an output was accepted.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted { .. })
    }

    /// The accepted output, if any.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        match self {
            Verdict::Accepted { output, .. } => Some(output),
            Verdict::Rejected { .. } => None,
        }
    }

    /// Consumes the verdict, returning the accepted output if any.
    #[must_use]
    pub fn into_output(self) -> Option<O> {
        match self {
            Verdict::Accepted { output, .. } => Some(output),
            Verdict::Rejected { .. } => None,
        }
    }

    /// Maps the output type.
    #[must_use]
    pub fn map<P, F: FnOnce(O) -> P>(self, f: F) -> Verdict<P> {
        match self {
            Verdict::Accepted {
                output,
                support,
                dissent,
            } => Verdict::Accepted {
                output: f(output),
                support,
                dissent,
            },
            Verdict::Rejected { reason } => Verdict::Rejected { reason },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let ok = VariantOutcome::ok("v1", 42);
        assert!(ok.is_ok());
        assert_eq!(ok.output(), Some(&42));

        let bad: VariantOutcome<i32> = VariantOutcome::failed("v2", VariantFailure::Timeout);
        assert!(!bad.is_ok());
        assert_eq!(bad.output(), None);
    }

    #[test]
    fn failure_kinds_and_display() {
        assert_eq!(VariantFailure::crash("boom").kind(), "crash");
        assert_eq!(VariantFailure::Timeout.kind(), "timeout");
        assert_eq!(VariantFailure::error("e").kind(), "error");
        assert_eq!(VariantFailure::Omission.kind(), "omission");
        assert_eq!(VariantFailure::Cancelled.kind(), "cancelled");
        assert_eq!(VariantFailure::Skipped.kind(), "skipped");
        assert!(VariantFailure::Cancelled.is_early_exit());
        assert!(VariantFailure::Skipped.is_early_exit());
        assert!(!VariantFailure::Timeout.is_early_exit());
        assert_eq!(VariantFailure::crash("boom").to_string(), "crash: boom");
    }

    #[test]
    fn verdict_accessors() {
        let v = Verdict::accepted(7, 2, 1);
        assert!(v.is_accepted());
        assert_eq!(v.output(), Some(&7));
        assert_eq!(v.clone().into_output(), Some(7));

        let r: Verdict<i32> = Verdict::rejected(RejectionReason::NoQuorum);
        assert!(!r.is_accepted());
        assert_eq!(r.output(), None);
        assert_eq!(r.into_output(), None);
    }

    #[test]
    fn verdict_map_preserves_counts() {
        let v = Verdict::accepted(7, 3, 2).map(|x| x * 2);
        match v {
            Verdict::Accepted {
                output,
                support,
                dissent,
            } => {
                assert_eq!(output, 14);
                assert_eq!(support, 3);
                assert_eq!(dissent, 2);
            }
            Verdict::Rejected { .. } => panic!("expected accepted"),
        }
    }

    #[test]
    fn rejection_reasons_display_and_kind() {
        for reason in [
            RejectionReason::NoQuorum,
            RejectionReason::AllFailed,
            RejectionReason::AcceptanceFailed,
            RejectionReason::NoOutcomes,
            RejectionReason::Disagreement,
        ] {
            assert!(!reason.to_string().is_empty());
            assert!(!reason.kind().is_empty());
            assert!(!reason.kind().contains(' '), "kinds are machine labels");
        }
        assert_eq!(RejectionReason::NoQuorum.kind(), "no_quorum");
    }

    #[test]
    fn with_cost_attaches() {
        let c = Cost::of_invocation(3, 30);
        let o = VariantOutcome::ok("v", 1).with_cost(c);
        assert_eq!(o.cost, c);
    }
}
