//! The structured event model: spans, points, and cost snapshots.
//!
//! Everything the instrumented stack reports flows through [`Event`]s. An
//! event is either the start of a [`Span`] (a nested region of execution:
//! a trial, a technique invocation, a pattern run, one variant execution),
//! the end of a span (carrying its [`SpanStatus`] and the [`CostSnapshot`]
//! it consumed), or a [`Point`] — an instantaneous technique-specific
//! occurrence such as a checkpoint, a rollback, a rejuvenation or a
//! service rebind.
//!
//! The model is deliberately dependency-free: failure kinds and rejection
//! reasons are carried as `&'static str` labels (produced by
//! `VariantFailure::kind()` and `RejectionReason::kind()` upstream), so
//! this crate can sit *below* `redundancy-core` in the dependency graph
//! and every layer of the stack can emit events.

use crate::intern::Symbol;

/// Identifier of a span. `0` is the root (no enclosing span); real spans
/// get ids from 1 upwards, allocated deterministically per context tree.
pub type SpanId = u64;

/// The root span id: events outside any span belong to it.
pub const ROOT_SPAN: SpanId = 0;

/// A dependency-free snapshot of an execution cost (mirrors
/// `redundancy_core::cost::Cost`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSnapshot {
    /// Work units consumed (the fuel/SimClock currency).
    pub work_units: u64,
    /// Virtual nanoseconds elapsed (SimClock ticks).
    pub virtual_ns: u64,
    /// Variant invocations performed.
    pub invocations: u64,
    /// Development-time cost charged (number of variant designs).
    pub design_cost: f64,
}

impl CostSnapshot {
    /// The zero cost.
    pub const ZERO: CostSnapshot = CostSnapshot {
        work_units: 0,
        virtual_ns: 0,
        invocations: 0,
        design_cost: 0.0,
    };
}

/// What kind of execution region a span covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// One Monte-Carlo trial of a campaign.
    Trial {
        /// Trial index within the campaign.
        index: u64,
        /// The derived per-trial seed.
        seed: u64,
    },
    /// One invocation of a named fault-handling technique.
    Technique {
        /// Technique label (e.g. `"n-version"`, `"recovery-blocks"`).
        name: &'static str,
    },
    /// One run of a Figure-1 pattern engine.
    Pattern {
        /// `"parallel_evaluation"`, `"parallel_selection"` or
        /// `"sequential_alternatives"`.
        name: &'static str,
    },
    /// One contained variant execution.
    Variant {
        /// The variant's name (interned: copying is four bytes).
        name: Symbol,
    },
    /// A generic named region (service invocation, GP search, ...).
    Scope {
        /// Region label.
        name: &'static str,
    },
}

impl SpanKind {
    /// Short label for rendering.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SpanKind::Trial { index, seed } => format!("trial #{index} (seed {seed:#x})"),
            SpanKind::Technique { name } => format!("technique {name}"),
            SpanKind::Pattern { name } => format!("pattern {name}"),
            SpanKind::Variant { name } => format!("variant {name}"),
            SpanKind::Scope { name } => format!("scope {name}"),
        }
    }
}

/// How a span concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanStatus {
    /// The region completed normally (no adjudication involved).
    Ok,
    /// An adjudicator accepted an output with this support/dissent split.
    Accepted {
        /// Outcomes agreeing with the accepted output.
        support: usize,
        /// Outcomes disagreeing or failed.
        dissent: usize,
    },
    /// An adjudicator rejected every candidate.
    Rejected {
        /// `RejectionReason::kind()` label.
        reason: &'static str,
    },
    /// The region failed detectably.
    Failed {
        /// `VariantFailure::kind()` label (`crash`, `timeout`, ...).
        kind: &'static str,
    },
    /// A trial concluded with this disposition: `"correct"`,
    /// `"undetected"` or `"detected"`.
    Trial {
        /// The trial disposition label.
        disposition: &'static str,
    },
}

impl SpanStatus {
    /// Short label for rendering.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SpanStatus::Ok => "ok".to_owned(),
            SpanStatus::Accepted { support, dissent } => {
                format!("accepted {support}:{dissent}")
            }
            SpanStatus::Rejected { reason } => format!("rejected ({reason})"),
            SpanStatus::Failed { kind } => format!("failed ({kind})"),
            SpanStatus::Trial { disposition } => (*disposition).to_owned(),
        }
    }
}

/// An instantaneous, technique-specific occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point {
    /// An adjudicator produced a verdict.
    Verdict {
        /// Whether an output was accepted.
        accepted: bool,
        /// Outcomes supporting the accepted output (0 when rejected).
        support: usize,
        /// Outcomes dissenting (0 when rejected).
        dissent: usize,
        /// Rejection reason label when rejected.
        rejection: Option<&'static str>,
    },
    /// A fuel budget ran out (the simulated hang/watchdog event).
    FuelExhausted {
        /// Work units consumed by the hung execution.
        consumed: u64,
    },
    /// A checkpoint of recoverable state was taken.
    Checkpoint {
        /// What was checkpointed.
        label: &'static str,
    },
    /// State was rolled back to the last checkpoint.
    Rollback {
        /// What was rolled back.
        label: &'static str,
    },
    /// A component was rejuvenated (aging state reset).
    Rejuvenation {
        /// Age counter before the reset.
        age_before: u64,
    },
    /// A service call was rebound to a different provider.
    ServiceRebind {
        /// Interface being served (interned).
        interface: Symbol,
        /// Provider that failed (empty for the initial binding).
        from: Symbol,
        /// Provider now serving.
        to: Symbol,
    },
    /// A retry block re-expressed its input.
    Reexpression {
        /// Re-expression name (interned).
        name: Symbol,
        /// Retry attempt number (1 = first re-expression).
        attempt: u32,
    },
    /// The environment was perturbed before a re-execution (RX).
    Perturbation {
        /// Which knob was changed.
        knob: &'static str,
        /// Re-execution attempt number.
        attempt: u32,
    },
    /// A workaround was applied in place of a failing sequence.
    Workaround {
        /// The rewriting rule used (interned).
        rule: Symbol,
        /// Whether the workaround succeeded.
        applied: bool,
    },
    /// A wrapper sanitized or refused an input.
    Sanitized {
        /// What the wrapper did: `"rewritten"`, `"rejected"`, ...
        action: &'static str,
    },
    /// A streaming adjudicator fixed its verdict before every variant
    /// ran (the early-exit point of `DecisionPolicy::Eager`).
    EarlyDecision {
        /// Variants whose outcomes were fed before the verdict fixed.
        executed: usize,
        /// Total variants the pattern holds.
        total: usize,
    },
    /// A straggler variant was cooperatively cancelled after the verdict
    /// was already fixed.
    VariantCancelled {
        /// Name of the cancelled variant (interned).
        variant: Symbol,
    },
    /// Anything else (escape hatch for one-off instrumentation).
    Custom {
        /// Event name.
        name: &'static str,
        /// Free-form detail (interned).
        detail: Symbol,
    },
}

impl Point {
    /// Short machine-friendly label for the point type.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Point::Verdict { .. } => "verdict",
            Point::FuelExhausted { .. } => "fuel_exhausted",
            Point::Checkpoint { .. } => "checkpoint",
            Point::Rollback { .. } => "rollback",
            Point::Rejuvenation { .. } => "rejuvenation",
            Point::ServiceRebind { .. } => "service_rebind",
            Point::Reexpression { .. } => "reexpression",
            Point::Perturbation { .. } => "perturbation",
            Point::Workaround { .. } => "workaround",
            Point::Sanitized { .. } => "sanitized",
            Point::EarlyDecision { .. } => "early-decision",
            Point::VariantCancelled { .. } => "variant-cancelled",
            Point::Custom { name, .. } => name,
        }
    }
}

/// What an event reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A span began. The event's `span` field is the new span's id; the
    /// `parent` field is the enclosing span.
    SpanStart {
        /// What region the span covers.
        kind: SpanKind,
    },
    /// A span ended (the event's `span` field names it).
    SpanEnd {
        /// How it concluded.
        status: SpanStatus,
        /// Cost consumed by the span.
        cost: CostSnapshot,
    },
    /// An instantaneous occurrence inside the event's `span`.
    Point(Point),
}

/// One record in an execution trace.
///
/// Since every payload label is either `&'static str` or an interned
/// [`Symbol`], `Event` is plain-old-data: it derives [`Copy`], so
/// recording, cloning and merging events never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global sequence number, assigned by the observer at record time.
    pub seq: u64,
    /// The span this event belongs to (for `SpanStart`: the new span).
    pub span: SpanId,
    /// The enclosing span (same as `span` except for `SpanStart`).
    pub parent: SpanId,
    /// Context-local virtual time (SimClock ns) at emission.
    pub clock: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_nonempty() {
        let kinds = [
            SpanKind::Trial { index: 1, seed: 2 },
            SpanKind::Technique { name: "nvp" },
            SpanKind::Pattern {
                name: "parallel_evaluation",
            },
            SpanKind::Variant { name: "v1".into() },
            SpanKind::Scope { name: "gp" },
        ];
        for k in kinds {
            assert!(!k.label().is_empty());
        }
        let statuses = [
            SpanStatus::Ok,
            SpanStatus::Accepted {
                support: 2,
                dissent: 1,
            },
            SpanStatus::Rejected {
                reason: "no_quorum",
            },
            SpanStatus::Failed { kind: "crash" },
            SpanStatus::Trial {
                disposition: "correct",
            },
        ];
        for s in statuses {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn point_names_are_stable() {
        assert_eq!(Point::Checkpoint { label: "proc" }.name(), "checkpoint");
        assert_eq!(
            Point::Custom {
                name: "my_event",
                detail: Symbol::intern("")
            }
            .name(),
            "my_event"
        );
    }
}
