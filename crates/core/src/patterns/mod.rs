//! The inter-component architectural patterns of the paper's Figure 1.
//!
//! - [`ParallelEvaluation`] — Figure 1(a): all alternatives execute, one
//!   adjudicator merges the results (N-version programming, process
//!   replicas, N-copy data diversity).
//! - [`ParallelSelection`] — Figure 1(b): alternatives execute in parallel,
//!   each result is validated by its own adjudicator, the first validated
//!   "acting" result wins and failing components are disabled
//!   (self-checking programming).
//! - [`SequentialAlternatives`] — Figure 1(c): alternatives execute one at
//!   a time; on rejection the next alternative is promoted (recovery
//!   blocks, retry blocks, service substitution, registry-based recovery).
//!
//! Each engine supports two [`ExecutionMode`]s: `Sequential` (deterministic
//! in-thread simulation, virtual time still modeling parallelism as
//! critical path) and `Threaded` (real OS threads via `std::thread::scope`).
//! Results are identical across modes because every variant draws from its
//! own forked random stream.
//!
//! Both parallel patterns run on one decision engine, which feeds their
//! outcomes in variant order to an [`IncrementalAdjudicator`]. Its two
//! [`DecisionPolicy`]s differ only in that judge: under `Exhaustive` it
//! never decides early, so every alternative runs and the full outcome
//! set is adjudicated; under `Eager` it stops paying for redundancy the
//! moment the verdict is mathematically fixed. Sequential alternatives
//! stop at the first accepted result by construction, so they take no
//! policy.
//!
//! [`ParallelEvaluation`]: parallel::ParallelEvaluation
//! [`ParallelSelection`]: parallel::ParallelSelection
//! [`SequentialAlternatives`]: sequential::SequentialAlternatives
//! [`IncrementalAdjudicator`]: crate::adjudicator::IncrementalAdjudicator

pub(crate) mod engine;
pub mod parallel;
pub mod sequential;

pub use parallel::{ParallelEvaluation, ParallelSelection};
pub use sequential::SequentialAlternatives;

use redundancy_obs::{Point, SpanStatus};

use crate::context::ExecContext;
use crate::cost::Cost;
use crate::outcome::{VariantOutcome, Verdict};

/// Maps a verdict to the span status an ending pattern/technique span
/// reports.
pub fn verdict_status<O>(verdict: &Verdict<O>) -> SpanStatus {
    match verdict {
        Verdict::Accepted {
            support, dissent, ..
        } => SpanStatus::Accepted {
            support: *support,
            dissent: *dissent,
        },
        Verdict::Rejected { reason } => SpanStatus::Rejected {
            reason: reason.kind(),
        },
    }
}

/// Wraps a technique invocation in a `Technique` span: every technique
/// module runs its body through this so traces attribute the run (and
/// the pattern runs and variant executions under it) to the named
/// technique, and so metrics can aggregate per technique. `status` maps
/// the body's result to the span's closing status (for a pattern report,
/// its [`verdict_status`]); the span is charged the cost the body
/// accrued. A no-op shell when the context is untraced.
pub fn run_technique_span<R>(
    ctx: &mut ExecContext,
    name: &'static str,
    body: impl FnOnce(&mut ExecContext) -> R,
    status: impl FnOnce(&R) -> SpanStatus,
) -> R {
    let span = ctx.obs_begin(|| redundancy_obs::SpanKind::Technique { name });
    let before = ctx.cost();
    let result = body(ctx);
    ctx.obs_end(
        span,
        status(&result),
        ctx.cost().delta_since(before).snapshot(),
    );
    result
}

/// Emits the adjudicator's conclusion as a [`Point::Verdict`] event (a
/// no-op when the context is untraced).
pub fn emit_verdict<O>(ctx: &mut ExecContext, verdict: &Verdict<O>) {
    ctx.obs_emit(|| match verdict {
        Verdict::Accepted {
            support, dissent, ..
        } => Point::Verdict {
            accepted: true,
            support: *support,
            dissent: *dissent,
            rejection: None,
        },
        Verdict::Rejected { reason } => Point::Verdict {
            accepted: false,
            support: 0,
            dissent: 0,
            rejection: Some(reason.kind()),
        },
    });
}

/// How a pattern engine executes its alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Run alternatives in the calling thread, one after another, but
    /// account virtual time as if parallel (critical path). Deterministic
    /// and cheap; the default for simulation.
    #[default]
    Sequential,
    /// Run alternatives on real OS threads (scoped threads).
    Threaded,
}

/// When a pattern engine commits to a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecisionPolicy {
    /// Execute every alternative, then adjudicate the full outcome set:
    /// the engine's judge never decides early, so nothing is skipped or
    /// cancelled.
    #[default]
    Exhaustive,
    /// Stream outcomes through the adjudicator's incremental interface
    /// (in variant order) and stop as soon as the verdict is
    /// mathematically fixed: not-yet-started alternatives are skipped
    /// ([`VariantFailure::Skipped`](crate::outcome::VariantFailure)) and
    /// in-flight stragglers are cooperatively cancelled
    /// ([`VariantFailure::Cancelled`](crate::outcome::VariantFailure)).
    /// The accepted/rejected disposition and output always match
    /// `Exhaustive`; support/dissent counts reflect only the outcomes
    /// actually fed, and costs are lower.
    Eager,
}

/// Everything a pattern run produced: the verdict, the raw outcomes, and
/// the aggregate cost under the pattern's timing semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternReport<O> {
    /// The adjudicated result.
    pub verdict: Verdict<O>,
    /// Outcome of every alternative that was executed, in variant order
    /// (parallel patterns) or attempt order (sequential alternatives).
    pub outcomes: Vec<VariantOutcome<O>>,
    /// Cost of *this pattern run* — the delta accrued on the context
    /// during `run`, not the context's cumulative meter, so reports from
    /// several runs on one context can be compared directly. Parallel
    /// patterns use critical-path virtual time, sequential alternatives
    /// sum attempt times.
    pub cost: Cost,
    /// Name of the variant whose output was selected, when the pattern
    /// selects a single component's result.
    pub selected: Option<String>,
}

impl<O> PatternReport<O> {
    /// Whether the pattern produced an accepted output.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        self.verdict.is_accepted()
    }

    /// The accepted output, if any.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        self.verdict.output()
    }

    /// Consumes the report, returning the accepted output if any.
    #[must_use]
    pub fn into_output(self) -> Option<O> {
        self.verdict.into_output()
    }

    /// Number of alternatives that actually started executing (everything
    /// except variants skipped by an eager early decision).
    #[must_use]
    pub fn executed(&self) -> usize {
        self.outcomes.len() - self.skipped()
    }

    /// Number of alternatives never started because the verdict was fixed
    /// before their turn (`DecisionPolicy::Eager`, sequential mode).
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(crate::outcome::VariantFailure::Skipped)))
            .count()
    }

    /// Number of alternatives cooperatively cancelled mid-flight after the
    /// verdict was fixed (`DecisionPolicy::Eager`, threaded mode).
    #[must_use]
    pub fn cancelled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(crate::outcome::VariantFailure::Cancelled)))
            .count()
    }

    /// Number of alternatives whose full execution was avoided by an eager
    /// early decision (skipped + cancelled).
    #[must_use]
    pub fn early_exited(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.result, Err(f) if f.is_early_exit()))
            .count()
    }

    /// Mirrors this run into the flight recorder (pattern runs plus
    /// executed/skipped/cancelled variant counts) and returns the report.
    /// Every engine calls this on its way out, so live telemetry sees
    /// pattern activity even from harnesses that never touch a
    /// `Campaign`; one relaxed load when the recorder is off. With it
    /// on, the cost is one thread-local lookup, a single pass over the
    /// outcomes, and two shard adds (four when early exit fired) — this
    /// sits inside every trial of a monitored campaign, so it shares
    /// the recorder's few-ns-per-trial budget.
    pub(crate) fn recorded(self) -> Self {
        use crate::outcome::VariantFailure;
        use redundancy_obs::telemetry::{self, Counter};
        if let Some(shard) = telemetry::active_shard() {
            let mut skipped = 0u64;
            let mut cancelled = 0u64;
            for outcome in &self.outcomes {
                match &outcome.result {
                    Err(VariantFailure::Skipped) => skipped += 1,
                    Err(VariantFailure::Cancelled) => cancelled += 1,
                    _ => {}
                }
            }
            shard.add(Counter::PatternRuns, 1);
            shard.add(
                Counter::VariantsExecuted,
                self.outcomes.len() as u64 - skipped,
            );
            if skipped > 0 {
                shard.add(Counter::VariantsSkipped, skipped);
            }
            if cancelled > 0 {
                shard.add(Counter::VariantsCancelled, cancelled);
            }
        }
        self
    }
}
