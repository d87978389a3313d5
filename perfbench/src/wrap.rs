//! Transparent wrappers around the public traits the workloads hand to
//! the engines. Each forwards every call unchanged and records, through
//! [`crate::probe`], how often it was called, how often the call failed,
//! and (sampled) how long it took.

use std::sync::Arc;

use redundancy_core::adjudicator::incremental::IncrementalAdjudicator;
use redundancy_core::adjudicator::{Adjudicator, VoteRule};
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{Event, Observer, Symbol};
use redundancy_core::outcome::{VariantFailure, VariantOutcome, Verdict};
use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::Adjudication;
use redundancy_core::variant::{BoxedVariant, Variant};
use redundancy_services::provider::PlannedInvoke;
use redundancy_services::runtime::PlannedProvider;
use redundancy_services::value::Value;

use crate::probe::{self, Count, Layer};

/// A wrapped NVP version (`faults::variant`).
pub struct TimedVariant<I, O>(pub BoxedVariant<I, O>);

impl<I, O> Variant<I, O> for TimedVariant<I, O> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn symbol(&self) -> Symbol {
        self.0.symbol()
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        let result = probe::nested(Layer::Variant, || self.0.execute(input, ctx));
        probe::count(Count::VariantCalls, 1);
        if result.is_err() {
            probe::count(Count::VariantFailed, 1);
        }
        result
    }

    fn design_cost(&self) -> f64 {
        self.0.design_cost()
    }
}

/// A wrapped adjudicator (`core::adjudicator`). Forwards the batch-row,
/// vote-rule and incremental entry points so the engine keeps the
/// branchless batch kernel path it takes for the bare voter.
pub struct TimedAdjudicator<A>(pub A);

impl<A> TimedAdjudicator<A> {
    fn counted<O>(verdict: Verdict<O>) -> Verdict<O> {
        probe::count(Count::Votes, 1);
        if !verdict.is_accepted() {
            probe::count(Count::VotesRejected, 1);
        }
        verdict
    }
}

impl<O, A: Adjudicator<O>> Adjudicator<O> for TimedAdjudicator<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn adjudication(&self) -> Adjudication {
        self.0.adjudication()
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        Self::counted(probe::nested(Layer::Adjudicator, || {
            self.0.adjudicate(outcomes)
        }))
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        self.0.begin_incremental(total)
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        self.0.vote_rule()
    }

    fn adjudicate_batch_row(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        Self::counted(probe::nested(Layer::Adjudicator, || {
            self.0.adjudicate_batch_row(outcomes)
        }))
    }
}

/// A wrapped event sink (`obs`).
pub struct TimedSink(pub Arc<dyn Observer>);

impl Observer for TimedSink {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&self, event: Event) {
        probe::sampled_call(Layer::Sink, || self.0.record(event));
        probe::count(Count::SinkEvents, 1);
    }
}

/// A wrapped service provider (`services::provider`).
pub struct TimedProvider(pub Arc<dyn PlannedProvider>);

impl PlannedProvider for TimedProvider {
    fn id(&self) -> &str {
        self.0.id()
    }

    fn plan(&self, operation: &str, args: &[Value], rng: &mut SplitMix64) -> PlannedInvoke {
        let planned = probe::sampled_call(Layer::Provider, || self.0.plan(operation, args, rng));
        probe::count(Count::Plans, 1);
        if planned.result.is_err() {
            probe::count(Count::PlansFailed, 1);
        }
        planned
    }
}
