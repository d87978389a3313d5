//! Checkpoint-recovery (paper §5.2; Elnozahy et al. 2002).
//!
//! Periodically saved consistent states serve as safe rollback points:
//! when the system fails, it is restored to the latest checkpoint and
//! *re-executed without changing anything*, relying on the spontaneous
//! non-determinism of the environment to avoid the failure. This
//! opportunistic use of environment redundancy defeats transient
//! Heisenbugs and is powerless against deterministic Bohrbugs — both
//! directions are tested below.
//!
//! Classification (Table 2): opportunistic / environment /
//! reactive-explicit / Heisenbugs.

use redundancy_core::adjudicator::acceptance::{AcceptanceTest, BoxedAcceptance};
use redundancy_core::context::ExecContext;
use redundancy_core::outcome::{VariantFailure, VariantOutcome};
use redundancy_core::patterns::run_technique_span;
use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant};

/// Table 2 row for checkpoint-recovery.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Checkpoint-recovery",
    classification: Classification::new(
        Intention::Opportunistic,
        RedundancyType::Environment,
        Adjudication::ReactiveExplicit,
        FaultSet::HEISENBUGS,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &["Elnozahy 2002", "Wang 1995"],
};

/// How a protected execution concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome<O> {
    /// Succeeded without rollback.
    Clean(O),
    /// Succeeded after one or more rollback/re-execution cycles.
    Recovered {
        /// The final output.
        output: O,
        /// Number of rollbacks performed.
        rollbacks: u32,
    },
    /// Retries exhausted.
    Failed(VariantFailure),
}

impl<O> RecoveryOutcome<O> {
    /// The delivered output, if any.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        match self {
            RecoveryOutcome::Clean(o) | RecoveryOutcome::Recovered { output: o, .. } => Some(o),
            RecoveryOutcome::Failed(_) => None,
        }
    }
}

/// Checkpoint-recovery around a single computation: on a failure or a
/// rejected output, roll back (pay `rollback_cost`) and re-execute
/// identically.
pub struct CheckpointRecovery<I, O> {
    variant: BoxedVariant<I, O>,
    test: BoxedAcceptance<I, O>,
    max_retries: u32,
    rollback_cost: u64,
}

impl<I, O> CheckpointRecovery<I, O> {
    /// Creates the wrapper. Every detectable failure triggers a
    /// rollback; `test` is the explicit adjudicator for outputs
    /// (`AcceptAll` when only detectable failures count).
    #[must_use]
    pub fn new(
        variant: BoxedVariant<I, O>,
        test: impl AcceptanceTest<I, O> + 'static,
        max_retries: u32,
    ) -> Self {
        Self {
            variant,
            test: Box::new(test),
            max_retries,
            rollback_cost: 20,
        }
    }

    /// Sets the virtual cost of one rollback (restoring the checkpoint).
    #[must_use]
    pub fn with_rollback_cost(mut self, cost: u64) -> Self {
        self.rollback_cost = cost;
        self
    }

    /// Executes with rollback-and-retry protection.
    pub fn execute(&self, input: &I, ctx: &mut ExecContext) -> RecoveryOutcome<O> {
        use redundancy_core::obs::{Point, SpanStatus};

        run_technique_span(
            ctx,
            "checkpoint-recovery",
            |ctx| {
                ctx.obs_emit(|| Point::Checkpoint { label: "entry" });
                self.execute_inner(input, ctx)
            },
            |result| match result {
                RecoveryOutcome::Clean(_) => SpanStatus::Ok,
                RecoveryOutcome::Recovered { rollbacks, .. } => SpanStatus::Accepted {
                    support: 1,
                    dissent: *rollbacks as usize,
                },
                RecoveryOutcome::Failed(failure) => SpanStatus::Failed {
                    kind: failure.kind(),
                },
            },
        )
    }

    fn execute_inner(&self, input: &I, ctx: &mut ExecContext) -> RecoveryOutcome<O> {
        use redundancy_core::obs::Point;

        let mut last_failure = VariantFailure::Omission;
        for attempt in 0..=self.max_retries {
            let mut child = ctx.fork(u64::from(attempt));
            let outcome: VariantOutcome<O> =
                run_contained(self.variant.as_ref(), input, &mut child);
            ctx.join(child);
            ctx.add_sequential_cost(outcome.cost);
            last_failure = match outcome.result {
                Ok(output) if self.test.accept(input, &output) => {
                    return if attempt == 0 {
                        RecoveryOutcome::Clean(output)
                    } else {
                        RecoveryOutcome::Recovered {
                            output,
                            rollbacks: attempt,
                        }
                    };
                }
                Ok(_) => VariantFailure::error("acceptance test rejected the output"),
                Err(f) => f,
            };
            ctx.advance_ns(self.rollback_cost);
            ctx.obs_emit(|| Point::Rollback {
                label: "checkpoint",
            });
        }
        RecoveryOutcome::Failed(last_failure)
    }
}

/// Statistics from a long-running checkpointed execution (experiment
/// support): total time, failures survived, work lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LongRunStats {
    /// Virtual time to completion.
    pub completion_time: u64,
    /// Failures encountered.
    pub failures: u64,
    /// Work units lost to rollbacks.
    pub lost_work: u64,
}

/// Simulates a long computation of `total_work` units with a transient
/// failure probability per unit, checkpointing every `interval` units
/// (cost `checkpoint_cost` each); on failure, work since the last
/// checkpoint is lost. `interval == 0` means no checkpoints (restart from
/// scratch).
#[must_use]
pub fn long_run(
    total_work: u64,
    interval: u64,
    checkpoint_cost: u64,
    fail_prob_per_unit: f64,
    rng: &mut SplitMix64,
) -> LongRunStats {
    let mut clock = 0u64;
    let mut committed = 0u64;
    let mut since_checkpoint = 0u64;
    let mut failures = 0u64;
    let mut lost = 0u64;
    // Bounded: configurations that essentially never finish (e.g. no
    // checkpoints under heavy failure) saturate at the cap instead of
    // spinning forever.
    let cap = total_work.saturating_mul(100).max(1_000_000);
    while committed + since_checkpoint < total_work && clock < cap {
        clock += 1;
        if rng.chance(fail_prob_per_unit) {
            failures += 1;
            lost += since_checkpoint;
            since_checkpoint = 0; // roll back to the last checkpoint
            continue;
        }
        since_checkpoint += 1;
        if interval > 0 && since_checkpoint >= interval {
            committed += since_checkpoint;
            since_checkpoint = 0;
            clock += checkpoint_cost;
        }
    }
    LongRunStats {
        completion_time: clock,
        failures,
        lost_work: lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::adjudicator::acceptance::{AcceptAll, OracleTest};
    use redundancy_faults::{FaultSpec, FaultyVariant};

    fn heisen_variant(p: f64) -> BoxedVariant<i64, i64> {
        FaultyVariant::builder("flaky", 10, |x: &i64| x * 2)
            .fault(FaultSpec::heisenbug("transient", p))
            .build_boxed()
    }

    fn bohr_variant(density: f64) -> BoxedVariant<i64, i64> {
        FaultyVariant::builder("hard", 10, |x: &i64| x * 2)
            .corruptor(|c, _| c + 1)
            .fault(FaultSpec::bohrbug("logic", density, 5))
            .build_boxed()
    }

    #[test]
    fn recovers_heisenbugs() {
        let cr = CheckpointRecovery::new(heisen_variant(0.6), AcceptAll, 15);
        let mut ctx = ExecContext::new(1);
        let mut failed = 0;
        for x in 0..300i64 {
            match cr.execute(&x, &mut ctx) {
                RecoveryOutcome::Clean(v) | RecoveryOutcome::Recovered { output: v, .. } => {
                    assert_eq!(v, x * 2);
                }
                RecoveryOutcome::Failed(_) => failed += 1,
            }
        }
        // Residual ≈ 0.6^16 ≈ 0.03%: essentially everything recovers.
        assert!(failed <= 2, "failed {failed}");
    }

    #[test]
    fn cannot_recover_bohrbugs() {
        // Deterministic wrong output on a fixed input region: identical
        // re-execution reproduces it forever. (Oracle acceptance test so
        // the wrong output is at least *detected*.)
        let cr = CheckpointRecovery::new(bohr_variant(0.5), OracleTest::new(|x: &i64| x * 2), 10);
        let mut ctx = ExecContext::new(2);
        let mut recovered = 0;
        let mut failed = 0;
        for x in 0..300i64 {
            match cr.execute(&x, &mut ctx) {
                RecoveryOutcome::Recovered { .. } => recovered += 1,
                RecoveryOutcome::Failed(_) => failed += 1,
                RecoveryOutcome::Clean(_) => {}
            }
        }
        assert_eq!(recovered, 0, "re-execution must not fix Bohrbugs");
        assert!(failed > 100, "failed {failed}");
    }

    #[test]
    fn clean_runs_skip_rollbacks() {
        let cr = CheckpointRecovery::new(heisen_variant(0.0), AcceptAll, 5);
        let mut ctx = ExecContext::new(3);
        assert_eq!(cr.execute(&4, &mut ctx), RecoveryOutcome::Clean(8));
        assert_eq!(ctx.cost().invocations, 1);
    }

    #[test]
    fn rollback_cost_is_charged() {
        let cr = CheckpointRecovery::new(heisen_variant(1.0), AcceptAll, 3).with_rollback_cost(100);
        let mut ctx = ExecContext::new(4);
        assert!(matches!(
            cr.execute(&1, &mut ctx),
            RecoveryOutcome::Failed(_)
        ));
        // 4 attempts (1 + 3 retries), 4 rollback charges.
        assert_eq!(ctx.cost().invocations, 4);
        assert!(ctx.cost().virtual_ns >= 400);
    }

    #[test]
    fn long_run_checkpointing_beats_restart_from_scratch() {
        let mut rng = SplitMix64::new(5);
        let with_ckpt = long_run(5_000, 100, 2, 0.002, &mut rng);
        let without = long_run(5_000, 0, 0, 0.002, &mut rng);
        assert!(
            with_ckpt.completion_time < without.completion_time,
            "ckpt {} !< none {}",
            with_ckpt.completion_time,
            without.completion_time
        );
        assert!(with_ckpt.lost_work < without.lost_work);
        assert!(with_ckpt.failures > 0);
    }

    #[test]
    fn long_run_zero_failures_is_just_overhead() {
        let mut rng = SplitMix64::new(6);
        let stats = long_run(1_000, 100, 5, 0.0, &mut rng);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.lost_work, 0);
        // 1000 work + 10 checkpoints * 5.
        assert_eq!(stats.completion_time, 1_050);
    }

    #[test]
    fn outcome_accessors() {
        let c: RecoveryOutcome<i32> = RecoveryOutcome::Clean(1);
        assert_eq!(c.output(), Some(&1));
        let f: RecoveryOutcome<i32> = RecoveryOutcome::Failed(VariantFailure::Timeout);
        assert_eq!(f.output(), None);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Opportunistic);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Environment);
        assert_eq!(ENTRY.classification.faults, FaultSet::HEISENBUGS);
        assert_eq!(ENTRY.name, "Checkpoint-recovery");
    }
}
