//! Environment perturbation — RX (paper §4.3; Qin, Tucek, Zhou 2007).
//!
//! "Treating bugs as allergies": when a failure is detected, roll back to
//! a checkpoint and *re-execute in a modified environment* — padded
//! allocations, zero-filled memory, shuffled message order, different
//! priority, throttled load. Failures caused by environmental conditions
//! (a large class of Heisenbugs, plus environment-dependent Bohrbugs such
//! as overflow-triggered crashes) disappear under the right perturbation.
//!
//! Classification (Table 2): deliberate / environment / reactive-explicit
//! / development.

use redundancy_core::adjudicator::acceptance::{AcceptanceTest, BoxedAcceptance};
use redundancy_core::context::ExecContext;
use redundancy_core::outcome::{VariantFailure, VariantOutcome};
use redundancy_core::patterns::run_technique_span;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant};
use redundancy_faults::{EnvKnobs, EnvSignature, KnobSnapshot};
use redundancy_sandbox::env::EnvConfig;

/// Table 2 row for environment perturbation.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Environment perturbation",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Environment,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &["Qin 2007 (RX)"],
};

/// How an RX-protected execution concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum RxOutcome<O> {
    /// The original execution succeeded.
    CleanRun(O),
    /// A failure was detected and a perturbed re-execution recovered.
    Recovered {
        /// The recovered output.
        output: O,
        /// Number of perturbation rounds needed.
        rounds: u32,
        /// The environment that finally worked.
        environment: EnvConfig,
    },
    /// Every perturbation round failed too.
    Failed(VariantFailure),
}

impl<O> RxOutcome<O> {
    /// The delivered output, if any.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        match self {
            RxOutcome::CleanRun(o) | RxOutcome::Recovered { output: o, .. } => Some(o),
            RxOutcome::Failed(_) => None,
        }
    }
}

/// The perturbation schedule: maps a retry round to the environment to
/// try. The default is the full RX menu
/// ([`EnvConfig::rx_perturbations`]); single-knob schedules support the
/// ablation of experiment E10b.
pub type PerturbationSchedule = Box<dyn Fn(u32, EnvConfig) -> EnvConfig + Send + Sync>;

/// The RX executor: failure-triggered rollback and re-execution under
/// progressively perturbed environments.
pub struct Rx<I, O> {
    variant: BoxedVariant<I, O>,
    env_signature: EnvSignature,
    env_knobs: Option<EnvKnobs>,
    schedule: PerturbationSchedule,
    test: BoxedAcceptance<I, O>,
    max_rounds: u32,
}

impl<I, O> Rx<I, O> {
    /// Creates an RX executor.
    ///
    /// `env_signature` must be the signature handle the variant's
    /// environment-sensitive faults read. Every detectable failure
    /// triggers a round; `test` is the explicit adjudicator for outputs
    /// (sensors/exception monitors in the original system; `AcceptAll`
    /// when only detectable failures count).
    #[must_use]
    pub fn new(
        variant: BoxedVariant<I, O>,
        env_signature: EnvSignature,
        test: impl AcceptanceTest<I, O> + 'static,
        max_rounds: u32,
    ) -> Self {
        Self {
            variant,
            env_signature,
            env_knobs: None,
            schedule: Box::new(|round, env| env.rx_perturbations(round)),
            test: Box::new(test),
            max_rounds,
        }
    }

    /// Also drives concrete environment knobs (for knob-aware faults such
    /// as [`Activation::BufferOverflow`](redundancy_faults::Activation)).
    #[must_use]
    pub fn with_knobs(mut self, knobs: EnvKnobs) -> Self {
        self.env_knobs = Some(knobs);
        self
    }

    /// Replaces the perturbation schedule (default: the full RX menu).
    #[must_use]
    pub fn with_schedule(
        mut self,
        schedule: impl Fn(u32, EnvConfig) -> EnvConfig + Send + Sync + 'static,
    ) -> Self {
        self.schedule = Box::new(schedule);
        self
    }

    fn apply_env(&self, env: &EnvConfig) {
        self.env_signature.set(env.signature());
        if let Some(knobs) = &self.env_knobs {
            knobs.set(KnobSnapshot {
                padding: env.alloc_padding,
                zero_fill: env.zero_fill,
                order_seed: env.msg_order_seed,
                priority: env.priority,
                throttle_permille: env.throttle_permille,
            });
        }
    }

    /// Executes with RX protection. The environment is restored to the
    /// baseline before returning (so calls do not leak perturbations).
    pub fn execute(&self, input: &I, ctx: &mut ExecContext) -> RxOutcome<O> {
        use redundancy_core::obs::SpanStatus;

        run_technique_span(
            ctx,
            "env-perturbation-rx",
            |ctx| self.execute_inner(input, ctx),
            |result| match result {
                RxOutcome::CleanRun(_) => SpanStatus::Ok,
                RxOutcome::Recovered { rounds, .. } => SpanStatus::Accepted {
                    support: 1,
                    dissent: *rounds as usize,
                },
                RxOutcome::Failed(failure) => SpanStatus::Failed {
                    kind: failure.kind(),
                },
            },
        )
    }

    fn execute_inner(&self, input: &I, ctx: &mut ExecContext) -> RxOutcome<O> {
        let baseline = EnvConfig::baseline();
        self.apply_env(&baseline);
        let mut child = ctx.fork(0);
        let outcome = run_contained(self.variant.as_ref(), input, &mut child);
        ctx.join(child);
        ctx.add_sequential_cost(outcome.cost);
        let mut last_failure = match self.judge(input, outcome) {
            Ok(output) => return RxOutcome::CleanRun(output),
            Err(failure) => failure,
        };
        let mut env = baseline;
        for round in 0..self.max_rounds {
            // Perturb the environment (RX's ordered menu of changes) and
            // re-execute from the rollback point.
            env = (self.schedule)(round, env);
            self.apply_env(&env);
            ctx.obs_emit(|| redundancy_core::obs::Point::Perturbation {
                knob: "rx-menu",
                attempt: round + 1,
            });
            let mut child = ctx.fork(u64::from(round) + 1);
            let retry = run_contained(self.variant.as_ref(), input, &mut child);
            ctx.join(child);
            ctx.add_sequential_cost(retry.cost);
            last_failure = match self.judge(input, retry) {
                Ok(output) => {
                    self.apply_env(&baseline);
                    return RxOutcome::Recovered {
                        output,
                        rounds: round + 1,
                        environment: env,
                    };
                }
                Err(failure) => failure,
            };
        }
        self.apply_env(&baseline);
        RxOutcome::Failed(last_failure)
    }

    /// An execution's output if it succeeded and passed the test, else
    /// the failure to report.
    fn judge(&self, input: &I, outcome: VariantOutcome<O>) -> Result<O, VariantFailure> {
        match outcome.result {
            Ok(output) if self.test.accept(input, &output) => Ok(output),
            Ok(_) => Err(VariantFailure::error("acceptance test rejected the output")),
            Err(failure) => Err(failure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::adjudicator::acceptance::AcceptAll;
    use redundancy_faults::{Activation, FaultEffect, FaultSpec, FaultyVariant};

    /// A variant whose crash depends on the environment: for a given env,
    /// `density` of inputs crash; a perturbed env re-rolls the set.
    fn env_sensitive(density: f64) -> (BoxedVariant<i64, i64>, EnvSignature) {
        let v = FaultyVariant::builder("env-bug", 5, |x: &i64| x * 2)
            .fault(FaultSpec::new(
                "overflow-ish",
                Activation::EnvSensitive { density, salt: 7 },
                FaultEffect::Crash,
            ))
            .build();
        let env = v.env_signature();
        (Box::new(v), env)
    }

    /// A variant with a pure input-region Bohrbug (environment-blind).
    fn env_blind(density: f64) -> (BoxedVariant<i64, i64>, EnvSignature) {
        let v = FaultyVariant::builder("hard-bug", 5, |x: &i64| x * 2)
            .fault(FaultSpec::new(
                "logic-bug",
                Activation::InputRegion { density, salt: 7 },
                FaultEffect::Crash,
            ))
            .build();
        let env = v.env_signature();
        (Box::new(v), env)
    }

    #[test]
    fn clean_runs_pass_through() {
        let (variant, env) = env_sensitive(0.0);
        let rx = Rx::new(variant, env, AcceptAll, 5);
        let mut ctx = ExecContext::new(1);
        assert_eq!(rx.execute(&21, &mut ctx), RxOutcome::CleanRun(42));
    }

    #[test]
    fn recovers_env_sensitive_failures() {
        let (variant, env) = env_sensitive(0.4);
        let rx = Rx::new(variant, env, AcceptAll, 6);
        let mut ctx = ExecContext::new(2);
        let mut clean = 0;
        let mut recovered = 0;
        let mut failed = 0;
        for x in 0..400i64 {
            match rx.execute(&x, &mut ctx) {
                RxOutcome::CleanRun(v) => {
                    assert_eq!(v, x * 2);
                    clean += 1;
                }
                RxOutcome::Recovered { output, rounds, .. } => {
                    assert_eq!(output, x * 2);
                    assert!(rounds >= 1);
                    recovered += 1;
                }
                RxOutcome::Failed(_) => failed += 1,
            }
        }
        assert!(clean > 180, "clean {clean}");
        assert!(recovered > 100, "recovered {recovered}");
        // Residual: 0.4^7 ≈ 0.2% of 400 ≈ 1.
        assert!(failed <= 8, "failed {failed}");
    }

    #[test]
    fn does_not_recover_environment_blind_bohrbugs() {
        let (variant, env) = env_blind(0.4);
        let rx = Rx::new(variant, env, AcceptAll, 6);
        let mut ctx = ExecContext::new(3);
        let mut recovered = 0;
        let mut failed = 0;
        for x in 0..400i64 {
            match rx.execute(&x, &mut ctx) {
                RxOutcome::CleanRun(_) => {}
                RxOutcome::Recovered { .. } => recovered += 1,
                RxOutcome::Failed(_) => failed += 1,
            }
        }
        assert_eq!(recovered, 0, "input-region bugs must not respond to RX");
        assert!(failed > 120, "failed {failed}");
    }

    #[test]
    fn environment_is_restored_after_recovery() {
        let (variant, env) = env_sensitive(0.9);
        let baseline_sig = EnvConfig::baseline().signature();
        let rx = Rx::new(variant, env.clone(), AcceptAll, 10);
        let mut ctx = ExecContext::new(4);
        for x in 0..20i64 {
            let _ = rx.execute(&x, &mut ctx);
            assert_eq!(env.get(), baseline_sig);
        }
    }

    #[test]
    fn zero_rounds_never_recovers() {
        let (variant, env) = env_sensitive(1.0);
        let rx = Rx::new(variant, env, AcceptAll, 0);
        let mut ctx = ExecContext::new(5);
        assert!(matches!(rx.execute(&1, &mut ctx), RxOutcome::Failed(_)));
    }

    #[test]
    fn rx_outcome_accessors() {
        let ok: RxOutcome<i32> = RxOutcome::CleanRun(5);
        assert_eq!(ok.output(), Some(&5));
        let failed: RxOutcome<i32> = RxOutcome::Failed(VariantFailure::Timeout);
        assert_eq!(failed.output(), None);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Environment);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "Environment perturbation");
    }
}
