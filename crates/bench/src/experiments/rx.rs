//! Experiment E10 — RX environment perturbation (Qin 2007) vs plain
//! re-execution, by fault type, plus the perturbation-knob ablation.
//!
//! Expected shape: plain re-execution (checkpoint-recovery) cures purely
//! transient faults but not environment-*dependent* deterministic ones
//! (same environment → same failure); RX cures both by re-rolling the
//! environment; neither touches environment-blind input-region Bohrbugs.

use redundancy_core::adjudicator::acceptance::AcceptAll;
use redundancy_core::context::ExecContext;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::{Activation, EnvSignature, FaultEffect, FaultSpec, FaultyVariant};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::checkpoint_recovery::CheckpointRecovery;
use redundancy_techniques::env_perturbation::Rx;

use crate::fmt_rate;

const DENSITY: f64 = 0.35;

fn golden(x: &u64) -> u64 {
    x * 2
}

/// The fault types in the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultType {
    /// Fails a fixed input fraction *per environment* (buffer overflows
    /// sensitive to layout, order-dependent races…).
    EnvSensitive,
    /// Fails each execution independently (pure transients).
    Transient,
    /// Fails a fixed input fraction regardless of environment (logic
    /// bugs).
    EnvBlind,
}

impl FaultType {
    fn activation(self) -> Activation {
        match self {
            FaultType::EnvSensitive => Activation::EnvSensitive {
                density: DENSITY,
                salt: 0x10,
            },
            FaultType::Transient => Activation::Probabilistic { p: DENSITY },
            FaultType::EnvBlind => Activation::InputRegion {
                density: DENSITY,
                salt: 0x10,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultType::EnvSensitive => "env-sensitive (overflow/race-like)",
            FaultType::Transient => "transient (pure Heisenbug)",
            FaultType::EnvBlind => "env-blind (logic Bohrbug)",
        }
    }
}

fn build(fault: FaultType) -> (BoxedVariant<u64, u64>, EnvSignature) {
    let v = FaultyVariant::builder("app", 10, golden)
        .fault(FaultSpec::new(
            "bug",
            fault.activation(),
            FaultEffect::Crash,
        ))
        .build();
    let env = v.env_signature();
    (Box::new(v), env)
}

/// Delivery rate under RX with `rounds` perturbation rounds.
#[must_use]
pub fn rx_rate(fault: FaultType, rounds: u32, trials: usize, seed: u64) -> f64 {
    let (variant, env) = build(fault);
    let rx = Rx::new(variant, env, AcceptAll, rounds);
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials as u64)
        .filter(|x| rx.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    ok as f64 / trials as f64
}

/// Delivery rate under plain identical re-execution with `retries`.
#[must_use]
pub fn reexecution_rate(fault: FaultType, retries: u32, trials: usize, seed: u64) -> f64 {
    let (variant, _env) = build(fault);
    let cr = CheckpointRecovery::new(variant, AcceptAll, retries);
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials as u64)
        .filter(|x| cr.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    ok as f64 / trials as f64
}

/// Builds the E10 comparison table (6 recovery attempts each), with the
/// fault-type rows sharded across up to `jobs` worker threads; every
/// measurement seeds its own context, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "fault type",
        "no protection",
        "re-execution (ckpt-recovery)",
        "RX (perturbed re-execution)",
    ]);
    let faults = [
        FaultType::EnvSensitive,
        FaultType::Transient,
        FaultType::EnvBlind,
    ];
    let tasks: Vec<_> = faults
        .iter()
        .map(|&fault| {
            move || {
                (
                    reexecution_rate(fault, 0, trials, seed),
                    reexecution_rate(fault, 6, trials, seed),
                    rx_rate(fault, 6, trials, seed),
                )
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (fault, (bare, reexec, rx)) in faults.iter().zip(results) {
        table.row_owned(vec![
            fault.label().to_owned(),
            fmt_rate(bare),
            fmt_rate(reexec),
            fmt_rate(rx),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 1200;
    const SEED: u64 = 0xe10;

    #[test]
    fn rx_cures_env_sensitive_faults_reexecution_does_not() {
        let rx = rx_rate(FaultType::EnvSensitive, 6, T, SEED);
        let re = reexecution_rate(FaultType::EnvSensitive, 6, T, SEED);
        assert!(rx > 0.97, "rx {rx}");
        // Identical re-execution reproduces the same environment-dependent
        // failure deterministically.
        assert!((re - (1.0 - DENSITY)).abs() < 0.05, "re {re}");
    }

    #[test]
    fn both_cure_pure_transients() {
        let rx = rx_rate(FaultType::Transient, 6, T, SEED);
        let re = reexecution_rate(FaultType::Transient, 6, T, SEED);
        assert!(rx > 0.97, "rx {rx}");
        assert!(re > 0.97, "re {re}");
    }

    #[test]
    fn neither_cures_env_blind_bohrbugs() {
        let rx = rx_rate(FaultType::EnvBlind, 6, T, SEED);
        let re = reexecution_rate(FaultType::EnvBlind, 6, T, SEED);
        assert!((rx - (1.0 - DENSITY)).abs() < 0.05, "rx {rx}");
        assert!((re - (1.0 - DENSITY)).abs() < 0.05, "re {re}");
    }

    #[test]
    fn more_rounds_help_env_sensitive() {
        let r1 = rx_rate(FaultType::EnvSensitive, 1, T, SEED);
        let r5 = rx_rate(FaultType::EnvSensitive, 5, T, SEED);
        assert!(r5 > r1, "r1={r1}, r5={r5}");
    }

    #[test]
    fn table_renders_three_rows() {
        assert_eq!(run(150, SEED, 1).len(), 3);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(150, SEED, jobs));
    }
}
