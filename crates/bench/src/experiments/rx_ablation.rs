//! Experiment E10b (ablation) — *which* RX perturbation cures *which*
//! fault type.
//!
//! Four knob-aware fault models (buffer overflow, uninitialized read,
//! message race, overload) are each treated by four single-knob RX
//! schedules and by the full menu. Expected shape: a diagonal — each
//! knob cures exactly its own fault family, the full menu cures all of
//! them, and mismatched knobs leave the fault at its baseline rate.

use redundancy_core::adjudicator::acceptance::AcceptAll;
use redundancy_core::context::ExecContext;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::{Activation, EnvKnobs, FaultEffect, FaultSpec, FaultyVariant};
use redundancy_sandbox::env::EnvConfig;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::env_perturbation::Rx;

use crate::fmt_rate;

const DENSITY: f64 = 0.4;

fn golden(x: &u64) -> u64 {
    x * 2
}

/// The knob-aware fault families under treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobFault {
    /// Cured by allocation padding.
    BufferOverflow,
    /// Cured by zero-filling allocations.
    UninitializedRead,
    /// Re-rolled by shuffling message order.
    MessageRace,
    /// Scaled down by request throttling.
    Overload,
}

impl KnobFault {
    /// All families.
    pub const ALL: [KnobFault; 4] = [
        KnobFault::BufferOverflow,
        KnobFault::UninitializedRead,
        KnobFault::MessageRace,
        KnobFault::Overload,
    ];

    fn label(self) -> &'static str {
        match self {
            KnobFault::BufferOverflow => "buffer overflow",
            KnobFault::UninitializedRead => "uninitialized read",
            KnobFault::MessageRace => "message race",
            KnobFault::Overload => "overload",
        }
    }

    fn activation(self) -> Activation {
        match self {
            KnobFault::BufferOverflow => Activation::BufferOverflow {
                density: DENSITY,
                salt: 0xb0,
                overflow: 48,
            },
            KnobFault::UninitializedRead => Activation::UninitializedRead {
                density: DENSITY,
                salt: 0xb1,
            },
            KnobFault::MessageRace => Activation::MessageRace {
                density: DENSITY,
                salt: 0xb2,
            },
            KnobFault::Overload => Activation::Overload { p: DENSITY },
        }
    }
}

/// The single-knob RX schedules of the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Grow allocation padding each round.
    PaddingOnly,
    /// Toggle zero-fill on.
    ZeroFillOnly,
    /// Reshuffle message order each round.
    ShuffleOnly,
    /// Throttle admitted load each round.
    ThrottleOnly,
    /// The full RX menu.
    FullMenu,
}

impl Schedule {
    /// All schedules.
    pub const ALL: [Schedule; 5] = [
        Schedule::PaddingOnly,
        Schedule::ZeroFillOnly,
        Schedule::ShuffleOnly,
        Schedule::ThrottleOnly,
        Schedule::FullMenu,
    ];

    fn label(self) -> &'static str {
        match self {
            Schedule::PaddingOnly => "padding only",
            Schedule::ZeroFillOnly => "zero-fill only",
            Schedule::ShuffleOnly => "shuffle only",
            Schedule::ThrottleOnly => "throttle only",
            Schedule::FullMenu => "full RX menu",
        }
    }

    fn apply(self, round: u32, env: EnvConfig) -> EnvConfig {
        match self {
            Schedule::PaddingOnly => env.with_padding(env.alloc_padding + 64),
            Schedule::ZeroFillOnly => env.with_zero_fill(true),
            Schedule::ShuffleOnly => {
                env.with_message_shuffle(env.msg_order_seed.wrapping_add(0x9e37_79b9))
            }
            Schedule::ThrottleOnly => {
                env.with_throttle(env.throttle_permille.saturating_sub(300).max(100))
            }
            Schedule::FullMenu => env.rx_perturbations(round),
        }
    }
}

fn build(
    fault: KnobFault,
) -> (
    BoxedVariant<u64, u64>,
    redundancy_faults::EnvSignature,
    EnvKnobs,
) {
    let v = FaultyVariant::builder("app", 10, golden)
        .fault(FaultSpec::new(
            "bug",
            fault.activation(),
            FaultEffect::Crash,
        ))
        .build();
    let env = v.env_signature();
    let knobs = v.env_knobs();
    (Box::new(v), env, knobs)
}

/// Delivery rate for a fault family under a schedule (6 rounds).
#[must_use]
pub fn delivery_rate(fault: KnobFault, schedule: Schedule, trials: usize, seed: u64) -> f64 {
    let (variant, env, knobs) = build(fault);
    let rx = Rx::new(variant, env, AcceptAll, 6)
        .with_knobs(knobs)
        .with_schedule(move |round, env| schedule.apply(round, env));
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials as u64)
        .filter(|x| rx.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    ok as f64 / trials as f64
}

/// Builds the E10b matrix: fault family × schedule, with the 4×5
/// fault/schedule cells sharded across up to `jobs` worker threads; every
/// cell seeds its own context, so the table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut headers = vec!["fault \\ RX schedule".to_owned()];
    headers.extend(Schedule::ALL.iter().map(|s| s.label().to_owned()));
    let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&refs);
    let cells: Vec<(KnobFault, Schedule)> = KnobFault::ALL
        .iter()
        .flat_map(|&fault| Schedule::ALL.iter().map(move |&schedule| (fault, schedule)))
        .collect();
    let tasks: Vec<_> = cells
        .iter()
        .map(|&(fault, schedule)| move || delivery_rate(fault, schedule, trials, seed))
        .collect();
    let rates = parallel_tasks(jobs, tasks);
    for (fault, row_rates) in KnobFault::ALL.iter().zip(rates.chunks(Schedule::ALL.len())) {
        let mut row = vec![fault.label().to_owned()];
        row.extend(row_rates.iter().map(|&r| fmt_rate(r)));
        table.row_owned(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 600;
    const SEED: u64 = 0xe10b;

    #[test]
    fn padding_cures_overflows_only() {
        assert!(delivery_rate(KnobFault::BufferOverflow, Schedule::PaddingOnly, T, SEED) > 0.99);
        // Padding does nothing for uninitialized reads.
        let other = delivery_rate(KnobFault::UninitializedRead, Schedule::PaddingOnly, T, SEED);
        assert!((other - (1.0 - DENSITY)).abs() < 0.05, "other {other}");
    }

    #[test]
    fn zero_fill_cures_uninitialized_reads_only() {
        assert!(
            delivery_rate(
                KnobFault::UninitializedRead,
                Schedule::ZeroFillOnly,
                T,
                SEED
            ) > 0.99
        );
        let other = delivery_rate(KnobFault::BufferOverflow, Schedule::ZeroFillOnly, T, SEED);
        assert!((other - (1.0 - DENSITY)).abs() < 0.05, "other {other}");
    }

    #[test]
    fn shuffling_rerolls_races() {
        let cured = delivery_rate(KnobFault::MessageRace, Schedule::ShuffleOnly, T, SEED);
        // Six reshuffles: residual ≈ 0.4^7 ≈ 0.16%.
        assert!(cured > 0.97, "cured {cured}");
        let blind = delivery_rate(KnobFault::BufferOverflow, Schedule::ShuffleOnly, T, SEED);
        assert!((blind - (1.0 - DENSITY)).abs() < 0.05, "blind {blind}");
    }

    #[test]
    fn throttling_tames_overload() {
        let treated = delivery_rate(KnobFault::Overload, Schedule::ThrottleOnly, T, SEED);
        let untreated = delivery_rate(KnobFault::Overload, Schedule::PaddingOnly, T, SEED);
        // Overload is probabilistic, so even wrong-knob retries eventually
        // pass; throttling must still do strictly better.
        assert!(
            treated > untreated - 0.02,
            "treated {treated} vs {untreated}"
        );
        assert!(treated > 0.99, "treated {treated}");
    }

    #[test]
    fn full_menu_cures_everything() {
        // The full menu rotates through all five knobs, so each specific
        // knob is tried only once or twice in six rounds: it cures every
        // family, just less efficiently than the matching single knob
        // (e.g. message races get one reshuffle, residual ≈ 0.4² = 0.16).
        for fault in KnobFault::ALL {
            let rate = delivery_rate(fault, Schedule::FullMenu, T, SEED);
            assert!(rate > 0.8, "{fault:?} under full menu: {rate}");
        }
        assert!(delivery_rate(KnobFault::BufferOverflow, Schedule::FullMenu, T, SEED) > 0.99);
    }

    #[test]
    fn table_renders_four_by_five() {
        let t = run(60, SEED, 1);
        assert_eq!(t.len(), 4);
        assert!(t.to_string().contains("full RX menu"));
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(60, SEED, jobs));
    }
}
