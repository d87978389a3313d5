//! Experiment E7 — software rejuvenation (Huang 1995, Garg 1996).
//!
//! (a) Failure rate of an aging server with and without preventive
//! rejuvenation at several cadences. (b) Garg's completion-time model: a
//! checkpointed long-running program rejuvenated every N checkpoints —
//! expected completion time is U-shaped in N.

use redundancy_core::context::ExecContext;
use redundancy_core::rng::SplitMix64;
use redundancy_faults::{FaultSpec, FaultyVariant};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::rejuvenation::{completion_time, CompletionModel, Rejuvenator};

use crate::fmt_rate;

/// Failure rate of an aging server over `calls` requests, rejuvenating
/// every `interval` calls (`u64::MAX` ≈ never).
#[must_use]
pub fn failure_rate(interval: u64, calls: usize, seed: u64) -> f64 {
    let variant = FaultyVariant::builder("server", 5, |x: &u64| x + 1)
        .fault(FaultSpec::aging("leak", 0.0, 0.0015))
        .build();
    let age = variant.age_handle();
    let r = Rejuvenator::new(Box::new(variant), age, interval, 10);
    let mut ctx = ExecContext::new(seed);
    let failures = (0..calls as u64)
        .filter(|x| !r.call(x, &mut ctx).is_ok())
        .count();
    failures as f64 / calls as f64
}

/// Mean completion time at a given rejuvenation cadence (checkpoints).
#[must_use]
pub fn mean_completion(rejuvenate_every: u64, repetitions: usize, seed: u64) -> f64 {
    let model = CompletionModel {
        total_work: 20_000,
        checkpoint_interval: 200,
        checkpoint_cost: 2,
        rejuvenation_cost: 400,
        failure_repair_cost: 2_000,
        hazard_growth: 3e-7,
        rejuvenate_every,
    };
    let mut rng = SplitMix64::new(seed);
    let total: u64 = (0..repetitions)
        .map(|_| completion_time(&model, &mut rng))
        .sum();
    total as f64 / repetitions as f64
}

/// Builds the E7a table: failure rate vs rejuvenation cadence, with the six
/// cadence rows computed across up to `jobs` worker threads; every row
/// seeds its own server and context, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run_failure_rates(trials: usize, seed: u64, jobs: usize) -> Table {
    let intervals = [25u64, 50, 100, 200, 400, u64::MAX];
    let tasks: Vec<_> = intervals
        .iter()
        .map(|&interval| move || failure_rate(interval, trials, seed))
        .collect();
    let rates = parallel_tasks(jobs, tasks);
    let mut table = Table::new(&["rejuvenation interval (calls)", "failure rate"]);
    for (&interval, rate) in intervals.iter().zip(rates) {
        let label = if interval == u64::MAX {
            "never".to_owned()
        } else {
            interval.to_string()
        };
        table.row_owned(vec![label, fmt_rate(rate)]);
    }
    table
}

/// Builds the E7b table: completion time vs rejuvenate-every-N, with the
/// eight cadence rows computed across up to `jobs` worker threads; every
/// row seeds its own RNG, so the table is identical for any `jobs`.
#[must_use]
pub fn run_completion(repetitions: usize, seed: u64, jobs: usize) -> Table {
    let cadences = [0u64, 1, 2, 4, 8, 16, 32, 64];
    let tasks: Vec<_> = cadences
        .iter()
        .map(|&n| move || mean_completion(n, repetitions, seed))
        .collect();
    let times = parallel_tasks(jobs, tasks);
    let mut table = Table::new(&["rejuvenate every N checkpoints", "mean completion time"]);
    for (&n, time) in cadences.iter().zip(times) {
        let label = if n == 0 {
            "never".to_owned()
        } else {
            n.to_string()
        };
        table.row_owned(vec![label, format!("{time:.0}")]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe7;

    #[test]
    fn frequent_rejuvenation_suppresses_aging_failures() {
        let frequent = failure_rate(25, 2000, SEED);
        let never = failure_rate(u64::MAX, 2000, SEED);
        assert!(
            frequent * 5.0 < never,
            "frequent {frequent} vs never {never}"
        );
    }

    #[test]
    fn failure_rate_monotone_in_interval() {
        let r25 = failure_rate(25, 3000, SEED);
        let r200 = failure_rate(200, 3000, SEED);
        assert!(r25 < r200, "r25={r25}, r200={r200}");
    }

    #[test]
    fn completion_time_is_u_shaped() {
        let never = mean_completion(0, 40, SEED);
        let sweet = mean_completion(8, 40, SEED);
        let every = mean_completion(1, 40, SEED);
        assert!(sweet < never, "sweet {sweet} !< never {never}");
        assert!(sweet < every, "sweet {sweet} !< every {every}");
    }

    #[test]
    fn tables_render() {
        assert_eq!(run_failure_rates(300, SEED, 1).len(), 6);
        assert_eq!(run_completion(5, SEED, 1).len(), 8);
    }

    #[test]
    fn tables_are_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run_failure_rates(300, SEED, jobs));
        crate::assert_jobs_invariant!(|jobs| run_completion(5, SEED, jobs));
    }
}
