//! Experiment E11 — micro-reboot vs full reboot (Candea's JAGR):
//! recovery time and availability under three reboot policies.
//!
//! Expected shape: micro-rebooting a leaf is orders of magnitude cheaper
//! than a full reboot; the escalating policy keeps that advantage while
//! also curing deep corruption, yielding the best availability.

use redundancy_core::rng::SplitMix64;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::microreboot::{availability_sim, ComponentTree, RebootPolicy};

use crate::fmt_rate;

/// Recovery time for a shallow leaf failure under each policy.
#[must_use]
pub fn shallow_recovery_times() -> Vec<(RebootPolicy, u64, bool)> {
    [
        RebootPolicy::MicroOnly,
        RebootPolicy::Escalating,
        RebootPolicy::Full,
    ]
    .into_iter()
    .map(|policy| {
        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("app-c2", 0);
        let record = tree.recover("app-c2", policy);
        (policy, record.recovery_time, record.cured)
    })
    .collect()
}

/// Builds the E11 table: availability and mean recovery per policy, with
/// the three policy simulations run across up to `jobs` worker threads;
/// every policy gets its own freshly seeded RNG, so the table is identical
/// for any `jobs`.
#[must_use]
pub fn run(requests: u64, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "policy",
        "availability",
        "mean recovery time",
        "shallow-failure recovery time",
    ]);
    let shallow = shallow_recovery_times();
    let policies = [
        (RebootPolicy::Full, "full reboot"),
        (RebootPolicy::MicroOnly, "micro-reboot (no escalation)"),
        (RebootPolicy::Escalating, "micro-reboot + escalation (JAGR)"),
    ];
    let tasks: Vec<_> = policies
        .iter()
        .map(|&(policy, _)| {
            move || {
                let mut rng = SplitMix64::new(seed);
                availability_sim(policy, requests, 0.01, 0.2, &mut rng)
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (&(policy, label), (availability, mean_recovery)) in policies.iter().zip(results) {
        let shallow_time = shallow
            .iter()
            .find(|(p, _, _)| *p == policy)
            .map_or(0, |(_, t, _)| *t);
        table.row_owned(vec![
            label.to_owned(),
            fmt_rate(availability),
            format!("{mean_recovery:.0}"),
            shallow_time.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe11;

    #[test]
    fn micro_reboot_shallow_recovery_is_orders_cheaper() {
        let times = shallow_recovery_times();
        let micro = times
            .iter()
            .find(|(p, _, _)| *p == RebootPolicy::MicroOnly)
            .unwrap();
        let full = times
            .iter()
            .find(|(p, _, _)| *p == RebootPolicy::Full)
            .unwrap();
        assert!(micro.2 && full.2, "both cure shallow failures");
        assert!(
            full.1 > micro.1 * 50,
            "full {} vs micro {}",
            full.1,
            micro.1
        );
    }

    #[test]
    fn escalating_policy_has_best_availability() {
        let mut rng = SplitMix64::new(SEED);
        let (a_full, _) = availability_sim(RebootPolicy::Full, 20_000, 0.01, 0.2, &mut rng);
        let (a_micro, _) = availability_sim(RebootPolicy::MicroOnly, 20_000, 0.01, 0.2, &mut rng);
        let (a_esc, _) = availability_sim(RebootPolicy::Escalating, 20_000, 0.01, 0.2, &mut rng);
        assert!(a_esc > a_full, "esc {a_esc} vs full {a_full}");
        // Micro-only pays residual full reboots for deep corruption, so
        // escalation must be at least as good.
        assert!(a_esc >= a_micro - 0.001, "esc {a_esc} vs micro {a_micro}");
    }

    #[test]
    fn table_renders_three_rows() {
        assert_eq!(run(5_000, SEED, 1).len(), 3);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(5_000, SEED, jobs));
    }
}
