//! Experiment E18 — what eager adjudication saves: cost and recovery
//! latency of N-version voting under `DecisionPolicy::Exhaustive` vs
//! `DecisionPolicy::Eager`, swept over the number of versions and over
//! the quorum size.
//!
//! Expected shape: the two policies always agree on reliability (the
//! verdict is mathematically fixed before the saved work would have
//! run), while eager work per trial grows like the decision threshold —
//! roughly `(N+1)/2` versions for majority voting — instead of `N`. The
//! saving therefore *widens* with N and *shrinks* as the quorum
//! approaches N (unanimity leaves nothing to skip).

use redundancy_core::adjudicator::voting::{MajorityVoter, QuorumVoter};
use redundancy_core::adjudicator::Adjudicator;
use redundancy_core::context::ExecContext;
use redundancy_core::patterns::DecisionPolicy;
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_sim::early_exit::{work_saved, EarlyExitCounters, EarlyExitStats};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_sim::trial::{Campaign, TrialOutcome, TrialSummary};
use redundancy_techniques::nvp::NVersion;

/// Per-version failure density the sweep runs at — low enough that
/// majorities usually form early, which is exactly when eagerness pays.
const DENSITY: f64 = 0.15;

/// One campaign of N-version trials under a given adjudicator and
/// policy, returning the summary plus the aggregated early-exit counters.
#[must_use]
pub fn campaign(
    n: usize,
    adjudicator: impl Adjudicator<u64> + 'static,
    policy: DecisionPolicy,
    trials: usize,
    seed: u64,
) -> (TrialSummary, EarlyExitStats) {
    let versions = correlated_versions(
        CorrelatedSuite::new(n, DENSITY, 0.0, seed),
        |x: &u64| x * 2,
        |c, rng| c + 1 + rng.range_u64(0, 1_000_000),
    );
    let nvp = NVersion::with_adjudicator(versions, adjudicator).with_policy(policy);
    let counters = EarlyExitCounters::new();
    let summary = Campaign::new(trials).run(seed, |trial_seed, i| {
        let mut ctx = ExecContext::new(trial_seed);
        let x = i as u64;
        let report = nvp.run(&x, &mut ctx);
        counters.record(&report);
        let cost = ctx.cost();
        match report.into_output() {
            Some(out) if out == x * 2 => TrialOutcome::Correct { cost },
            Some(_) => TrialOutcome::Undetected { cost },
            None => TrialOutcome::Detected { cost },
        }
    });
    (summary, counters.snapshot())
}

fn policy_row(
    label: String,
    exhaustive: &(TrialSummary, EarlyExitStats),
    eager: &(TrialSummary, EarlyExitStats),
) -> Vec<String> {
    let saved = work_saved(&exhaustive.0, &eager.0);
    vec![
        label,
        format!("{:.1}", exhaustive.0.work.mean),
        format!("{:.1}", eager.0.work.mean),
        format!("{:.1}%", saved.percent),
        format!("{:.1}", exhaustive.0.latency.mean),
        format!("{:.1}", eager.0.latency.mean),
        format!("{:.2}", eager.1.executed_per_run()),
        format!("{:.2}", eager.1.saved_fraction()),
        crate::fmt_rate(eager.0.reliability.rate),
    ]
}

const HEADERS: [&str; 9] = [
    "",
    "work/trial exh.",
    "work/trial eager",
    "saved",
    "latency exh.",
    "latency eager",
    "exec/run",
    "skip frac",
    "reliability",
];

/// Builds the cost-vs-N table (majority voting) under both policies, with
/// the per-(N, policy) campaigns computed across up to `jobs` worker
/// threads; every campaign seeds its own versions and contexts, so the
/// table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let ns = [3usize, 5, 7, 9];
    let tasks: Vec<_> = ns
        .iter()
        .flat_map(|&n| {
            [DecisionPolicy::Exhaustive, DecisionPolicy::Eager]
                .into_iter()
                .map(move |policy| move || campaign(n, MajorityVoter::new(), policy, trials, seed))
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);

    let mut headers = HEADERS;
    headers[0] = "N (majority)";
    let mut table = Table::new(&headers);
    for (row, n) in ns.iter().enumerate() {
        table.row_owned(policy_row(
            format!("{n}"),
            &results[2 * row],
            &results[2 * row + 1],
        ));
    }
    table
}

/// Builds the cost-vs-quorum table at N = 5 under both policies, with the
/// per-(quorum, policy) campaigns computed across up to `jobs` worker
/// threads. Quorum `q` means the vote concludes once `q` outputs agree,
/// so eagerness has the most to skip at small `q` and nothing at `q = N`.
#[must_use]
pub fn run_quorum(trials: usize, seed: u64, jobs: usize) -> Table {
    let n = 5usize;
    let quorums = [2usize, 3, 4, 5];
    let tasks: Vec<_> = quorums
        .iter()
        .flat_map(|&q| {
            [DecisionPolicy::Exhaustive, DecisionPolicy::Eager]
                .into_iter()
                .map(move |policy| move || campaign(n, QuorumVoter::new(q), policy, trials, seed))
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);

    let mut headers = HEADERS;
    headers[0] = "quorum (N=5)";
    let mut table = Table::new(&headers);
    for (row, q) in quorums.iter().enumerate() {
        table.row_owned(policy_row(
            format!("q={q}"),
            &results[2 * row],
            &results[2 * row + 1],
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 400;
    const SEED: u64 = 0xe18;

    #[test]
    fn policies_agree_on_every_disposition() {
        for n in [3usize, 5, 7] {
            let (exh, _) = campaign(n, MajorityVoter::new(), DecisionPolicy::Exhaustive, T, SEED);
            let (eager, _) = campaign(n, MajorityVoter::new(), DecisionPolicy::Eager, T, SEED);
            assert_eq!(exh.reliability, eager.reliability, "n={n}");
            assert_eq!(exh.undetected, eager.undetected, "n={n}");
            assert_eq!(exh.detected, eager.detected, "n={n}");
        }
    }

    #[test]
    fn eager_majority_is_measurably_cheaper_from_n_3() {
        for n in [3usize, 5, 7, 9] {
            let (exh, _) = campaign(n, MajorityVoter::new(), DecisionPolicy::Exhaustive, T, SEED);
            let (eager, stats) = campaign(n, MajorityVoter::new(), DecisionPolicy::Eager, T, SEED);
            let saved = work_saved(&exh, &eager);
            assert!(
                saved.work_units_per_trial > 0.0,
                "n={n}: no work saved ({saved:?})"
            );
            assert!(stats.skipped > 0, "n={n}: nothing skipped");
        }
    }

    #[test]
    fn saving_widens_with_n() {
        let pct = |n| {
            let (exh, _) = campaign(n, MajorityVoter::new(), DecisionPolicy::Exhaustive, T, SEED);
            let (eager, _) = campaign(n, MajorityVoter::new(), DecisionPolicy::Eager, T, SEED);
            work_saved(&exh, &eager).percent
        };
        let s3 = pct(3);
        let s9 = pct(9);
        assert!(s9 > s3, "saved% must widen: n=3 {s3:.1}%, n=9 {s9:.1}%");
    }

    #[test]
    fn unanimity_quorum_leaves_nothing_to_skip() {
        let (_, stats) = campaign(5, QuorumVoter::new(5), DecisionPolicy::Eager, T, SEED);
        // A q = N quorum needs every version unless one already failed;
        // the small skip count comes from trials where failures made the
        // quorum unreachable early.
        let (_, loose) = campaign(5, QuorumVoter::new(2), DecisionPolicy::Eager, T, SEED);
        assert!(
            loose.skipped > stats.skipped,
            "q=2 skipped {} must exceed q=5 skipped {}",
            loose.skipped,
            stats.skipped
        );
    }

    #[test]
    fn tables_render() {
        assert_eq!(run(100, SEED, 1).len(), 4);
        assert_eq!(run_quorum(100, SEED, 1).len(), 4);
    }

    #[test]
    fn tables_are_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(100, SEED, jobs));
        crate::assert_jobs_invariant!(|jobs| run_quorum(100, SEED, jobs));
    }
}
