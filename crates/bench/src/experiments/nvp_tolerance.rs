//! Experiment E4 — the `2k + 1` rule: N-version reliability vs the
//! number of versions and the per-version failure density, plus the
//! adjudicator ablation (majority vs plurality vs median).
//!
//! Expected shape: for densities below 0.5, reliability grows with N
//! (and the marginal gain shrinks); for densities at or above 0.5 adding
//! versions *hurts* — the majority is more likely wrong than right.

use redundancy_core::adjudicator::voting::{MajorityVoter, MedianVoter, PluralityVoter};
use redundancy_core::adjudicator::Adjudicator;
use redundancy_core::context::ExecContext;
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::nvp::NVersion;

use crate::fmt_rate;

/// Reliability of an N-version system with independent failure regions.
#[must_use]
pub fn reliability(n: usize, density: f64, trials: usize, seed: u64) -> f64 {
    reliability_with(n, density, trials, seed, MajorityVoter::new())
}

/// Reliability under a chosen adjudicator.
#[must_use]
pub fn reliability_with(
    n: usize,
    density: f64,
    trials: usize,
    seed: u64,
    adjudicator: impl Adjudicator<u64> + 'static,
) -> f64 {
    let versions = correlated_versions(
        CorrelatedSuite::new(n, density, 0.0, seed),
        |x: &u64| x * 2,
        // Version-specific corruption offset: independent wrong values,
        // the assumption behind the 2k+1 rule.
        |c, rng| c + 1 + rng.range_u64(0, 1_000_000),
    );
    let nvp = NVersion::with_adjudicator(versions, adjudicator);
    let mut ctx = ExecContext::new(seed);
    let correct = (0..trials as u64)
        .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(x * 2))
        .count();
    correct as f64 / trials as f64
}

/// Builds the E4 table: rows = N, columns = densities, with the 16 (N,
/// density) cells computed across up to `jobs` worker threads; every cell
/// seeds its own versions and context, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let densities = [0.05, 0.15, 0.30, 0.50];
    let ns = [1usize, 3, 5, 7];
    let tasks: Vec<_> = ns
        .iter()
        .flat_map(|&n| {
            densities
                .iter()
                .map(move |&density| move || reliability(n, density, trials, seed))
        })
        .collect();
    let rates = parallel_tasks(jobs, tasks);

    let mut headers: Vec<String> = vec!["N (tolerates k)".into()];
    headers.extend(densities.iter().map(|d| format!("p={d}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (row, n) in ns.iter().enumerate() {
        let mut cells = vec![format!("{n} (k={})", (n - 1) / 2)];
        for col in 0..densities.len() {
            cells.push(fmt_rate(rates[row * densities.len() + col]));
        }
        table.row_owned(cells);
    }
    table
}

/// Builds the adjudicator-ablation table at N = 5.
#[must_use]
pub fn run_adjudicator_ablation(trials: usize, seed: u64) -> Table {
    let mut table = Table::new(&["Adjudicator", "p=0.15", "p=0.30"]);
    table.row_owned(vec![
        "majority".into(),
        fmt_rate(reliability_with(
            5,
            0.15,
            trials,
            seed,
            MajorityVoter::new(),
        )),
        fmt_rate(reliability_with(
            5,
            0.30,
            trials,
            seed,
            MajorityVoter::new(),
        )),
    ]);
    table.row_owned(vec![
        "plurality".into(),
        fmt_rate(reliability_with(
            5,
            0.15,
            trials,
            seed,
            PluralityVoter::new(),
        )),
        fmt_rate(reliability_with(
            5,
            0.30,
            trials,
            seed,
            PluralityVoter::new(),
        )),
    ]);
    table.row_owned(vec![
        "median".into(),
        fmt_rate(reliability_with(5, 0.15, trials, seed, MedianVoter::new())),
        fmt_rate(reliability_with(5, 0.30, trials, seed, MedianVoter::new())),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 1500;
    const SEED: u64 = 0xe4;

    #[test]
    fn reliability_grows_with_n_below_half() {
        let r1 = reliability(1, 0.3, T, SEED);
        let r3 = reliability(3, 0.3, T, SEED);
        let r5 = reliability(5, 0.3, T, SEED);
        assert!(r3 > r1 + 0.05, "r1={r1}, r3={r3}");
        assert!(r5 > r3 - 0.02, "r3={r3}, r5={r5}");
    }

    #[test]
    fn crossover_at_one_half() {
        // At p = 0.5 with independent wrong values the majority needs
        // >= 2 *agreeing* outputs; wrong outputs disagree with each other,
        // so NVP still delivers when >= 2 of 3 are correct: ~0.5. But at
        // p clearly above 0.5 the correct plurality collapses.
        let r1 = reliability(1, 0.5, T, SEED);
        let r3 = reliability(3, 0.5, T, SEED);
        assert!((r1 - 0.5).abs() < 0.06, "r1={r1}");
        assert!((r3 - 0.5).abs() < 0.08, "r3={r3}");
    }

    #[test]
    fn plurality_is_at_least_as_lenient_as_majority() {
        let maj = reliability_with(5, 0.3, T, SEED, MajorityVoter::new());
        let plu = reliability_with(5, 0.3, T, SEED, PluralityVoter::new());
        assert!(plu >= maj - 0.02, "maj={maj}, plu={plu}");
    }

    #[test]
    fn median_tolerates_scattered_corruption() {
        let med = reliability_with(5, 0.3, T, SEED, MedianVoter::new());
        // Median needs only >half correct, like majority, but never
        // rejects: with corruptions scattered far away it matches or beats.
        assert!(med > 0.8, "median {med}");
    }

    #[test]
    fn tables_render() {
        assert_eq!(run(200, SEED, 1).len(), 4);
        assert_eq!(run_adjudicator_ablation(200, SEED).len(), 3);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(200, SEED, jobs));
    }
}
