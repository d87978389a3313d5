//! Experiment E5 — Brilliant/Knight–Leveson: N-version reliability vs
//! inter-version failure correlation.
//!
//! Expected shape: at ρ = 0 the 3-version system far outperforms one
//! version; as ρ → 1 the gain collapses to (and the system degenerates
//! into) single-version reliability — the empirical content of the §4.1
//! "efficacy of explicit redundancy is controversial" paragraph.

use redundancy_core::context::ExecContext;
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::nvp::NVersion;

use crate::fmt_rate;

/// Reliability of a 3-version system at failure correlation `rho`.
#[must_use]
pub fn reliability_at_rho(rho: f64, density: f64, trials: usize, seed: u64) -> f64 {
    let versions = correlated_versions(
        CorrelatedSuite::new(3, density, rho, seed),
        |x: &u64| x * 2,
        // Same corruptor everywhere: correlated faults also agree on the
        // wrong answer — the worst case for voting.
        |c, _| c + 1001,
    );
    let nvp = NVersion::new(versions);
    let mut ctx = ExecContext::new(seed);
    let correct = (0..trials as u64)
        .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(x * 2))
        .count();
    correct as f64 / trials as f64
}

/// Builds the E5 table: reliability and gain-over-single-version vs ρ, with
/// the ρ sweep sharded across up to `jobs` worker threads; every row seeds
/// its own suite and context, so the table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let density = 0.2;
    let single = 1.0 - density;
    let rhos = [0.0, 0.25, 0.5, 0.75, 1.0];
    let tasks: Vec<_> = rhos
        .iter()
        .map(|&rho| move || reliability_at_rho(rho, density, trials, seed))
        .collect();
    let results = parallel_tasks(jobs, tasks);
    let mut table = Table::new(&["rho", "NVP(3) reliability", "single version", "gain"]);
    for (rho, r) in rhos.iter().zip(results) {
        table.row_owned(vec![
            format!("{rho:.2}"),
            fmt_rate(r),
            fmt_rate(single),
            format!("{:+.3}", r - single),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 3000;
    const SEED: u64 = 0xe5;

    #[test]
    fn gain_decreases_monotonically_with_rho() {
        let rs: Vec<f64> = [0.0, 0.5, 1.0]
            .iter()
            .map(|&rho| reliability_at_rho(rho, 0.2, T, SEED))
            .collect();
        assert!(rs[0] > rs[1] + 0.02, "{rs:?}");
        assert!(rs[1] > rs[2] + 0.02, "{rs:?}");
    }

    #[test]
    fn full_correlation_degenerates_to_single_version() {
        let r = reliability_at_rho(1.0, 0.2, T, SEED);
        assert!((r - 0.8).abs() < 0.03, "r={r}");
    }

    #[test]
    fn independence_approaches_the_binomial_prediction() {
        // P(>= 2 of 3 wrong) at p=0.2: 3·0.04·0.8 + 0.008 = 0.104.
        let r = reliability_at_rho(0.0, 0.2, T, SEED);
        assert!((r - 0.896).abs() < 0.03, "r={r}");
    }

    #[test]
    fn table_renders_five_rhos() {
        assert_eq!(run(300, SEED, 1).len(), 5);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(300, SEED, jobs));
    }
}
