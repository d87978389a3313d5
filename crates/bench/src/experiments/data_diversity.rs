//! Experiment E8 — data diversity (Ammann–Knight): failure-region escape
//! via input re-expression.
//!
//! Expected shape: recovery improves with the number of re-expressions
//! (≈ 1 − p^(k+1) for retry blocks on independent regions); N-copy with
//! the same redundancy is weaker than retry (it needs a majority, retry
//! needs one survivor); without any re-expression both inherit the raw
//! program reliability.

use redundancy_core::context::ExecContext;
use redundancy_faults::{FaultSpec, FaultyVariant};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::data_diversity::{NCopy, ReExpression, RetryBlock};

use crate::fmt_rate;

const DENSITY: f64 = 0.3;

fn golden(x: &u64) -> u64 {
    x * 2
}

fn buggy() -> FaultyVariant<u64, u64> {
    FaultyVariant::builder("linear", 10, golden)
        .corruptor(|c, _| c + 1001)
        .fault(FaultSpec::bohrbug("region", DENSITY, 0xda7a))
        .build()
}

fn shift(k: u64) -> ReExpression<u64, u64> {
    ReExpression::new(
        format!("shift{k}"),
        move |x: &u64| x.wrapping_add(k),
        move |y: u64| y.wrapping_sub(2 * k),
    )
}

/// Retry-block recovery rate with `k` re-expressions beyond identity.
#[must_use]
pub fn retry_rate(k: usize, trials: usize, seed: u64) -> f64 {
    let mut rb = RetryBlock::new(buggy(), |x: &u64, out: &u64| *out <= x * 2 + 100);
    for i in 0..k {
        rb = rb.with_reexpression(shift(11 + 13 * i as u64));
    }
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials as u64)
        .filter(|x| rb.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    ok as f64 / trials as f64
}

/// N-copy recovery rate with `k` re-expressions beyond identity.
#[must_use]
pub fn ncopy_rate(k: usize, trials: usize, seed: u64) -> f64 {
    let mut nc = NCopy::new(buggy());
    for i in 0..k {
        nc = nc.with_reexpression(shift(11 + 13 * i as u64));
    }
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials as u64)
        .filter(|x| nc.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    ok as f64 / trials as f64
}

/// Builds the E8 table, with the re-expression sweep sharded across up to
/// `jobs` worker threads; every row seeds its own contexts, so the table is
/// identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "re-expressions",
        "retry blocks",
        "N-copy (majority)",
        "1 - p^(k+1) (prediction)",
    ]);
    let tasks: Vec<_> = (0..=4usize)
        .map(|k| move || (retry_rate(k, trials, seed), ncopy_rate(k, trials, seed)))
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (k, (retry, ncopy)) in results.into_iter().enumerate() {
        table.row_owned(vec![
            k.to_string(),
            fmt_rate(retry),
            fmt_rate(ncopy),
            fmt_rate(1.0 - DENSITY.powi(k as i32 + 1)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 1500;
    const SEED: u64 = 0xe8;

    #[test]
    fn zero_reexpressions_inherit_program_reliability() {
        let r = retry_rate(0, T, SEED);
        assert!((r - (1.0 - DENSITY)).abs() < 0.04, "r={r}");
    }

    #[test]
    fn retry_rate_grows_with_reexpressions() {
        let r0 = retry_rate(0, T, SEED);
        let r2 = retry_rate(2, T, SEED);
        let r4 = retry_rate(4, T, SEED);
        assert!(r2 > r0 + 0.1, "r0={r0}, r2={r2}");
        assert!(r4 >= r2, "r2={r2}, r4={r4}");
        assert!(r4 > 0.97, "r4={r4}");
    }

    #[test]
    fn retry_tracks_the_independence_prediction() {
        let r3 = retry_rate(3, T, SEED);
        let prediction = 1.0 - DENSITY.powi(4);
        assert!(
            (r3 - prediction).abs() < 0.04,
            "r3={r3}, predicted {prediction}"
        );
    }

    #[test]
    fn retry_beats_ncopy_at_equal_redundancy() {
        let retry = retry_rate(2, T, SEED);
        let ncopy = ncopy_rate(2, T, SEED);
        assert!(
            retry > ncopy + 0.02,
            "retry {retry} should beat N-copy {ncopy}"
        );
    }

    #[test]
    fn table_renders_five_rows() {
        assert_eq!(run(200, SEED, 1).len(), 5);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(200, SEED, jobs));
    }
}
