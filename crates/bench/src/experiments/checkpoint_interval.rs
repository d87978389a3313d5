//! Experiment E17 (extension) — the checkpoint-interval trade-off behind
//! checkpoint-recovery (Elnozahy's survey; Young's √(2·C/λ) rule of
//! thumb).
//!
//! Checkpointing too rarely loses work to each failure; checkpointing too
//! often drowns in checkpoint overhead. Expected shape: completion time
//! is U-shaped in the interval, with the sweet spot near Young's
//! approximation.

use redundancy_core::rng::SplitMix64;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::checkpoint_recovery::long_run;

/// Mean completion time over `repetitions` runs at a given interval
/// (`0` = no checkpoints).
#[must_use]
pub fn mean_completion(
    interval: u64,
    total_work: u64,
    checkpoint_cost: u64,
    fail_prob: f64,
    repetitions: usize,
    seed: u64,
) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let total: u64 = (0..repetitions)
        .map(|_| {
            long_run(total_work, interval, checkpoint_cost, fail_prob, &mut rng).completion_time
        })
        .sum();
    total as f64 / repetitions as f64
}

/// Young's first-order optimal interval: `sqrt(2 * checkpoint_cost / λ)`.
#[must_use]
pub fn young_interval(checkpoint_cost: u64, fail_prob: f64) -> f64 {
    (2.0 * checkpoint_cost as f64 / fail_prob).sqrt()
}

/// Builds the E17 table: mean completion time per checkpoint interval,
/// with the interval sweep sharded across up to `jobs` worker threads;
/// every interval seeds its own RNG, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run(repetitions: usize, seed: u64, jobs: usize) -> Table {
    let total_work = 20_000;
    let checkpoint_cost = 25;
    let fail_prob = 0.002;
    let mut table = Table::new(&["checkpoint interval", "mean completion time"]);
    let intervals = [0u64, 25, 50, 100, 158, 400, 1_000, 2_000];
    let tasks: Vec<_> = intervals
        .iter()
        .map(|&interval| {
            move || {
                mean_completion(
                    interval,
                    total_work,
                    checkpoint_cost,
                    fail_prob,
                    repetitions,
                    seed,
                )
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (&interval, mean) in intervals.iter().zip(results) {
        let label = if interval == 0 {
            "none (restart from scratch)".to_owned()
        } else {
            interval.to_string()
        };
        table.row_owned(vec![label, format!("{mean:.0}")]);
    }
    table.row_owned(vec![
        format!(
            "(Young's rule: {:.0})",
            young_interval(checkpoint_cost, fail_prob)
        ),
        String::new(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe17;

    #[test]
    fn completion_time_is_u_shaped_in_the_interval() {
        let m = |interval| mean_completion(interval, 20_000, 25, 0.002, 10, SEED);
        let tiny = m(10); // checkpoint overhead dominates
        let sweet = m(158); // ≈ Young's interval
        let huge = m(2_000); // loses big chunks to every failure
        assert!(sweet < tiny, "sweet {sweet} !< tiny {tiny}");
        assert!(sweet < huge, "sweet {sweet} !< huge {huge}");
    }

    #[test]
    fn youngs_rule_lands_near_the_measured_optimum() {
        let predicted = young_interval(25, 0.002);
        assert!((predicted - 158.1).abs() < 1.0);
        // The measured optimum over a coarse sweep should be within a
        // factor ~2.5 of the prediction.
        let candidates = [25u64, 50, 100, 158, 400, 1_000];
        let means: Vec<f64> = candidates
            .iter()
            .map(|&i| mean_completion(i, 20_000, 25, 0.002, 10, SEED))
            .collect();
        let best_idx = means
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let best = candidates[best_idx] as f64;
        assert!(
            best > predicted / 2.5 && best < predicted * 2.5,
            "best {best} vs predicted {predicted}"
        );
    }

    #[test]
    fn no_checkpoints_is_worst_under_failures() {
        let none = mean_completion(0, 20_000, 25, 0.002, 5, SEED);
        let some = mean_completion(158, 20_000, 25, 0.002, 5, SEED);
        assert!(some < none, "some {some} !< none {none}");
    }

    #[test]
    fn table_renders() {
        assert_eq!(run(3, SEED, 1).len(), 9);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(3, SEED, jobs));
    }
}
