//! Experiment E7: rejuvenation cadence and the completion-time U-curve.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let seed = default_seed();
    let jobs = jobs_arg();
    println!("E7a — aging-failure rate vs rejuvenation cadence\n");
    print!(
        "{}",
        redundancy_bench::experiments::rejuvenation::run_failure_rates(
            default_trials(),
            seed,
            jobs
        )
    );
    println!("\nE7b — completion time vs rejuvenate-every-N-checkpoints (Garg)\n");
    print!(
        "{}",
        redundancy_bench::experiments::rejuvenation::run_completion(60, seed, jobs)
    );
}
