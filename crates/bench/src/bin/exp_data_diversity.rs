//! Experiment E8: failure-region escape by input re-expression.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E8 — data diversity (fault density 0.3)\n");
    print!(
        "{}",
        redundancy_bench::experiments::data_diversity::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
