//! Experiment E5: reliability collapse under correlated faults.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E5 — NVP(3) reliability vs failure correlation (density 0.2)\n");
    print!(
        "{}",
        redundancy_bench::experiments::correlated::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
