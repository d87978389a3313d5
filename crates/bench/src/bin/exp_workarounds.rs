//! Experiment E13: workaround success vs intrinsic redundancy degree.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E13 — failures worked around vs equivalence rules known\n");
    print!(
        "{}",
        redundancy_bench::experiments::workarounds::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
