//! Experiment E6: the cost/efficacy frontier of code redundancy.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E6 — cost vs efficacy (fault density 0.25)\n");
    print!(
        "{}",
        redundancy_bench::experiments::cost_efficacy::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
