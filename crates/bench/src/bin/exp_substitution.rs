//! Experiment E12: availability vs number of alternative providers.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E12 — dynamic service substitution (provider failure rate 0.4)\n");
    print!(
        "{}",
        redundancy_bench::experiments::substitution::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
