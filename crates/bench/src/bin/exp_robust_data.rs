//! Experiment E16: robust-structure detection and repair rates.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E16 — robust data structures under corruption\n");
    print!(
        "{}",
        redundancy_bench::experiments::robust_data::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
