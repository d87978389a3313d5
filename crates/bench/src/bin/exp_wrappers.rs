//! Experiment E15: heap-smash prevention by wrappers and padding.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E15 — heap smashing (64-byte buffers, 1..=128-byte overflows)\n");
    print!(
        "{}",
        redundancy_bench::experiments::wrappers::run(default_trials(), default_seed(), jobs_arg())
    );
}
