//! Experiment E11: reboot policies on the JAGR component tree.

use redundancy_bench::{default_seed, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E11 — availability and recovery time by reboot policy\n");
    print!(
        "{}",
        redundancy_bench::experiments::microreboot::run(50_000, default_seed(), jobs_arg())
    );
}
