//! Experiment E10: RX vs plain re-execution by fault type.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E10 — recovery by fault type (density 0.35, 6 attempts)\n");
    print!(
        "{}",
        redundancy_bench::experiments::rx::run(default_trials(), default_seed(), jobs_arg())
    );
}
