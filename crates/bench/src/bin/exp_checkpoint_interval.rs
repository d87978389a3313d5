//! Extension experiment: the checkpoint-interval U-curve (Young's rule).

use redundancy_bench::{default_seed, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E17 — completion time vs checkpoint interval");
    println!("(20k work units, checkpoint cost 25, failure rate 0.002/unit)\n");
    print!(
        "{}",
        redundancy_bench::experiments::checkpoint_interval::run(60, default_seed(), jobs_arg())
    );
}
