//! Ablation: which RX perturbation knob cures which fault family.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E10b — RX knob ablation (fault density 0.4, 6 rounds)\n");
    print!(
        "{}",
        redundancy_bench::experiments::rx_ablation::run(
            default_trials(),
            default_seed(),
            jobs_arg()
        )
    );
}
