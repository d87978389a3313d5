//! Experiment E9: attack-stopping rates of diversity-based defenses.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E9 — attacks stopped vs replica/variant count\n");
    print!(
        "{}",
        redundancy_bench::experiments::security::run(
            default_trials().min(1000),
            default_seed(),
            jobs_arg()
        )
    );
}
