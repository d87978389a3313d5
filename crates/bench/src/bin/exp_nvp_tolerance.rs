//! Experiment E4: the 2k+1 rule and the adjudicator ablation.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let trials = default_trials();
    let seed = default_seed();
    let jobs = jobs_arg();
    println!("E4 — N-version reliability vs N and fault density\n");
    print!(
        "{}",
        redundancy_bench::experiments::nvp_tolerance::run(trials, seed, jobs)
    );
    println!("\nAdjudicator ablation at N = 5:\n");
    print!(
        "{}",
        redundancy_bench::experiments::nvp_tolerance::run_adjudicator_ablation(trials, seed)
    );
}
