//! Experiment E18: what eager adjudication saves — cost and recovery
//! latency vs N and quorum size under both decision policies.

use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let trials = default_trials();
    let seed = default_seed();
    let jobs = jobs_arg();
    println!("E18 — eager vs exhaustive adjudication, majority voting vs N\n");
    print!(
        "{}",
        redundancy_bench::experiments::early_exit::run(trials, seed, jobs)
    );
    println!("\nQuorum sweep at N = 5:\n");
    print!(
        "{}",
        redundancy_bench::experiments::early_exit::run_quorum(trials, seed, jobs)
    );
}
