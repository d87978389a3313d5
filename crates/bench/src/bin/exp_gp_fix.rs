//! Experiment E14: GP fix rate vs search budget.

use redundancy_bench::default_seed;

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("E14 — GP fault fixing on the seeded-bug corpus (3 repetitions)\n");
    print!(
        "{}",
        redundancy_bench::experiments::gp_fix::run(3, default_seed())
    );
}
