//! Experiment E20: the event-loop service runtime under degradation —
//! hedged requests and failover budgets vs no redundancy.
//!
//! `--smoke` runs a reduced request count suitable for CI
//! (`make services-smoke`); the full run uses `REDUNDANCY_TRIALS`
//! requests per cell (default 2000).

use redundancy_bench::experiments::services_rt;
use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let trials = if smoke { 300 } else { default_trials() };
    let seed = default_seed();
    println!(
        "E20 — event-loop service runtime ({trials} requests/cell, 3 providers, \
         100 µs mean interarrival, 100 ms deadline)\n"
    );
    print!("{}", services_rt::run(trials, seed, jobs_arg()));
    if smoke {
        // The CI gate: the determinism claim, re-proven end to end.
        let a = services_rt::run_cell("spiky", "hedged", trials as u64, seed);
        let b = services_rt::run_cell("spiky", "hedged", trials as u64, seed);
        assert_eq!(
            a.ledger_digest(),
            b.ledger_digest(),
            "seeded ledger must be bit-identical"
        );
        println!(
            "\nservices smoke: PASS — ledger digest {:#018x} reproduced",
            a.ledger_digest()
        );
    }
}
