//! Regenerates Figure 1 as a quantitative pattern comparison.
//!
//! Pass `--trace` to also capture the structured event stream and print
//! its aggregate summary, and `--jobs N` to measure the three patterns
//! across N worker threads (default: all cores; the table is identical
//! for any value).

use std::sync::Arc;

use redundancy_bench::{default_seed, default_trials, jobs_arg};
use redundancy_core::obs::{summary, Observer, RingBufferObserver};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let trials = default_trials();
    let jobs = jobs_arg();
    let trace = redundancy_bench::trace_enabled();
    let ring = RingBufferObserver::shared(1 << 18);
    let observer = trace.then(|| ring.clone() as Arc<dyn Observer>);

    println!("Figure 1 — architectural patterns on identical variants");
    println!("(3 variants, 25% independent fault density, {trials} requests, {jobs} jobs)\n");
    print!(
        "{}",
        redundancy_bench::experiments::fig1_patterns::run(trials, default_seed(), jobs, observer)
    );

    if trace {
        println!(
            "\n--trace summary (most recent {} events kept):\n",
            ring.capacity()
        );
        print!("{}", summary(&ring.events()));
        if ring.dropped() > 0 {
            println!("({} older events evicted)", ring.dropped());
        }
    }
}
