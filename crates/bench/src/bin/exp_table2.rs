//! Regenerates the paper's Table 2 with empirical fault-class validation.
//!
//! Pass `--trace` to also capture the structured event stream of every
//! scenario and print its aggregate summary, and `--jobs N` to compute
//! the technique rows across N worker threads (default: all cores; the
//! tables are identical for any value).

use std::sync::Arc;

use redundancy_bench::{default_seed, default_trials, jobs_arg};
use redundancy_core::obs::{summary, Observer, RingBufferObserver};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let trials = default_trials();
    let seed = default_seed();
    let jobs = jobs_arg();
    let trace = redundancy_bench::trace_enabled();
    let ring = RingBufferObserver::shared(1 << 18);
    let extra = trace.then(|| ring.clone() as Arc<dyn Observer>);

    println!("Table 2 — classification + empirical delivery rate under fault load");
    println!("({trials} trials per cell, fault strength 0.3, seed {seed:#x}, {jobs} jobs)\n");
    let (matrix, latency) =
        redundancy_bench::experiments::table2_matrix::run(trials, seed, jobs, extra);
    print!("{matrix}");
    println!("\nStatic classification (as printed in the paper):\n");
    print!("{}", redundancy_techniques::table2::render());
    println!("\nPer-technique recovery latency (SimClock ticks; a recovery is a");
    println!("technique run accepted despite dissenting/failed variants):\n");
    print!("{latency}");

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
