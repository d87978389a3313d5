//! Regenerates the paper's Table 1 (taxonomy dimensions).

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    println!("Table 1 — taxonomy for redundancy-based mechanisms\n");
    print!("{}", redundancy_bench::experiments::table1::run());
}
