//! Runs every experiment regenerator in sequence (the full reproduction).
//!
//! Pass `--jobs N` to compute independent experiment cells across N
//! worker threads (default: all cores). Every table is identical for
//! any value — parallelism only changes wall-clock time.

use redundancy_bench::experiments as exp;
use redundancy_bench::{default_seed, default_trials, jobs_arg};

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    // E19 scripts worker kills and catches them; keep the default
    // hook's backtraces for real panics only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !redundancy_sim::ChaosPlan::is_chaos_panic(info.payload()) {
            default_hook(info);
        }
    }));
    let trials = default_trials();
    let seed = default_seed();
    let jobs = jobs_arg();
    let rule = "=".repeat(72);

    println!("{rule}\nT1 — Table 1\n{rule}");
    print!("{}", exp::table1::run());
    println!("{rule}\nT2 — Table 2 (empirical)\n{rule}");
    print!("{}", exp::table2_matrix::run(trials, seed, jobs, None).0);
    println!("{rule}\nF1 — Figure 1 patterns\n{rule}");
    print!("{}", exp::fig1_patterns::run(trials, seed, jobs, None));
    println!("{rule}\nE4 — 2k+1 tolerance\n{rule}");
    print!("{}", exp::nvp_tolerance::run(trials, seed, jobs));
    println!("{rule}\nE5 — correlated faults\n{rule}");
    print!("{}", exp::correlated::run(trials, seed, jobs));
    println!("{rule}\nE6 — cost/efficacy\n{rule}");
    print!("{}", exp::cost_efficacy::run(trials, seed, jobs));
    println!("{rule}\nE7a — rejuvenation failure rates\n{rule}");
    print!(
        "{}",
        exp::rejuvenation::run_failure_rates(trials, seed, jobs)
    );
    println!("{rule}\nE7b — completion-time U-curve\n{rule}");
    print!("{}", exp::rejuvenation::run_completion(60, seed, jobs));
    println!("{rule}\nE8 — data diversity\n{rule}");
    print!("{}", exp::data_diversity::run(trials, seed, jobs));
    println!("{rule}\nE9 — security diversity\n{rule}");
    print!("{}", exp::security::run(trials.min(1000), seed, jobs));
    println!("{rule}\nE10 — RX vs re-execution\n{rule}");
    print!("{}", exp::rx::run(trials, seed, jobs));
    println!("{rule}\nE10b — RX knob ablation\n{rule}");
    print!("{}", exp::rx_ablation::run(trials, seed, jobs));
    println!("{rule}\nE11 — reboot policies\n{rule}");
    print!("{}", exp::microreboot::run(50_000, seed, jobs));
    println!("{rule}\nE12 — service substitution\n{rule}");
    print!("{}", exp::substitution::run(trials, seed, jobs));
    println!("{rule}\nE13 — automatic workarounds\n{rule}");
    print!("{}", exp::workarounds::run(trials, seed, jobs));
    println!("{rule}\nE14 — GP fault fixing\n{rule}");
    print!("{}", exp::gp_fix::run(3, seed));
    println!("{rule}\nE15 — healer wrappers\n{rule}");
    print!("{}", exp::wrappers::run(trials, seed, jobs));
    println!("{rule}\nE16 — robust data structures\n{rule}");
    print!("{}", exp::robust_data::run(trials, seed, jobs));
    println!("{rule}\nE17 — checkpoint-interval U-curve\n{rule}");
    print!("{}", exp::checkpoint_interval::run(60, seed, jobs));
    println!("{rule}\nE18 — eager adjudication early exit\n{rule}");
    print!("{}", exp::early_exit::run(trials, seed, jobs));
    print!("{}", exp::early_exit::run_quorum(trials, seed, jobs));
    println!("{rule}\nE19 — resumable campaigns: interval vs work lost\n{rule}");
    print!("{}", exp::resume::run(128, seed, jobs));
    println!("{rule}\nE20 — event-loop service runtime\n{rule}");
    print!("{}", exp::services_rt::run(trials, seed, jobs));
}
