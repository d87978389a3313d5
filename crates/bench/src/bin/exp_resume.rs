//! Extension experiment: resumable campaigns — checkpoint interval vs
//! work lost to an injected kill, plus the traced chaos smoke check.
//!
//! `--smoke` runs a reduced configuration suitable for CI
//! (`make chaos-smoke`).

use redundancy_bench::experiments::resume;
use redundancy_bench::{default_seed, jobs_arg};
use redundancy_core::obs::telemetry::{Counter, Telemetry};
use redundancy_sim::ChaosPlan;

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let monitor = redundancy_bench::monitor_from_args();
    // The chaos experiment reports its injected faults from the flight
    // recorder, so keep telemetry on even without --monitor.
    Telemetry::global().set_enabled(true);
    // The experiment *scripts* worker kills and catches them; keep the
    // default hook's backtraces for real panics only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !ChaosPlan::is_chaos_panic(info.payload()) {
            default_hook(info);
        }
    }));
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let trials = if smoke { 64 } else { 256 };
    let seed = default_seed();
    println!("E19 — resumable campaigns: checkpoint interval vs work lost");
    println!(
        "({trials} trials, kill injected before trial {})\n",
        trials * 3 / 4
    );
    print!("{}", resume::run(trials, seed, jobs_arg()));
    let kills = resume::chaos_smoke(if smoke { 60 } else { 120 }, seed, jobs_arg());
    println!(
        "\nchaos smoke: PASS — traced campaign survived {kills} scripted kill(s); \
         resumed summary and event stream byte-identical to the clean run"
    );
    // Which kills the pool catches and which delays fire depend on the
    // schedule, not on the results: stderr, so stdout stays one run's
    // bytes for any run.
    let recorded = Telemetry::global().snapshot();
    eprintln!(
        "flight recorder: {} worker kill(s), {} cancel fuse(s), {} injected delay(s); \
         pool caught {} panic(s), suppressed {} duplicate(s)",
        recorded.counter(Counter::ChaosKills),
        recorded.counter(Counter::ChaosCancels),
        recorded.counter(Counter::ChaosDelays),
        recorded.counter(Counter::PoolPanicsCaught),
        recorded.counter(Counter::PoolPanicsSuppressed),
    );
    drop(monitor);
}
