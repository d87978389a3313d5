//! Experiment E21: the sharded service runtime with per-provider
//! circuit breakers — bursty arrivals, one sick provider, hedged
//! policy.
//!
//! `--smoke` runs a reduced request count and then enforces the PR's
//! acceptance gates (`make services-shard-smoke`):
//!
//! 1. with breakers off, shards ∈ {1, 2, 8} reproduce a bit-identical
//!    ledger digest (sharding changes wall-clock only);
//! 2. with breakers on, a fixed shard count is jobs-invariant (same
//!    digest on 1 or 4 pool workers);
//! 3. the breaker measurably cuts failed attempts vs the breakerless
//!    run, with hedged p99 no worse than the single-loop baseline;
//! 4. the service/breaker telemetry totals are scheduling-invariant:
//!    the same counters whether the shard loops run serially or
//!    in parallel.

use redundancy_bench::experiments::shard_rt;
use redundancy_bench::{default_seed, default_trials, jobs_arg};
use redundancy_core::obs::telemetry::{Counter, Telemetry};

/// Sums the service-runtime counters that must not depend on how shard
/// loops were scheduled onto pool workers.
fn service_totals() -> Vec<(Counter, u64)> {
    let snapshot = Telemetry::global().snapshot();
    Counter::ALL
        .iter()
        .filter(|c| c.name().starts_with("service_"))
        .map(|&c| (c, snapshot.counter(c)))
        .collect()
}

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let _monitor = redundancy_bench::monitor_from_args();
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    // Time is virtual, so the smoke run can afford the full default
    // scale — and needs it: at 8 shards each breaker judges only its
    // own slice, so tiny workloads never fill the profile windows.
    let trials = if smoke { 2_000 } else { default_trials() };
    let seed = default_seed();
    println!(
        "E21 — sharded service runtime with circuit breakers ({trials} requests/cell, \
         3 providers with one sick, bursty on/off arrivals, hedged policy)\n"
    );
    print!("{}", shard_rt::run(trials, seed, jobs_arg()));
    if !smoke {
        return;
    }
    let requests = trials as u64;

    // Gate 1: breaker-off digests are shard-count invariant.
    let baseline = shard_rt::run_sharded(1, requests, seed, false, 1);
    for shards in shard_rt::SHARD_COUNTS {
        let report = shard_rt::run_sharded(shards, requests, seed, false, 1);
        assert_eq!(
            report.ledger_digest(),
            baseline.ledger_digest(),
            "shards={shards} digest drifted from the single-loop baseline"
        );
    }

    // Gate 2: breaker-on runs are jobs-invariant at a fixed shard count.
    let on_serial = shard_rt::run_sharded(8, requests, seed, true, 1);
    let on_parallel = shard_rt::run_sharded(8, requests, seed, true, 4);
    assert_eq!(
        on_serial, on_parallel,
        "breaker run must be bit-identical on 1 and 4 pool workers"
    );

    // Gate 3: the breaker cuts failed attempts without losing the tail.
    let off = shard_rt::run_sharded(8, requests, seed, false, 1);
    assert!(on_serial.breaker_opens > 0, "sick provider must trip");
    assert!(
        on_serial.attempts_failed < off.attempts_failed,
        "breaker must cut failed attempts: {} (on) vs {} (off)",
        on_serial.attempts_failed,
        off.attempts_failed
    );
    let p99_on = on_serial.latency_quantile(0.99).expect("ledger not empty");
    let p99_base = baseline.latency_quantile(0.99).expect("ledger not empty");
    assert!(
        p99_on <= p99_base,
        "hedged p99 with breakers ({p99_on}) must not regress the \
         single-loop baseline ({p99_base})"
    );

    // Gate 4: telemetry totals are scheduling-invariant. Run the same
    // campaign serially and on 4 workers; the service counter deltas
    // must agree exactly. (In-binary rather than a unit test: counters
    // are process-global, so this needs a process to itself.)
    let telemetry = Telemetry::global();
    let was_enabled = telemetry.is_enabled();
    telemetry.set_enabled(true);
    telemetry.reset();
    let _ = shard_rt::run_sharded(8, requests, seed, true, 1);
    let serial_totals = service_totals();
    telemetry.reset();
    let _ = shard_rt::run_sharded(8, requests, seed, true, 4);
    let parallel_totals = service_totals();
    telemetry.set_enabled(was_enabled);
    for ((counter, serial), (_, parallel)) in serial_totals.iter().zip(&parallel_totals) {
        assert_eq!(
            serial,
            parallel,
            "{} total depends on pool scheduling",
            counter.name()
        );
    }
    let shard_runs = serial_totals
        .iter()
        .find(|(c, _)| *c == Counter::ServiceShardRuns)
        .map_or(0, |(_, v)| *v);
    assert_eq!(shard_runs, 8, "one shard-run count per shard");

    println!(
        "\nshard smoke: PASS — digest {:#018x} at shards {{1,2,8}}, breaker cut \
         failed attempts {} → {}, p99 {:.1} µs ≤ baseline {:.1} µs, telemetry \
         scheduling-invariant",
        baseline.ledger_digest(),
        off.attempts_failed,
        on_serial.attempts_failed,
        p99_on as f64 / 1_000.0,
        p99_base as f64 / 1_000.0,
    );
}
