//! The `bench-services` family: event-loop runtime throughput and tail
//! latency under each scenario × policy cell of E20.
//!
//! Two kinds of measurement share the JSON mirror
//! (`CRITERION_JSON_OUT=BENCH_campaign.json`, see `make bench-services`):
//!
//! - `services/loop/…` — **wall-clock** cost of driving one full
//!   workload (2000 open-loop requests, three providers) through the
//!   event loop, i.e. simulator throughput on this host;
//! - `services/virtual/…` — **virtual-time** service metrics lifted out
//!   of the deterministic [`RuntimeReport`] via `iter_custom`:
//!   nanoseconds-per-request (the reciprocal of virtual req/sec) and
//!   the p99/p999 request latency. These are properties of the modeled
//!   system, bit-identical per seed on any host — the guard below
//!   re-proves that before anything is timed.
//!
//! [`RuntimeReport`]: redundancy_services::runtime::RuntimeReport

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use redundancy_bench::experiments::services_rt::{run_cell, POLICIES, SCENARIOS};
use redundancy_bench::experiments::shard_rt::run_sharded;

const REQUESTS: u64 = 2_000;
const SEED: u64 = 0x5eed_2008;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn bench_services(c: &mut Criterion) {
    // Guard before timing: the ledger must be bit-identical per seed,
    // or the virtual families below are measuring noise.
    for scenario in SCENARIOS {
        for policy in POLICIES {
            let a = run_cell(scenario, policy, REQUESTS, SEED);
            let b = run_cell(scenario, policy, REQUESTS, SEED);
            assert_eq!(
                a.ledger_digest(),
                b.ledger_digest(),
                "non-deterministic ledger at {scenario}/{policy}"
            );
        }
    }

    let mut group = c.benchmark_group("services");
    for scenario in SCENARIOS {
        for policy in POLICIES {
            group.bench_function(format!("loop/{scenario}-{policy}/{REQUESTS}"), |b| {
                b.iter(|| run_cell(scenario, policy, REQUESTS, SEED));
            });
        }
    }

    // Virtual-time families: constant per seed, reported through
    // iter_custom so they land in the same mirror as the wall numbers.
    for scenario in SCENARIOS {
        for policy in POLICIES {
            let report = run_cell(scenario, policy, REQUESTS, SEED);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ns_per_req = (1e9 / report.offered_per_sec()).round() as u64;
            let p99 = report.latency_quantile(0.99).unwrap_or(0);
            let p999 = report.latency_quantile(0.999).unwrap_or(0);
            for (metric, ns) in [
                ("virtual_ns_per_req", ns_per_req),
                ("virtual_p99", p99),
                ("virtual_p999", p999),
            ] {
                group.bench_function(format!("{metric}/{scenario}-{policy}"), |b| {
                    b.iter_custom(|iters| Duration::from_nanos(ns.saturating_mul(iters)));
                });
            }
        }
    }

    // Sharded families: wall-clock cost of the same spiky/hedged
    // workload fanned across N event loops on the worker pool. Guard
    // first: every shard count must reproduce the shards=1 digest
    // (breakers off, caps non-binding), or the merge is broken.
    let baseline = run_sharded(1, REQUESTS, SEED, false, 1).ledger_digest();
    for shards in SHARD_COUNTS {
        assert_eq!(
            run_sharded(shards, REQUESTS, SEED, false, 1).ledger_digest(),
            baseline,
            "shards={shards} digest drifted from the single-loop baseline"
        );
    }
    for shards in SHARD_COUNTS {
        group.bench_function(format!("sharded/spiky-hedged-s{shards}/{REQUESTS}"), |b| {
            b.iter(|| run_sharded(shards, REQUESTS, SEED, false, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_services);
criterion_main!(benches);
