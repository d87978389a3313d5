//! Experiment E20 — the event-loop service runtime under degradation:
//! hedged requests vs failover vs no redundancy, across healthy,
//! tail-spiky, flaky and wearing-out provider pools.
//!
//! Expected shape: under latency spikes, hedging collapses the p99/p999
//! tail (the spike is outrun by a duplicate sent to a healthy sibling)
//! at a small extra-attempt cost; under fail-stop flakiness, failover
//! and hedging both recover most requests a single attempt loses; under
//! wear-out, redundancy delays but cannot prevent the decline. All
//! latencies are *virtual* nanoseconds from the deterministic event
//! loop — bit-identical per seed on any host.

use std::sync::Arc;

use redundancy_services::provider::SimProvider;
use redundancy_services::recovery::Backoff;
use redundancy_services::registry::InterfaceId;
use redundancy_services::runtime::{
    PlannedProvider, RequestPolicy, RuntimeConfig, RuntimeReport, ServiceRuntime, Workload,
};
use redundancy_services::value::Value;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;

use crate::fmt_rate;

/// The provider-degradation scenarios, in table order.
pub const SCENARIOS: [&str; 4] = ["healthy", "spiky", "flaky", "wearing"];

/// The request policies compared per scenario, in table order.
pub const POLICIES: [&str; 3] = ["single", "hedged", "failover"];

/// Base service time of every provider (virtual ns).
const BASE_NS: u64 = 200_000;

/// Builds the three-provider pool for one scenario.
fn pool(scenario: &str) -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let b = SimProvider::builder(format!("{scenario}{i}"), InterfaceId::new("svc"))
                .latency(BASE_NS, BASE_NS / 10)
                .operation("work", |_, _| Ok(Value::Int(1)));
            let b = match scenario {
                "healthy" => b,
                // 2% of invocations stall an extra 20 ms — the classic
                // long-tail profile hedging targets.
                "spiky" => b.latency_spike(0.02, 20_000_000),
                // 10% fail-stop responses.
                "flaky" => b.fail_prob(0.10),
                // Starts near-healthy, degrades with every call served.
                "wearing" => b.fail_prob(0.01).wear_out(0.0003),
                other => panic!("unknown scenario {other:?}"),
            };
            Arc::new(b.build()) as Arc<dyn PlannedProvider>
        })
        .collect()
}

/// The runtime limits shared by every cell, with the policy plugged in.
fn config(policy: &str) -> RuntimeConfig {
    let policy = match policy {
        "single" => RequestPolicy::Single,
        "hedged" => RequestPolicy::Hedged {
            delay_ns: 1_000_000, // hedge after 1 ms without a response
            max_hedges: 2,
        },
        "failover" => RequestPolicy::Failover {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base_ns: 500_000,
                factor: 2,
                cap_ns: 4_000_000,
            },
        },
        other => panic!("unknown policy {other:?}"),
    };
    RuntimeConfig {
        policy,
        deadline_ns: 100_000_000, // 100 ms budget per request
        max_in_flight: 256,
        queue_capacity: 1_024,
        breaker: None,
    }
}

/// Runs one (scenario, policy) cell: `requests` open-loop arrivals at a
/// 100 µs mean gap through a fresh three-provider pool.
#[must_use]
pub fn run_cell(scenario: &str, policy: &str, requests: u64, seed: u64) -> RuntimeReport {
    let runtime = ServiceRuntime::new(pool(scenario), config(policy));
    let workload = Workload::poisson(requests, 100_000, "work");
    runtime.run(&workload, seed)
}

fn fmt_us(ns: Option<u64>) -> String {
    match ns {
        #[allow(clippy::cast_precision_loss)]
        Some(ns) => format!("{:.1}", ns as f64 / 1_000.0),
        None => "-".to_owned(),
    }
}

/// Builds the E20 table, with the 12 (scenario × policy) cells sharded
/// across up to `jobs` worker threads; every cell builds its own pool and
/// event loop, so the table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "policy",
        "ok",
        "deadline",
        "shed",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "hedge f/w/c",
        "failovers",
        "goodput krps",
    ]);
    let requests = trials as u64;
    let cells: Vec<(&str, &str)> = SCENARIOS
        .iter()
        .flat_map(|s| POLICIES.iter().map(move |p| (*s, *p)))
        .collect();
    let tasks: Vec<_> = cells
        .iter()
        .map(|&(scenario, policy)| move || run_cell(scenario, policy, requests, seed))
        .collect();
    let reports = parallel_tasks(jobs, tasks);
    for ((scenario, policy), report) in cells.iter().zip(reports) {
        #[allow(clippy::cast_precision_loss)]
        let ok_rate = report.ok as f64 / report.ledger.len() as f64;
        table.row_owned(vec![
            (*scenario).to_owned(),
            (*policy).to_owned(),
            fmt_rate(ok_rate),
            report.deadline_exceeded.to_string(),
            report.rejected.to_string(),
            fmt_us(report.latency_quantile(0.5)),
            fmt_us(report.latency_quantile(0.99)),
            fmt_us(report.latency_quantile(0.999)),
            format!(
                "{}/{}/{}",
                report.hedges_fired, report.hedges_won, report.hedges_cancelled
            ),
            report.failovers.to_string(),
            format!("{:.1}", report.goodput_per_sec() / 1_000.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe20;

    #[test]
    fn table_renders_all_scenario_policy_cells() {
        assert_eq!(run(300, SEED, 1).len(), SCENARIOS.len() * POLICIES.len());
    }

    #[test]
    fn ledger_is_bit_identical_per_seed() {
        let first = run_cell("spiky", "hedged", 2_000, SEED);
        let second = run_cell("spiky", "hedged", 2_000, SEED);
        assert_eq!(first, second, "same seed ⇒ same per-request ledger");
        assert_eq!(first.ledger_digest(), second.ledger_digest());
        assert_ne!(
            first.ledger_digest(),
            run_cell("spiky", "hedged", 2_000, SEED + 1).ledger_digest()
        );
    }

    #[test]
    fn hedging_beats_single_on_the_tail_under_spikes() {
        let single = run_cell("spiky", "single", 4_000, SEED);
        let hedged = run_cell("spiky", "hedged", 4_000, SEED);
        let (s99, h99) = (
            single.latency_quantile(0.99).unwrap(),
            hedged.latency_quantile(0.99).unwrap(),
        );
        let (s999, h999) = (
            single.latency_quantile(0.999).unwrap(),
            hedged.latency_quantile(0.999).unwrap(),
        );
        assert!(h99 < s99, "hedged p99 {h99} must beat single {s99}");
        assert!(h999 < s999, "hedged p999 {h999} must beat single {s999}");
        assert!(hedged.hedges_won > 0, "tail wins come from hedges");
    }

    #[test]
    fn redundancy_recovers_requests_flakiness_loses() {
        let single = run_cell("flaky", "single", 2_000, SEED);
        let hedged = run_cell("flaky", "hedged", 2_000, SEED);
        let failover = run_cell("flaky", "failover", 2_000, SEED);
        assert!(single.ok < 2_000, "10% flakiness must lose some requests");
        assert!(hedged.ok > single.ok, "{} vs {}", hedged.ok, single.ok);
        assert!(failover.ok > single.ok, "{} vs {}", failover.ok, single.ok);
        assert!(failover.failovers > 0);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(200, SEED, jobs));
    }
}
