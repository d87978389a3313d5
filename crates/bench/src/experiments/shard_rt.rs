//! Experiment E21 — the sharded service runtime with per-provider
//! circuit breakers, under bursty arrivals and a sick provider.
//!
//! The scenario: on/off (bursty) open-loop arrivals over a
//! three-provider pool where one provider is *sick* — failing well past
//! the breaker threshold and spiking its latency — and two are healthy,
//! all behind the hedged policy. The table sweeps shards × breaker:
//!
//! - **shards** exercises the scale-out layer
//!   ([`ShardedRuntime`]): with breakers off and non-binding admission
//!   caps, every shard count reproduces the *same* canonical ledger
//!   (`digest` column), so the fan-out provably changes wall-clock
//!   only;
//! - **breaker** shows the profile-driven routing win: the sick
//!   provider trips Open, hedges and rotations route around it, and
//!   the failed-attempt count collapses while the hedged tail holds.
//!
//! With breakers *on* each shard count is its own deterministic system
//! (breakers judge shard-local history), so those digests legitimately
//! differ across shard counts — but stay bit-identical per
//! `(seed, shards)` at any `--jobs`, which is what the smoke gate in
//! `exp_shard` enforces.

use std::sync::Arc;

use redundancy_services::breaker::BreakerConfig;
use redundancy_services::provider::SimProvider;
use redundancy_services::registry::InterfaceId;
use redundancy_services::runtime::{
    PlannedProvider, RequestPolicy, RuntimeConfig, RuntimeReport, Workload,
};
use redundancy_services::shard::ShardedRuntime;
use redundancy_services::value::Value;
use redundancy_services::ArrivalProcess;
use redundancy_sim::table::Table;

use crate::fmt_rate;

/// Shard counts swept by the table, in row order.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Base service time of every provider (virtual ns).
const BASE_NS: u64 = 200_000;

/// Builds the scenario pool: one sick provider (60% fail-stop, 10%
/// 20 ms latency spikes) between two healthy ones. Stateless, so shard
/// counts cannot couple through provider state.
fn pool() -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let b = SimProvider::builder(format!("p{i}"), InterfaceId::new("svc"))
                .latency(BASE_NS, BASE_NS / 10)
                .operation("work", |_, _| Ok(Value::Int(1)));
            let b = if i == 1 {
                b.fail_prob(0.60).latency_spike(0.10, 20_000_000)
            } else {
                b
            };
            Arc::new(b.build()) as Arc<dyn PlannedProvider>
        })
        .collect()
}

/// The breaker profile the `breaker=on` rows run under.
#[must_use]
pub fn breaker_config() -> BreakerConfig {
    BreakerConfig {
        window: 32,
        failure_pct: 50,
        min_samples: 16,
        cooldown_ns: 10_000_000, // 10 ms Open before re-probing
        half_open_probes: 3,
        slow_call_ns: 10_000_000, // a 20 ms spike profiles as bad
    }
}

/// The runtime limits shared by every cell: hedged policy, caps sized
/// far above the workload so admission never binds (the regime where
/// the shard-count digest invariance holds exactly).
fn config(breaker: bool) -> RuntimeConfig {
    RuntimeConfig {
        policy: RequestPolicy::Hedged {
            delay_ns: 1_000_000, // hedge after 1 ms without a response
            max_hedges: 2,
        },
        deadline_ns: 100_000_000,
        max_in_flight: 4_096,
        queue_capacity: 4_096,
        breaker: breaker.then(breaker_config),
    }
}

/// The bursty workload: 20 ms bursts at a 50 µs mean gap, 80 ms lulls
/// at 2 ms — a ~4× peak-to-mean arrival ratio.
#[must_use]
pub fn bursty_workload(requests: u64) -> Workload {
    Workload {
        requests,
        arrival: ArrivalProcess::OnOff {
            on_gap_ns: 50_000,
            off_gap_ns: 2_000_000,
            on_ns: 20_000_000,
            off_ns: 80_000_000,
        },
        operation: "work".into(),
        args: vec![],
    }
}

/// Runs one (shards, breaker) cell with the shard loops spread across up
/// to `jobs` workers of the campaign pool. The report is bit-identical
/// for any `jobs`.
#[must_use]
pub fn run_sharded(
    shards: usize,
    requests: u64,
    seed: u64,
    breaker: bool,
    jobs: usize,
) -> RuntimeReport {
    ShardedRuntime::new(shards, config(breaker), pool).run_jobs(
        &bursty_workload(requests),
        seed,
        jobs,
    )
}

fn fmt_us(ns: Option<u64>) -> String {
    match ns {
        #[allow(clippy::cast_precision_loss)]
        Some(ns) => format!("{:.1}", ns as f64 / 1_000.0),
        None => "-".to_owned(),
    }
}

/// Builds the E21 table, with each cell's shard loops spread across up to
/// `jobs` workers; the table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "shards",
        "breaker",
        "ok",
        "failed",
        "shed",
        "attempts failed",
        "brk open/skip/shed",
        "p50 µs",
        "p99 µs",
        "goodput krps",
        "digest",
    ]);
    let requests = trials as u64;
    for breaker in [false, true] {
        for shards in SHARD_COUNTS {
            let report = run_sharded(shards, requests, seed, breaker, jobs);
            #[allow(clippy::cast_precision_loss)]
            let ok_rate = report.ok as f64 / requests as f64;
            table.row_owned(vec![
                shards.to_string(),
                if breaker { "on" } else { "off" }.to_owned(),
                fmt_rate(ok_rate),
                report.failed.to_string(),
                // `rejected` already counts breaker-shed requests (they
                // resolve Rejected); the brk column breaks them out.
                report.rejected.to_string(),
                report.attempts_failed.to_string(),
                format!(
                    "{}/{}/{}",
                    report.breaker_opens, report.breaker_skips, report.breaker_shed
                ),
                fmt_us(report.latency_quantile(0.5)),
                fmt_us(report.latency_quantile(0.99)),
                format!("{:.1}", report.goodput_per_sec() / 1_000.0),
                format!("{:#018x}", report.ledger_digest()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe21;

    #[test]
    fn table_renders_all_shard_breaker_cells() {
        assert_eq!(run(300, SEED, 1).len(), SHARD_COUNTS.len() * 2);
    }

    #[test]
    fn breaker_off_digest_is_shard_count_invariant() {
        let baseline = run_sharded(1, 2_000, SEED, false, 1).ledger_digest();
        for shards in SHARD_COUNTS {
            assert_eq!(
                run_sharded(shards, 2_000, SEED, false, 1).ledger_digest(),
                baseline,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn breaker_cuts_failed_attempts_without_costing_availability() {
        let off = run_sharded(2, 2_000, SEED, false, 1);
        let on = run_sharded(2, 2_000, SEED, true, 1);
        assert!(on.breaker_opens > 0, "the sick provider must trip");
        assert!(
            on.attempts_failed < off.attempts_failed,
            "breaker must cut failed attempts: {} vs {}",
            on.attempts_failed,
            off.attempts_failed
        );
        assert!(on.ok * 100 >= off.ok * 99, "{} vs {}", on.ok, off.ok);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(400, SEED, jobs));
    }
}
