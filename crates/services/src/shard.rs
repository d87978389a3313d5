//! Sharded execution of the event-loop runtime on the campaign
//! worker pool.
//!
//! One [`ServiceRuntime`] keeps millions of requests in flight but runs
//! every event on a single thread; this module is the scale-out layer
//! the ROADMAP calls "past one node": [`ShardedRuntime`] splits one
//! open-loop workload across `N` per-shard deterministic event loops,
//! runs them on the persistent campaign
//! [`WorkerPool`](redundancy_sim::WorkerPool) (via
//! [`parallel_tasks`], the jobs-invariant scheduler from PRs 2–3), and
//! merges the per-shard ledgers back into one report.
//!
//! **Shard membership is strided**: shard `s` of `N` owns request ids
//! `{s, s + N, s + 2N, ...}` — the id-space image of a round-robin
//! front door over `N` nodes. Determinism rests on the runtime's
//! order-free construction (see [`runtime`](crate::runtime)): every
//! per-request quantity is a pure function of `(seed, id)`, arrival
//! times come from one shared precomputed table, and ledgers are kept
//! in canonical `(end_ns, id)` order. Under a configuration where
//! requests do not *couple* through shared limits — admission caps not
//! binding, no cross-request provider state — the merged ledger is
//! **bit-identical for any shard count** (`ledger_digest` at
//! `--shards 1, 2, 8` all agree, and all agree with the single-loop
//! runtime). When couplings do bind (queueing, wear-out, breakers
//! reacting to shard-local history), each shard count is its own
//! deterministic system: the digest is still bit-identical for a fixed
//! `(seed, shards)` at **any `--jobs`**, which is the invariant the
//! smoke gate enforces.
//!
//! Each shard gets its **own provider pool** (built by the factory the
//! runtime was constructed with) and its own breakers: sharing one
//! `SimProvider`'s call counter across threads would make wear-out
//! depend on OS scheduling, and a real deployment's nodes hold
//! per-node circuit state anyway.

use std::sync::Arc;

use redundancy_core::obs::telemetry::{self, Counter};
use redundancy_sim::parallel::parallel_tasks;

use crate::runtime::{PlannedProvider, RuntimeConfig, RuntimeReport, ServiceRuntime, Workload};

/// Builds one shard's private provider pool. Called once per shard per
/// run; must be deterministic (same pool every call) for the sharding
/// invariants to hold.
pub type ProviderFactory = dyn Fn() -> Vec<Arc<dyn PlannedProvider>> + Send + Sync;

/// N per-shard event loops over one workload, merged into one report.
pub struct ShardedRuntime {
    factory: Box<ProviderFactory>,
    config: RuntimeConfig,
    shards: usize,
}

impl ShardedRuntime {
    /// Creates a runtime of `shards` loops. `config` describes the
    /// *whole* system: `max_in_flight` and `queue_capacity` are split
    /// exactly across shards (floor, remainder to the first shards, min
    /// 1 in-flight slot per loop); policy, deadline, and breaker config
    /// apply per shard as-is.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or the factory returns an empty
    /// provider pool.
    #[must_use]
    pub fn new(
        shards: usize,
        config: RuntimeConfig,
        factory: impl Fn() -> Vec<Arc<dyn PlannedProvider>> + Send + Sync + 'static,
    ) -> Self {
        assert!(shards >= 1, "a sharded runtime needs at least one shard");
        assert!(
            !factory().is_empty(),
            "the provider factory must build at least one provider"
        );
        ShardedRuntime {
            factory: Box::new(factory),
            config,
            shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The limits of shard `shard` (`< shards`): the system-wide
    /// admission cap and queue capacity are distributed *exactly* —
    /// every shard gets `total / shards`, the first `total % shards`
    /// shards one more — so the aggregate equals the configured limit
    /// and the sharded system never out-admits the single loop. The one
    /// exception: each loop keeps at least one in-flight slot (a zero
    /// admission cap would deadlock it), so when
    /// `max_in_flight < shards` the aggregate is `shards` instead.
    #[must_use]
    pub fn shard_config(&self, shard: usize) -> RuntimeConfig {
        RuntimeConfig {
            max_in_flight: split_exact(self.config.max_in_flight, self.shards, shard).max(1),
            queue_capacity: split_exact(self.config.queue_capacity, self.shards, shard),
            ..self.config
        }
    }

    /// Runs every shard on the calling thread. Identical output to
    /// [`run_jobs`](Self::run_jobs) at any job count.
    #[must_use]
    pub fn run(&self, workload: &Workload, seed: u64) -> RuntimeReport {
        self.run_jobs(workload, seed, 1)
    }

    /// Runs the shards across up to `jobs` workers of the campaign
    /// pool. The arrival schedule is precomputed once and shared;
    /// each shard drives its strided id slice to completion
    /// independently; ledgers merge in canonical `(end_ns, id)` order.
    /// The merged report is bit-identical for any `jobs`.
    #[must_use]
    pub fn run_jobs(&self, workload: &Workload, seed: u64, jobs: usize) -> RuntimeReport {
        let arrivals: Arc<Vec<u64>> =
            Arc::new(workload.arrival.arrival_times(workload.requests, seed));
        let step = self.shards as u64;
        let tasks: Vec<_> = (0..self.shards)
            .map(|shard| {
                let arrivals = Arc::clone(&arrivals);
                let workload = workload.clone();
                let factory = &self.factory;
                let shard_config = self.shard_config(shard);
                move || {
                    telemetry::add(Counter::ServiceShardRuns, 1);
                    let runtime = ServiceRuntime::new(factory(), shard_config);
                    runtime.run_slice(&workload, seed, &arrivals, shard as u64, step)
                }
            })
            .collect();
        merge_reports(parallel_tasks(jobs, tasks))
    }
}

/// `item`'s share when `total` is split exactly across `parts`: floor
/// for everyone, the remainder handed to the first `total % parts`.
fn split_exact(total: usize, parts: usize, item: usize) -> usize {
    total / parts + usize::from(item < total % parts)
}

/// Merges per-shard reports: ledgers k-way merged on `(end_ns, id)`
/// (each input is already canonically sorted), tallies summed, makespan
/// the maximum, peaks summed (an aggregate capacity footprint across
/// loops, not one loop's high-water mark).
fn merge_reports(reports: Vec<RuntimeReport>) -> RuntimeReport {
    let mut merged = RuntimeReport::default();
    let total: usize = reports.iter().map(|r| r.ledger.len()).sum();
    merged.ledger.reserve(total);
    let mut cursors: Vec<(std::vec::IntoIter<_>, Option<crate::runtime::RequestRecord>)> =
        Vec::new();
    for report in reports {
        merged.makespan_ns = merged.makespan_ns.max(report.makespan_ns);
        merged.ok += report.ok;
        merged.failed += report.failed;
        merged.rejected += report.rejected;
        merged.deadline_exceeded += report.deadline_exceeded;
        merged.hedges_fired += report.hedges_fired;
        merged.hedges_won += report.hedges_won;
        merged.hedges_cancelled += report.hedges_cancelled;
        merged.failovers += report.failovers;
        merged.peak_in_flight += report.peak_in_flight;
        merged.peak_queue_depth += report.peak_queue_depth;
        merged.attempts_failed += report.attempts_failed;
        merged.breaker_opens += report.breaker_opens;
        merged.breaker_skips += report.breaker_skips;
        merged.breaker_shed += report.breaker_shed;
        let mut iter = report.ledger.into_iter();
        let head = iter.next();
        if head.is_some() {
            cursors.push((iter, head));
        }
    }
    // K-way merge: k is the shard count (small), so a linear scan for
    // the minimum head beats heap bookkeeping.
    while !cursors.is_empty() {
        let mut best = 0;
        for i in 1..cursors.len() {
            let a = cursors[i].1.as_ref().expect("cursor heads are live");
            let b = cursors[best].1.as_ref().expect("cursor heads are live");
            if (a.end_ns, a.id) < (b.end_ns, b.id) {
                best = i;
            }
        }
        let (ref mut iter, ref mut head) = cursors[best];
        let record = head.take().expect("cursor heads are live");
        merged.ledger.push(record);
        *head = iter.next();
        if head.is_none() {
            cursors.swap_remove(best);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::SimProvider;
    use crate::registry::InterfaceId;
    use crate::runtime::{RequestOutcome, RequestPolicy};
    use crate::value::Value;
    use crate::{ArrivalProcess, BreakerConfig};

    fn spiky_flaky_pool() -> Vec<Arc<dyn PlannedProvider>> {
        ["a", "b", "c"]
            .iter()
            .map(|id| {
                Arc::new(
                    SimProvider::builder(*id, InterfaceId::new("echo"))
                        .fail_prob(0.05)
                        .latency(1_000, 100)
                        .latency_spike(0.03, 40_000)
                        .operation("ping", |_, _| Ok(Value::Str("pong".into())))
                        .build(),
                ) as Arc<dyn PlannedProvider>
            })
            .collect()
    }

    fn workload(requests: u64) -> Workload {
        Workload {
            requests,
            arrival: ArrivalProcess::Poisson { mean_gap_ns: 1_000 },
            operation: "ping".into(),
            args: vec![],
        }
    }

    /// Generous caps + stateless providers + no breaker: the order-free
    /// regime where the digest must not move with the shard count.
    fn uncoupled_config() -> RuntimeConfig {
        RuntimeConfig {
            policy: RequestPolicy::Hedged {
                delay_ns: 3_000,
                max_hedges: 2,
            },
            deadline_ns: 0,
            max_in_flight: 1 << 20,
            queue_capacity: 0,
            breaker: None,
        }
    }

    #[test]
    fn digest_is_bit_identical_at_any_shard_count() {
        let load = workload(4_000);
        let single = ServiceRuntime::new(spiky_flaky_pool(), uncoupled_config())
            .run(&load, 0x5eed_2008)
            .ledger_digest();
        for shards in [1usize, 2, 8] {
            let report = ShardedRuntime::new(shards, uncoupled_config(), spiky_flaky_pool)
                .run(&load, 0x5eed_2008);
            assert_eq!(
                report.ledger_digest(),
                single,
                "shards={shards} must reproduce the single-loop digest"
            );
            assert_eq!(report.ledger.len(), 4_000);
        }
    }

    #[test]
    fn merged_report_is_jobs_invariant() {
        let load = workload(3_000);
        let build = || ShardedRuntime::new(8, uncoupled_config(), spiky_flaky_pool);
        let baseline = build().run_jobs(&load, 7, 1);
        for jobs in [2usize, 4, 8] {
            let report = build().run_jobs(&load, 7, jobs);
            assert_eq!(report, baseline, "jobs={jobs} changed the merged report");
        }
    }

    #[test]
    fn merged_ledger_is_canonically_ordered_and_complete() {
        let load = workload(2_000);
        let report = ShardedRuntime::new(4, uncoupled_config(), spiky_flaky_pool).run(&load, 99);
        assert!(report
            .ledger
            .windows(2)
            .all(|w| (w[0].end_ns, w[0].id) <= (w[1].end_ns, w[1].id)));
        let mut ids: Vec<u64> = report.ledger.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2_000, "every id resolves exactly once");
        assert_eq!(
            report.ok + report.failed + report.rejected + report.deadline_exceeded,
            2_000
        );
    }

    #[test]
    fn shards_do_not_phase_lock_onto_one_provider() {
        // Regression for the offset bug: with `id % providers` as the
        // rotation start and 3 shards × 3 providers, shard 0 would
        // start *every* request on provider 0. The hashed offset must
        // spread each shard's wins across all providers.
        let load = workload(3_000);
        let config = RuntimeConfig {
            policy: RequestPolicy::Single,
            ..uncoupled_config()
        };
        let report = ShardedRuntime::new(3, config, spiky_flaky_pool).run(&load, 5);
        for shard in 0..3u64 {
            let mut per_provider = [0u64; 3];
            for record in report.ledger.iter().filter(|r| r.id % 3 == shard) {
                if let RequestOutcome::Ok { provider, .. } = record.outcome {
                    per_provider[provider as usize] += 1;
                }
            }
            let total: u64 = per_provider.iter().sum();
            for (idx, &count) in per_provider.iter().enumerate() {
                assert!(
                    count * 5 > total,
                    "shard {shard}: provider {idx} got {count}/{total} primaries — \
                     rotation is phase-locked"
                );
            }
        }
    }

    #[test]
    fn breaker_runs_are_deterministic_per_shard_count() {
        let all_sick = || -> Vec<Arc<dyn PlannedProvider>> {
            vec![Arc::new(
                SimProvider::builder("sick", InterfaceId::new("echo"))
                    .fail_prob(1.0)
                    .latency(1_000, 100)
                    .operation("ping", |_, _| Ok(Value::Str("pong".into())))
                    .build(),
            )]
        };
        let config = RuntimeConfig {
            breaker: Some(BreakerConfig {
                window: 16,
                failure_pct: 50,
                min_samples: 8,
                cooldown_ns: 1_000_000,
                half_open_probes: 2,
                slow_call_ns: 0,
            }),
            ..uncoupled_config()
        };
        let load = workload(2_000);
        let build = || ShardedRuntime::new(4, config, all_sick);
        let first = build().run_jobs(&load, 13, 1);
        let second = build().run_jobs(&load, 13, 4);
        assert_eq!(first, second, "breaker runs must stay jobs-invariant");
        assert!(first.breaker_opens > 0, "a dead provider must trip");
        assert!(
            first.breaker_shed > 0,
            "with its only provider Open, arrivals are shed at the front door"
        );
        assert_eq!(
            first.ok + first.failed + first.rejected + first.deadline_exceeded,
            2_000
        );
    }

    #[test]
    fn split_limits_cover_the_whole_system_exactly() {
        let rt = ShardedRuntime::new(
            3,
            RuntimeConfig {
                max_in_flight: 8,
                queue_capacity: 4,
                ..RuntimeConfig::default()
            },
            spiky_flaky_pool,
        );
        // Floor plus remainder-to-the-first: 8 = 3 + 3 + 2, 4 = 2+1+1 —
        // the aggregate equals the global limit (the old div_ceil split
        // gave 3 + 3 + 3 = 9, out-admitting the single loop).
        let caps: Vec<usize> = (0..3).map(|s| rt.shard_config(s).max_in_flight).collect();
        assert_eq!(caps, vec![3, 3, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 8, "aggregate admission cap");
        let queues: Vec<usize> = (0..3).map(|s| rt.shard_config(s).queue_capacity).collect();
        assert_eq!(queues, vec![2, 1, 1]);
        assert_eq!(queues.iter().sum::<usize>(), 4, "aggregate queue bound");
        // A cap smaller than the shard count still leaves each loop
        // one slot — an admission cap of zero would deadlock. This is
        // the one case where the aggregate (= shards) exceeds the
        // configured limit.
        let tiny = ShardedRuntime::new(
            4,
            RuntimeConfig {
                max_in_flight: 2,
                ..RuntimeConfig::default()
            },
            spiky_flaky_pool,
        );
        for shard in 0..4 {
            assert_eq!(tiny.shard_config(shard).max_in_flight, 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedRuntime::new(0, RuntimeConfig::default(), spiky_flaky_pool);
    }
}
