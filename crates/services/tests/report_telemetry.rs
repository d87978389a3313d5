//! The service runtime's two count channels agree.
//!
//! The event loop keeps every count twice: once as a `RuntimeReport`
//! tally and once as a `Service*` telemetry counter, and the ledger is a
//! third record of the dispositions. Each case below runs one seeded
//! workload with the flight recorder on and checks, run by run, that
//! every report tally equals its counter's delta, that the ledger's
//! outcome counts equal the report's, that every arrival left a ledger
//! row and that every enqueued request was dequeued.
//!
//! This binary holds only these tests and they take turns on one lock,
//! so the process-wide recorder's deltas belong to the run under test.

use std::sync::{Arc, Mutex, PoisonError};

use redundancy_core::obs::telemetry::{Counter, Telemetry};
use redundancy_services::{
    Backoff, BreakerConfig, InterfaceId, PlannedProvider, RequestOutcome, RequestPolicy,
    RuntimeConfig, RuntimeReport, ServiceRuntime, ShardedRuntime, SimProvider, Value, Workload,
};

const SEED: u64 = 0x7e1e_3e7e;
const REQUESTS: u64 = 3_000;

static SERIAL: Mutex<()> = Mutex::new(());

/// Three providers, all unreliable enough that breakers trip, so Open
/// providers get skipped and, when all three are Open at once, arrivals
/// are shed; latency spikes outlive the deadline.
fn pool() -> Vec<Arc<dyn PlannedProvider>> {
    [("a", 0.3, 0.05), ("b", 0.7, 0.1), ("c", 0.5, 0.05)]
        .into_iter()
        .map(|(id, fail, spike)| {
            Arc::new(
                SimProvider::builder(id, InterfaceId::new("svc"))
                    .fail_prob(fail)
                    .latency(20_000, 4_000)
                    .latency_spike(spike, 400_000)
                    .operation("work", |_, _| Ok(Value::Int(1)))
                    .build(),
            ) as Arc<dyn PlannedProvider>
        })
        .collect()
}

/// Breakers on, a capped admission queue and a deadline shorter than a
/// latency spike.
fn config(policy: RequestPolicy) -> RuntimeConfig {
    RuntimeConfig {
        policy,
        deadline_ns: 150_000,
        max_in_flight: 4,
        queue_capacity: 8,
        breaker: Some(BreakerConfig {
            window: 8,
            failure_pct: 50,
            min_samples: 4,
            cooldown_ns: 200_000,
            half_open_probes: 2,
            slow_call_ns: 0,
        }),
    }
}

fn workload() -> Workload {
    Workload::poisson(REQUESTS, 8_000, "work")
}

const HEDGED: RequestPolicy = RequestPolicy::Hedged {
    delay_ns: 30_000,
    max_hedges: 2,
};

const FAILOVER: RequestPolicy = RequestPolicy::Failover {
    max_attempts: 3,
    backoff: Backoff::Exponential {
        base_ns: 10_000,
        factor: 2,
        cap_ns: 80_000,
    },
};

/// Runs `run` with the recorder on and asserts that the report, the
/// ledger and the telemetry deltas tell the same story.
fn agreeing(run: impl FnOnce() -> RuntimeReport) -> RuntimeReport {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let telemetry = Telemetry::global();
    telemetry.set_enabled(true);
    let before = telemetry.snapshot();
    let report = run();
    let after = telemetry.snapshot();
    let delta = |counter: Counter| after.counter(counter) - before.counter(counter);

    for (counter, tally) in [
        (Counter::ServiceOk, report.ok),
        (Counter::ServiceFailed, report.failed),
        (Counter::ServiceRejected, report.rejected),
        (Counter::ServiceDeadlineExceeded, report.deadline_exceeded),
        (Counter::ServiceHedgesFired, report.hedges_fired),
        (Counter::ServiceHedgesWon, report.hedges_won),
        (Counter::ServiceHedgesCancelled, report.hedges_cancelled),
        (Counter::ServiceFailovers, report.failovers),
        (Counter::ServiceAttemptsFailed, report.attempts_failed),
        (Counter::ServiceBreakerOpens, report.breaker_opens),
        (Counter::ServiceBreakerSkips, report.breaker_skips),
        (Counter::ServiceBreakerShed, report.breaker_shed),
    ] {
        assert_eq!(
            delta(counter),
            tally,
            "{} counter disagrees with the report",
            counter.name()
        );
    }

    let mut outcomes = [0u64; 4];
    for record in &report.ledger {
        outcomes[match record.outcome {
            RequestOutcome::Ok { .. } => 0,
            RequestOutcome::Failed => 1,
            RequestOutcome::Rejected => 2,
            RequestOutcome::DeadlineExceeded => 3,
        }] += 1;
    }
    assert_eq!(
        outcomes,
        [
            report.ok,
            report.failed,
            report.rejected,
            report.deadline_exceeded
        ],
        "ledger outcomes (ok, failed, rejected, deadline) disagree with the report"
    );
    assert_eq!(
        delta(Counter::ServiceArrivals),
        report.ledger.len() as u64,
        "every arrival must leave exactly one ledger row"
    );
    assert_eq!(
        delta(Counter::ServiceEnqueued),
        delta(Counter::ServiceDequeued),
        "every queued request must leave the queue"
    );
    assert!(
        delta(Counter::ServiceEnqueued) > 0,
        "the capped queue must be used"
    );
    report
}

/// Tallies every policy drives: rejections, deadlines, failed attempts
/// and breaker activity all occur, so their agreement is not 0 == 0.
fn assert_loaded(report: &RuntimeReport) {
    for (name, tally) in [
        ("ok", report.ok),
        ("rejected", report.rejected),
        ("deadline_exceeded", report.deadline_exceeded),
        ("attempts_failed", report.attempts_failed),
        ("breaker_opens", report.breaker_opens),
    ] {
        assert!(tally > 0, "{name} never happened");
    }
}

#[test]
fn single_policy_channels_agree() {
    let report = agreeing(|| {
        ServiceRuntime::new(pool(), config(RequestPolicy::Single)).run(&workload(), SEED)
    });
    assert_loaded(&report);
    assert!(report.failed > 0 && report.breaker_shed > 0);
}

#[test]
fn hedged_policy_channels_agree() {
    let report = agreeing(|| ServiceRuntime::new(pool(), config(HEDGED)).run(&workload(), SEED));
    assert_loaded(&report);
    assert!(report.hedges_fired > 0 && report.hedges_won > 0 && report.hedges_cancelled > 0);
    assert!(report.breaker_skips > 0);
}

#[test]
fn failover_policy_channels_agree() {
    let report = agreeing(|| ServiceRuntime::new(pool(), config(FAILOVER)).run(&workload(), SEED));
    assert_loaded(&report);
    assert!(report.failovers > 0 && report.breaker_skips > 0);
}

#[test]
fn two_shard_channels_agree() {
    let report =
        agreeing(|| ShardedRuntime::new(2, config(FAILOVER), pool).run_jobs(&workload(), SEED, 2));
    assert_loaded(&report);
    assert!(report.failovers > 0);
}
