//! Admission control and lazy cancellation in the event loop, driven by
//! scripted providers.
//!
//! A scripted provider replays fixed `(latency, verdict)` plans in
//! dispatch order, so every virtual instant in a run is known in
//! advance. The property test runs random small configurations and
//! checks the admission invariants on the ledger; the regression test
//! pins one timeline in which a request slot is reused while a stale
//! completion for its previous holder is still in flight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use redundancy_core::rng::SplitMix64;
use redundancy_services::{
    ArrivalProcess, Backoff, BreakerConfig, PlannedInvoke, PlannedProvider, RequestOutcome,
    RequestPolicy, RequestRecord, RuntimeConfig, ServiceError, ServiceRuntime, Value, Workload,
};

/// Replays `script` (cycling) in dispatch order and counts dispatches.
struct Scripted {
    script: Vec<(u64, bool)>,
    calls: AtomicUsize,
}

impl Scripted {
    fn new(script: Vec<(u64, bool)>) -> Arc<Self> {
        Arc::new(Scripted {
            script,
            calls: AtomicUsize::new(0),
        })
    }
}

impl PlannedProvider for Scripted {
    fn id(&self) -> &str {
        "scripted"
    }

    fn plan(&self, _: &str, _: &[Value], _: &mut SplitMix64) -> PlannedInvoke {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let (latency_ns, ok) = self.script[call % self.script.len()];
        PlannedInvoke {
            latency_ns,
            result: if ok {
                Ok(Value::Null)
            } else {
                Err(ServiceError::Unavailable)
            },
        }
    }
}

fn replay(arrivals: Vec<u64>) -> Workload {
    Workload {
        requests: arrivals.len() as u64,
        arrival: ArrivalProcess::Trace(arrivals),
        operation: "work".into(),
        args: vec![],
    }
}

#[test]
fn a_stale_completion_neither_touches_the_slot_reuser_nor_keeps_its_probe() {
    // One provider whose breaker trips on its first failure and then
    // admits two HalfOpen probes; 1 µs deadlines. Only one request is
    // live at a time until request 3, so each arrival takes the slot
    // its predecessor freed:
    //
    //   t=0     req 0 dispatches call 0 (1 ns, fails); the breaker trips
    //   t=20    req 1 arrives after the cooldown: probe 1 of 2 (1 500 ns)
    //   t=1020  req 1's deadline fires while its probe still flies
    //   t=1100  req 2 takes the freed slot: probe 2 of 2 (800 ns)
    //   t=1520  req 1's probe lands stale: it must not resolve req 2,
    //           and it must hand its probe back...
    //   t=1600  ...so req 3 is admitted instead of shed (500 ns)
    //   t=1900  req 2 resolves on its own attempt
    let provider = Scripted::new(vec![(1, false), (1_500, true), (800, true), (500, true)]);
    let runtime = ServiceRuntime::new(
        vec![provider.clone() as Arc<dyn PlannedProvider>],
        RuntimeConfig {
            policy: RequestPolicy::Single,
            deadline_ns: 1_000,
            max_in_flight: 8,
            queue_capacity: 8,
            breaker: Some(BreakerConfig {
                window: 1,
                failure_pct: 50,
                min_samples: 1,
                cooldown_ns: 10,
                half_open_probes: 2,
                slow_call_ns: 0,
            }),
        },
    );
    let report = runtime.run(&replay(vec![0, 20, 1_100, 1_600]), 1);
    let ok = RequestOutcome::Ok {
        attempt: 0,
        provider: 0,
    };
    let record = |id, arrival_ns, end_ns, outcome| RequestRecord {
        id,
        arrival_ns,
        start_ns: Some(arrival_ns),
        end_ns,
        attempts: 1,
        outcome,
    };
    assert_eq!(
        report.ledger,
        vec![
            record(0, 0, 1, RequestOutcome::Failed),
            record(1, 20, 1_020, RequestOutcome::DeadlineExceeded),
            record(2, 1_100, 1_900, ok),
            record(3, 1_600, 2_100, ok),
        ]
    );
    assert_eq!(provider.calls.load(Ordering::Relaxed), 4);
    assert_eq!((report.breaker_opens, report.breaker_shed), (1, 0));
}

/// Decodes a generated policy: kind, then two small parameters.
fn policy(kind: u8, a: u32, b: u64) -> RequestPolicy {
    match kind {
        0 => RequestPolicy::Single,
        1 => RequestPolicy::Hedged {
            delay_ns: b,
            max_hedges: a,
        },
        _ => RequestPolicy::Failover {
            max_attempts: a + 1,
            backoff: Backoff::Fixed(b),
        },
    }
}

proptest! {
    #[test]
    fn admission_keeps_its_invariants(
        limits in (0u8..3, 1usize..5, 0usize..6, proptest::option::of(1u64..40)),
        knobs in (0u32..3, 0u64..12, any::<bool>()),
        scripts in proptest::collection::vec(
            proptest::collection::vec((1u64..60, 0u8..4), 1..6),
            1..4,
        ),
        gaps in proptest::collection::vec(0u64..12, 1..40),
    ) {
        let (kind, max_in_flight, queue_capacity, deadline) = limits;
        let deadline_ns = deadline.unwrap_or(0);
        let (a, b, breaker) = knobs;
        let providers: Vec<Arc<Scripted>> = scripts
            .into_iter()
            .map(|script| Scripted::new(script.into_iter().map(|(l, v)| (l, v != 0)).collect()))
            .collect();
        let config = RuntimeConfig {
            policy: policy(kind, a, b),
            deadline_ns,
            max_in_flight,
            queue_capacity,
            breaker: breaker.then_some(BreakerConfig {
                window: 4,
                failure_pct: 50,
                min_samples: 2,
                cooldown_ns: 30,
                half_open_probes: 1,
                slow_call_ns: 0,
            }),
        };
        let runtime = ServiceRuntime::new(
            providers.iter().map(|p| p.clone() as Arc<dyn PlannedProvider>).collect(),
            config,
        );
        let arrivals: Vec<u64> = gaps
            .iter()
            .scan(0, |t, gap| {
                *t += gap;
                Some(*t)
            })
            .collect();
        let requests = arrivals.len();
        let report = runtime.run(&replay(arrivals), 7);

        // Every id resolves exactly once.
        let mut by_id = report.ledger.clone();
        by_id.sort_unstable_by_key(|r| r.id);
        prop_assert!(by_id.iter().map(|r| r.id).eq(0..requests as u64));
        // The admission cap and the queue bound hold.
        prop_assert!(report.peak_in_flight <= max_in_flight);
        prop_assert!(report.peak_queue_depth <= queue_capacity);
        // Requests start in arrival (= id) order.
        let starts: Vec<u64> = by_id.iter().filter_map(|r| r.start_ns).collect();
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "starts {:?}", starts);
        for record in &by_id {
            // Nobody starts before arriving or after resolving; a request
            // whose deadline fired never starts afterwards.
            if let Some(start) = record.start_ns {
                prop_assert!(record.arrival_ns <= start && start <= record.end_ns);
            }
            if record.outcome == RequestOutcome::DeadlineExceeded {
                prop_assert_eq!(record.latency_ns(), deadline_ns);
                // Every request shares one budget, so all that queued
                // ahead of this one die no later than it does: it reaches
                // execution before its own deadline fires.
                prop_assert!(record.start_ns.is_some());
            }
        }
        // Every dispatch belongs to a ledger attempt; failover charges
        // an attempt without a dispatch when every breaker refuses.
        let dispatched: usize = providers.iter().map(|p| p.calls.load(Ordering::Relaxed)).sum();
        let attempts: usize = by_id.iter().map(|r| r.attempts as usize).sum();
        if breaker {
            prop_assert!(dispatched <= attempts);
        } else {
            prop_assert_eq!(dispatched, attempts);
        }
        // The four dispositions partition the requests, and the report's
        // tallies agree with the ledger.
        let count = |f: fn(&RequestOutcome) -> bool| {
            by_id.iter().filter(|r| f(&r.outcome)).count() as u64
        };
        prop_assert_eq!(
            report.ok + report.failed + report.rejected + report.deadline_exceeded,
            requests as u64
        );
        prop_assert_eq!(report.ok, count(|o| matches!(o, RequestOutcome::Ok { .. })));
        prop_assert_eq!(report.failed, count(|o| *o == RequestOutcome::Failed));
        prop_assert_eq!(report.rejected, count(|o| *o == RequestOutcome::Rejected));
        prop_assert_eq!(
            report.deadline_exceeded,
            count(|o| *o == RequestOutcome::DeadlineExceeded)
        );
    }
}
