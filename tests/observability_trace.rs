//! Integration test for the observability layer: a seed-pinned NVP
//! campaign over a [`FaultPlan`] must produce an exactly reproducible
//! event stream, and the recorded trace must reconstruct, per trial,
//! every variant outcome, the adjudicator's verdict (with rejection
//! reasons), and the total fuel/cost.
//!
//! Everything asserted here is a pure function of `PLAN_SEED`,
//! `DENSITY` and `CAMPAIGN_SEED`; if any pinned value drifts, the
//! deterministic-replay guarantee broke.
//!
//! [`FaultPlan`]: redundancy::faults::FaultPlan

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use redundancy::core::adjudicator::voting::MajorityVoter;
use redundancy::core::context::ExecContext;
use redundancy::core::patterns::{ExecutionMode, ParallelEvaluation};
use redundancy::core::variant::BoxedVariant;
use redundancy::faults::FaultPlan;
use redundancy::obs::{
    CostSnapshot, Event, EventKind, Observer, Point, RingBufferObserver, SpanKind, SpanStatus,
    TraceSummary,
};
use redundancy::sim::trial::{Campaign, TrialOutcome, TrialSummary};
use redundancy::sim::{parallel_indexed, split_trials, TrialTrace};

const PLAN_SEED: u64 = 4;
const DENSITY: f64 = 0.45;
const CAMPAIGN_SEED: u64 = 2008;
const TRIALS: usize = 6;
const WORK: u64 = 10;

/// Events per trial: trial span + pattern span + 3 variant spans
/// (2 events each) + 1 verdict point.
const EVENTS_PER_TRIAL: usize = 11;

/// The cost every variant execution charges under this plan.
const VARIANT_COST: CostSnapshot = CostSnapshot {
    work_units: WORK,
    virtual_ns: WORK,
    invocations: 1,
    design_cost: 1.0,
};

/// Per-trial total: three variants of parallel work; the virtual clock
/// advances by the critical path (one variant), not the sum.
const TRIAL_COST: CostSnapshot = CostSnapshot {
    work_units: 3 * WORK,
    virtual_ns: WORK,
    invocations: 3,
    design_cost: 3.0,
};

fn golden(x: &u64) -> u64 {
    x * 2
}

/// Three NVP versions, each with its own Bohrbug assigned by the plan.
/// Corruptors are per-slot (`+1001·(slot+1)`): wrong outputs are silent
/// — the case majority voting exists for — but wrong outputs from
/// *different* versions disagree, so a corrupted majority never forms.
fn nvp_from_plan(plan: &FaultPlan) -> ParallelEvaluation<u64, u64> {
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            WORK,
            golden,
            move |c, _| c + shift,
        ));
        pattern.push_variant(variant);
    }
    pattern
}

/// Classifies one NVP trial; shared verbatim by the serial and parallel
/// campaign drivers so any summary/stream divergence is the engine's.
fn nvp_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    i: usize,
) -> TrialOutcome {
    let input = i as u64;
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

fn run_campaign(observer: Arc<dyn Observer>) -> TrialSummary {
    let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
    let pattern = nvp_from_plan(&plan);
    Campaign::new(TRIALS).run_traced(CAMPAIGN_SEED, observer, |ctx, _seed, i| {
        nvp_trial(&pattern, ctx, i)
    })
}

fn run_campaign_parallel(jobs: usize, observer: Arc<dyn Observer>) -> TrialSummary {
    let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
    let pattern = nvp_from_plan(&plan);
    Campaign::new(TRIALS).run_traced_parallel(CAMPAIGN_SEED, jobs, observer, |ctx, _seed, i| {
        nvp_trial(&pattern, ctx, i)
    })
}

#[test]
fn traced_nvp_campaign_emits_the_exact_pinned_event_sequence() {
    let ring = RingBufferObserver::shared(1 << 14);
    let summary = run_campaign(ring.clone());
    let events = ring.events();

    // Five trials outvote their single corrupted version; in trial 2 two
    // versions corrupt the input (with disagreeing outputs), so the vote
    // correctly refuses to pick an output — a detected failure.
    assert_eq!(summary.reliability.successes, 5);
    assert_eq!(summary.detected.successes, 1);
    assert_eq!(summary.undetected.successes, 0);

    assert_eq!(events.len(), TRIALS * EVENTS_PER_TRIAL);
    assert_eq!(ring.dropped(), 0, "capture window must not evict");

    // The full event sequence of trial 0, pinned field by field.
    let expected_trial0 = [
        Event {
            seq: 0,
            span: 1,
            parent: 0,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Trial {
                    index: 0,
                    seed: Campaign::trial_seed(CAMPAIGN_SEED, 0),
                },
            },
        },
        Event {
            seq: 1,
            span: 2,
            parent: 1,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Pattern {
                    name: "parallel_evaluation",
                },
            },
        },
        Event {
            seq: 2,
            span: 3,
            parent: 2,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Variant { name: "v0".into() },
            },
        },
        Event {
            seq: 3,
            span: 3,
            parent: 2,
            clock: 10,
            kind: EventKind::SpanEnd {
                status: SpanStatus::Ok,
                cost: VARIANT_COST,
            },
        },
        Event {
            seq: 4,
            span: 4,
            parent: 2,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Variant { name: "v1".into() },
            },
        },
        Event {
            seq: 5,
            span: 4,
            parent: 2,
            clock: 10,
            kind: EventKind::SpanEnd {
                status: SpanStatus::Ok,
                cost: VARIANT_COST,
            },
        },
        Event {
            seq: 6,
            span: 5,
            parent: 2,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Variant { name: "v2".into() },
            },
        },
        Event {
            seq: 7,
            span: 5,
            parent: 2,
            clock: 10,
            kind: EventKind::SpanEnd {
                status: SpanStatus::Ok,
                cost: VARIANT_COST,
            },
        },
        Event {
            seq: 8,
            span: 2,
            parent: 2,
            clock: 10,
            kind: EventKind::Point(Point::Verdict {
                accepted: true,
                support: 2,
                dissent: 1,
                rejection: None,
            }),
        },
        Event {
            seq: 9,
            span: 2,
            parent: 1,
            clock: 10,
            kind: EventKind::SpanEnd {
                status: SpanStatus::Accepted {
                    support: 2,
                    dissent: 1,
                },
                cost: TRIAL_COST,
            },
        },
        Event {
            seq: 10,
            span: 1,
            parent: 0,
            clock: 10,
            kind: EventKind::SpanEnd {
                status: SpanStatus::Trial {
                    disposition: "correct",
                },
                cost: TRIAL_COST,
            },
        },
    ];
    assert_eq!(&events[..EVENTS_PER_TRIAL], &expected_trial0[..]);
}

#[test]
fn identical_seeds_produce_identical_event_streams() {
    let ring_a = RingBufferObserver::shared(1 << 14);
    let ring_b = RingBufferObserver::shared(1 << 14);
    let summary_a = run_campaign(ring_a.clone());
    let summary_b = run_campaign(ring_b.clone());
    assert_eq!(summary_a, summary_b);
    assert_eq!(ring_a.events(), ring_b.events(), "event streams diverged");
}

#[test]
fn trace_reconstructs_every_trial() {
    let ring = RingBufferObserver::shared(1 << 14);
    let _ = run_campaign(ring.clone());
    let traces = split_trials(&ring.events());
    assert_eq!(traces.len(), TRIALS);

    let expected_dispositions = [
        "correct", "correct", "detected", "correct", "correct", "correct",
    ];
    for (i, trace) in traces.iter().enumerate() {
        assert_eq!(trace.index, i as u64);
        assert_eq!(trace.seed, Campaign::trial_seed(CAMPAIGN_SEED, i));
        assert_eq!(trace.disposition, expected_dispositions[i]);

        // Every variant outcome is reconstructable. Bohrbug corruption is
        // *silent*: all three executions conclude Ok with identical cost,
        // and only the adjudicator (below) tells good from corrupt.
        let variants = trace.variants();
        assert_eq!(variants.len(), 3);
        for (slot, variant) in variants.iter().enumerate() {
            assert_eq!(variant.name, format!("v{slot}"));
            assert_eq!(variant.status, SpanStatus::Ok);
            assert_eq!(variant.cost, VARIANT_COST);
        }

        // The adjudicator's verdict — and its reason when it rejected.
        let verdicts = trace.verdicts();
        assert_eq!(verdicts.len(), 1);
        if trace.disposition == "correct" {
            assert!(verdicts[0].accepted);
            assert_eq!((verdicts[0].support, verdicts[0].dissent), (2, 1));
            assert!(trace.rejection_reasons().is_empty());
        } else {
            assert!(!verdicts[0].accepted);
            assert_eq!(trace.rejection_reasons(), vec!["no_quorum"]);
        }

        // Total fuel/cost of the trial.
        assert_eq!(trace.cost, TRIAL_COST);
    }
}

#[test]
fn parallel_traced_campaign_reproduces_the_serial_stream_bit_for_bit() {
    let serial_ring = RingBufferObserver::shared(1 << 14);
    let serial_summary = run_campaign(serial_ring.clone());
    let serial_events = serial_ring.events();

    for jobs in [1, 2, 8] {
        let ring = RingBufferObserver::shared(1 << 14);
        let summary = run_campaign_parallel(jobs, ring.clone());
        assert_eq!(serial_summary, summary, "summary diverged at jobs={jobs}");
        assert_eq!(
            serial_events,
            ring.events(),
            "event stream diverged at jobs={jobs}"
        );
    }
}

#[test]
fn parallel_traced_campaign_reconstructs_the_same_trial_traces() {
    let serial_ring = RingBufferObserver::shared(1 << 14);
    let _ = run_campaign(serial_ring.clone());
    let serial_traces = split_trials(&serial_ring.events());

    let ring = RingBufferObserver::shared(1 << 14);
    let _ = run_campaign_parallel(4, ring.clone());
    let traces = split_trials(&ring.events());

    assert_eq!(serial_traces, traces);
    assert_eq!(traces.len(), TRIALS);
    // Spot-check the merged stream is forensically sound on its own
    // terms, not just equal: trial indices and seeds are in order.
    for (i, trace) in traces.iter().enumerate() {
        assert_eq!(trace.index, i as u64);
        assert_eq!(trace.seed, Campaign::trial_seed(CAMPAIGN_SEED, i));
    }
}

#[test]
fn trace_summary_aggregates_the_campaign() {
    let ring = RingBufferObserver::shared(1 << 14);
    let _ = run_campaign(ring.clone());
    let summary = TraceSummary::from_events(&ring.events());

    assert_eq!(summary.events, TRIALS * EVENTS_PER_TRIAL);
    assert_eq!(summary.spans_closed, TRIALS * 5);
    assert_eq!(summary.spans_open, 0);
    assert_eq!(summary.accepted, 5);
    assert_eq!(summary.rejected.get("no_quorum"), Some(&1));
    assert!(summary.failed.is_empty());
    assert_eq!(summary.points.get("verdict"), Some(&TRIALS));

    // Roots of the trace are the trial spans, so the summed cost is the
    // per-trial total times the campaign size.
    let n = TRIALS as u64;
    assert_eq!(summary.total_cost.work_units, n * TRIAL_COST.work_units);
    assert_eq!(summary.total_cost.virtual_ns, n * TRIAL_COST.virtual_ns);
    assert_eq!(summary.total_cost.invocations, n * TRIAL_COST.invocations);
}

/// Asserts that a trial's events form a well-formed span tree: the trial
/// span opens first, under the root, and closes last; every other span
/// opens under a span that is still open and closes once, after its
/// children; every point sits in an open span; `seq` has no gaps.
fn assert_well_formed(trace: &TrialTrace) {
    let events = &trace.events;
    let trial_span = events[0].span;
    assert_eq!(
        events[0].parent, 0,
        "trial {} opens under the root",
        trace.index
    );
    let mut open = BTreeSet::new();
    for (k, event) in events.iter().enumerate() {
        assert_eq!(
            event.seq,
            events[0].seq + k as u64,
            "trial {}: seq gap",
            trace.index
        );
        match event.kind {
            EventKind::SpanStart { .. } => {
                assert!(
                    k == 0 || open.contains(&event.parent),
                    "trial {}: span {} opens under closed span {}",
                    trace.index,
                    event.span,
                    event.parent
                );
                assert!(open.insert(event.span), "span {} opened twice", event.span);
            }
            EventKind::SpanEnd { .. } => {
                assert!(
                    open.remove(&event.span),
                    "span {} closed unopened",
                    event.span
                );
                assert!(
                    event.span != trial_span || open.is_empty(),
                    "trial {}: the trial span closed before its children",
                    trace.index
                );
            }
            EventKind::Point(_) => assert!(open.contains(&event.span), "point outside a span"),
        }
    }
    assert!(open.is_empty(), "trial {}: spans left open", trace.index);
}

#[test]
fn threaded_traced_campaign_matches_the_sequential_run() {
    let sequential_ring = RingBufferObserver::shared(1 << 14);
    let sequential = run_campaign(sequential_ring.clone());
    let sequential_stream = redundancy::obs::to_jsonl(&sequential_ring.events());

    // Variant threads record into their own forked contexts, which the
    // pattern joins in variant order: the stream is the sequential one,
    // byte for byte, whatever the thread schedule.
    let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
    let pattern = nvp_from_plan(&plan).with_mode(ExecutionMode::Threaded);
    for jobs in [1, 2] {
        let ring = RingBufferObserver::shared(1 << 14);
        let summary = Campaign::new(TRIALS).run_traced_parallel(
            CAMPAIGN_SEED,
            jobs,
            ring.clone(),
            |ctx, _seed, i| nvp_trial(&pattern, ctx, i),
        );
        assert_eq!(sequential, summary, "summary at jobs={jobs}");
        let events = ring.events();
        for trace in &split_trials(&events) {
            assert_well_formed(trace);
        }
        assert_eq!(
            sequential_stream,
            redundancy::obs::to_jsonl(&events),
            "stream at jobs={jobs}"
        );
    }
}

thread_local! {
    /// Trials running on this thread right now (see below).
    static TRIALS_ON_THREAD: Cell<usize> = const { Cell::new(0) };
}

#[test]
fn traced_campaign_with_nested_regions_reproduces_the_serial_stream() {
    let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
    let pattern = nvp_from_plan(&plan);
    let reentered = AtomicUsize::new(0);
    // Each trial opens a nested region first. While its thread waits on
    // that region, the pool's help-drain may run outer trials of the
    // same campaign on it: trials inside a trial, each recording into a
    // trace of its own.
    let trial = |ctx: &mut ExecContext, _seed: u64, i: usize| {
        let depth = TRIALS_ON_THREAD.replace(TRIALS_ON_THREAD.get() + 1);
        if depth > 0 {
            reentered.fetch_add(1, Ordering::Relaxed);
        }
        let doubled = parallel_indexed(2, 2, |k| 2 * k);
        assert_eq!(doubled, [0, 2]);
        let outcome = nvp_trial(&pattern, ctx, i);
        TRIALS_ON_THREAD.set(depth);
        outcome
    };
    let serial_ring = RingBufferObserver::shared(1 << 14);
    let serial = Campaign::new(TRIALS).run_traced(CAMPAIGN_SEED, serial_ring.clone(), trial);
    let serial_stream = redundancy::obs::to_jsonl(&serial_ring.events());
    assert_eq!(reentered.load(Ordering::Relaxed), 0);

    // Whether help-drain picks up an outer trial depends on the pool's
    // timing: run until it has, checking every run.
    for _ in 0..50 {
        let ring = RingBufferObserver::shared(1 << 14);
        let summary =
            Campaign::new(TRIALS).run_traced_parallel(CAMPAIGN_SEED, 2, ring.clone(), trial);
        assert_eq!(serial, summary);
        assert_eq!(serial_stream, redundancy::obs::to_jsonl(&ring.events()));
        if reentered.load(Ordering::Relaxed) > 0 {
            return;
        }
    }
    panic!("no outer trial ran inside another in 50 campaigns");
}

/// How long the nested-region campaign below may take before it counts
/// as deadlocked; it finishes in well under a second.
const NESTED_CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn traced_campaign_longer_than_its_merge_window_with_nested_regions_finishes() {
    // 2 000 trials at jobs = 2 give a merge window far below the
    // campaign. While a trial waits on its nested region, the pool's
    // help-drain runs later trials of the same campaign above it on the
    // same thread; one of them landing a window past the suspended
    // frontier trial must not wait for it.
    const LONG: usize = 2_000;
    let trial = |pattern: &ParallelEvaluation<u64, u64>, ctx: &mut ExecContext, i: usize| {
        let doubled = parallel_indexed(2, 2, |k| 2 * k);
        assert_eq!(doubled, [0, 2]);
        nvp_trial(pattern, ctx, i)
    };
    // The campaign runs first, on a thread of its own, under a watchdog:
    // a deadlock fails the test instead of hanging the binary.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
        let pattern = nvp_from_plan(&plan);
        let ring = RingBufferObserver::shared(1 << 15);
        let summary =
            Campaign::new(LONG).run_traced_parallel(CAMPAIGN_SEED, 2, ring.clone(), |ctx, _, i| {
                trial(&pattern, ctx, i)
            });
        let _ = done.send((summary, redundancy::obs::to_jsonl(&ring.events())));
    });
    let (summary, stream) = match finished.recv_timeout(NESTED_CAMPAIGN_TIMEOUT) {
        Ok(done) => done,
        Err(RecvTimeoutError::Timeout) => {
            panic!("the traced campaign did not finish in {NESTED_CAMPAIGN_TIMEOUT:?}: deadlock")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("the traced campaign panicked"),
    };

    let plan = FaultPlan::bohrbugs(PLAN_SEED, 3, DENSITY);
    let pattern = nvp_from_plan(&plan);
    let serial_ring = RingBufferObserver::shared(1 << 15);
    let serial = Campaign::new(LONG).run_traced(CAMPAIGN_SEED, serial_ring.clone(), |ctx, _, i| {
        trial(&pattern, ctx, i)
    });
    assert_eq!(serial, summary);
    assert_eq!(redundancy::obs::to_jsonl(&serial_ring.events()), stream);
}
