//! Model-based tests of the checkpoint committer ([`CheckpointLog`]).
//!
//! Random interleavings of `record_outcome` and `record_events` calls —
//! traced or untraced, any interval, from nearly in order to fully
//! shuffled — drive the real committer and a reference model side by
//! side, and the committed count must agree after every call. The
//! model is the commit discipline itself: once the contiguous run of
//! ready trials beyond `committed` reaches the interval, the whole run
//! commits, and `finish` commits any run. The finished file must be
//! byte-identical to the one in-order recording writes, and cutting a
//! finished traced file at every byte offset must reopen to a
//! whole-trial committed prefix from which the campaign resumes to the
//! same bytes.
//!
//! Those checks compare the committer with itself. The last test pins
//! the bytes of an untraced NVP campaign's checkpoint, and the prefix a
//! chaos kill leaves, to values recorded with the `writeln!`-formatted
//! committer, so a change to how outcome lines are written or how the
//! file is opened cannot move a byte unnoticed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::cost::Cost;
use redundancy_core::obs::{
    CollectorObserver, CostSnapshot, Event, EventKind, ObsHandle, SpanKind, SpanStatus, Symbol,
    Trace,
};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::rng::SplitMix64;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_sim::{Campaign, ChaosPlan, CheckpointLog, CheckpointSpec, RunSpec, TrialOutcome};

/// Campaign seed pinned in every checkpoint header here.
const SEED: u64 = 0x5eed;

/// One committer call.
#[derive(Debug, Clone, Copy)]
enum Call {
    Events(usize),
    Outcome(usize),
}

/// The reference model: which trials a correct committer has made
/// durable after a sequence of calls.
struct Model {
    traced: bool,
    interval: usize,
    committed: usize,
    events: Vec<bool>,
    outcomes: Vec<bool>,
}

impl Model {
    fn new(trials: usize, traced: bool, interval: usize) -> Self {
        Model {
            traced,
            interval,
            committed: 0,
            events: vec![false; trials],
            outcomes: vec![false; trials],
        }
    }

    /// Ready trials contiguous with the committed prefix.
    fn ready_run(&self) -> usize {
        (self.committed..self.outcomes.len())
            .take_while(|&i| self.outcomes[i] && (!self.traced || self.events[i]))
            .count()
    }

    fn record(&mut self, call: Call) {
        match call {
            Call::Events(i) => self.events[i] = true,
            Call::Outcome(i) => self.outcomes[i] = true,
        }
        let run = self.ready_run();
        if run >= self.interval {
            self.committed += run;
        }
    }

    fn finish(&mut self) -> usize {
        self.committed += self.ready_run();
        self.committed
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "redundancy_ckpt_model_{name}_{}",
        std::process::id()
    ))
}

fn outcome(i: usize) -> TrialOutcome {
    let cost = Cost {
        work_units: 10 + i as u64,
        virtual_ns: 100 + i as u64,
        invocations: 1 + (i % 4) as u64,
        design_cost: 0.1 * i as f64,
    };
    match i % 3 {
        0 => TrialOutcome::Correct { cost },
        1 => TrialOutcome::Detected { cost },
        _ => TrialOutcome::Undetected { cost },
    }
}

/// Each trial's slice of one campaign-wide stream (span ids shared, as
/// the merger tap hands them over), of varying length.
fn trial_events(trials: usize) -> Vec<Vec<Event>> {
    let collector = Arc::new(CollectorObserver::new());
    let mut trace = Trace::attached(ObsHandle::new(collector.clone()));
    let name = Symbol::intern("model-variant");
    (0..trials)
        .map(|i| {
            let trial = trace.begin_span(0, || SpanKind::Trial {
                index: i as u64,
                seed: i as u64,
            });
            for k in 0..i % 3 {
                let variant = trace.begin_span(k as u64, || SpanKind::Variant { name });
                trace.end_span(variant, k as u64 + 1, SpanStatus::Ok, CostSnapshot::ZERO);
            }
            trace.end_span(
                trial,
                9,
                SpanStatus::Trial {
                    disposition: outcome(i).disposition(),
                },
                CostSnapshot::ZERO,
            );
            collector.take()
        })
        .collect()
}

fn apply(log: &CheckpointLog, call: Call, events: &[Vec<Event>]) {
    match call {
        Call::Events(i) => log.record_events(i, &events[i]),
        Call::Outcome(i) => log.record_outcome(i, &outcome(i)),
    }
}

/// Every call of a campaign (an outcome per trial, plus its events when
/// traced) in a random order: each call's in-order position is jittered
/// by up to `disorder` slots, so small values stay nearly in order and
/// large ones shuffle freely.
fn interleaving(trials: usize, traced: bool, disorder: u64, seed: u64) -> Vec<Call> {
    let mut rng = SplitMix64::new(seed);
    let mut keyed: Vec<(u64, usize, Call)> = (0..trials)
        .flat_map(|i| {
            let events = traced.then_some(Call::Events(i));
            events.into_iter().chain([Call::Outcome(i)])
        })
        .enumerate()
        .map(|(pos, call)| (pos as u64 + rng.range_u64(0, disorder), pos, call))
        .collect();
    keyed.sort_by_key(|&(key, pos, _)| (key, pos));
    keyed.into_iter().map(|(_, _, call)| call).collect()
}

/// The file in-order recording writes: each trial's events, then its
/// outcome, trial by trial.
fn in_order_file(path: &Path, traced: bool, interval: usize, events: &[Vec<Event>]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let spec = CheckpointSpec::new(path, interval);
    let (log, _) = CheckpointLog::open(&spec, SEED, events.len(), traced).expect("fresh file");
    for (i, trial) in events.iter().enumerate() {
        if traced {
            log.record_events(i, trial);
        }
        log.record_outcome(i, &outcome(i));
    }
    assert_eq!(log.finish().expect("in-order recording"), events.len());
    let bytes = std::fs::read(path).expect("written");
    let _ = std::fs::remove_file(path);
    bytes
}

proptest! {
    #[test]
    fn committer_matches_the_reference_model(
        trials in 1usize..40,
        interval in 1usize..10,
        traced in any::<bool>(),
        disorder in 1u64..64,
        seed in any::<u64>(),
    ) {
        let events = trial_events(trials);
        let path = temp_path("interleaved");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, interval);
        let (log, resumed) = CheckpointLog::open(&spec, SEED, trials, traced).expect("fresh file");
        prop_assert!(resumed.outcomes.is_empty());

        let mut model = Model::new(trials, traced, interval);
        for call in interleaving(trials, traced, disorder, seed) {
            apply(&log, call, &events);
            model.record(call);
            prop_assert_eq!(log.committed(), model.committed, "after {:?}", call);
        }
        prop_assert_eq!(log.finish().expect("no i/o error"), model.finish());
        prop_assert_eq!(model.committed, trials);

        let written = std::fs::read(&path).expect("written");
        let _ = std::fs::remove_file(&path);
        let expected = in_order_file(&temp_path("in_order"), traced, interval, &events);
        prop_assert!(
            written == expected,
            "interleaved file differs from in-order recording:\n{}\n---\n{}",
            String::from_utf8_lossy(&written),
            String::from_utf8_lossy(&expected)
        );
    }
}

#[test]
fn every_truncation_of_a_traced_file_resumes_a_whole_trial_prefix() {
    let (trials, interval) = (7, 2);
    let events = trial_events(trials);
    let path = temp_path("truncated");
    let full = in_order_file(&path, true, interval, &events);
    // Byte offset just past each trial's outcome line.
    let mut outcome_ends = Vec::new();
    let mut offset = 0;
    for line in full.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.starts_with(b"{\"kind\":\"trial\"") {
            outcome_ends.push(offset);
        }
    }
    assert_eq!(outcome_ends.len(), trials);

    let spec = CheckpointSpec::new(&path, interval);
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("write cut file");
        // A cut only ever tears the tail, so there is nothing for the
        // loader to refuse: it must resume exactly the whole trials
        // before the cut — never fewer, never with a gap.
        let (log, resumed) = CheckpointLog::open(&spec, SEED, trials, true)
            .unwrap_or_else(|err| panic!("cut at {cut}: {err}"));
        let whole = outcome_ends.iter().filter(|&&end| end <= cut).count();
        let expected: Vec<TrialOutcome> = (0..whole).map(outcome).collect();
        assert_eq!(resumed.outcomes, expected, "cut at {cut}");
        let prefix = events[..whole].concat();
        let spans = prefix
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanStart { .. }))
            .count() as u64;
        assert_eq!(resumed.events, prefix, "cut at {cut}");
        assert_eq!(resumed.span_offset, spans, "cut at {cut}");

        // Resuming from the prefix converges on the uninterrupted file.
        for (i, trial) in events.iter().enumerate().skip(whole) {
            log.record_events(i, trial);
            log.record_outcome(i, &outcome(i));
        }
        assert_eq!(log.finish().expect("resumed run"), trials, "cut at {cut}");
        assert!(
            std::fs::read(&path).expect("resumed file") == full,
            "cut at {cut}: resumed file differs from the uninterrupted one"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Campaign seed, trial count (a partial last batch) and commit interval
/// of the pinned untraced campaign.
const PINNED: (u64, usize, usize) = (11, 3_001, 32);

/// Length and FNV-1a digest of the checkpoint file the pinned untraced
/// NVP campaign writes.
const UNTRACED_BYTES: (usize, u64) = (422_598, 0x00bd_61bf_1ce8_e229);

/// Trials a serial run of the pinned campaign has committed when a chaos
/// kill strikes after [`KILLED_TRIAL`]: the first batch only.
const COMMITTED_AFTER_KILL: usize = 32;

/// The trial the chaos case kills the worker after, inside the second
/// commit batch.
const KILLED_TRIAL: usize = 40;

/// The benchmark's NVP ensemble: three Bohrbug-carrying versions whose
/// wrong outputs disagree, voted by `MajorityVoter`.
fn nvp_pattern() -> ParallelEvaluation<u64, u64> {
    let plan = FaultPlan::bohrbugs(7, 3, 0.25);
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            25,
            |x| x * 2,
            move |c, _| c + shift,
        ));
        pattern.push_variant(variant);
    }
    pattern
}

fn nvp_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    seed: u64,
) -> TrialOutcome {
    let input = seed >> 8;
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == input * 2 => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

/// Length and FNV-1a digest of the file at `path`, which is then removed.
fn take_digest(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("checkpoint written");
    let _ = std::fs::remove_file(path);
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (bytes.len(), digest)
}

#[test]
fn untraced_campaign_checkpoints_keep_their_pinned_bytes() {
    let (seed, trials, interval) = PINNED;
    let pattern = nvp_pattern();
    let campaign = Campaign::new(trials);
    let path = temp_path("pinned");
    let spec = CheckpointSpec::new(&path, interval);
    let run = |jobs: usize, chaos: Option<&ChaosPlan>| {
        let spec = RunSpec {
            jobs,
            checkpoint: Some(&spec),
            chaos,
            ..RunSpec::default()
        };
        catch_unwind(AssertUnwindSafe(|| {
            campaign
                .execute(seed, &spec, |ctx, s, _| nvp_trial(&pattern, ctx, s))
                .expect("checkpoint i/o")
        }))
    };

    let _ = std::fs::remove_file(&path);
    let summary = run(1, None).expect("no fault injected");
    assert_eq!(
        take_digest(&path),
        UNTRACED_BYTES,
        "checkpoint bytes at jobs=1"
    );
    for jobs in [2, 8] {
        let got = run(jobs, None).expect("no fault injected");
        assert_eq!(got, summary, "jobs={jobs}");
        assert_eq!(
            take_digest(&path),
            UNTRACED_BYTES,
            "checkpoint bytes at jobs={jobs}"
        );
    }

    // A serial run commits in trial order: the kill leaves exactly the
    // batches completed before it, and resuming converges on the
    // uninterrupted file.
    let chaos = ChaosPlan::new(3).kill_after_trial(KILLED_TRIAL);
    let payload = run(1, Some(&chaos)).expect_err("the chaos plan kills the run");
    assert!(ChaosPlan::is_chaos_panic(&*payload));
    let (log, resumed) =
        CheckpointLog::open(&spec, seed, trials, false).expect("checkpoint readable");
    assert_eq!(log.committed(), COMMITTED_AFTER_KILL);
    assert_eq!(resumed.outcomes.len(), COMMITTED_AFTER_KILL);
    drop(log);
    let got = run(1, Some(&chaos)).expect("the kill fires once");
    assert_eq!(got, summary, "resumed run");
    assert_eq!(
        take_digest(&path),
        UNTRACED_BYTES,
        "resumed checkpoint bytes"
    );
}
