//! Traced campaigns hand their merger **runs** of consecutive trials,
//! recorded back to back on one worker's trace. Wherever a run is cut —
//! at a chunk end, at the trial cap, at a checkpoint commit boundary,
//! around a nested region or by a chaos kill — the sink
//! must receive the serial `run_traced` stream byte for byte, the
//! summary must not move, and a traced checkpoint must hold the same
//! bytes and commit the same prefix as when every trial was handed over
//! on its own.
//!
//! The checkpoint digest and the committed prefix below were recorded by
//! running this file against the trial-at-a-time runner (one hand-off
//! per trial) before runs were introduced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{to_jsonl, Event, EventKind, Observer, SpanKind};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_sim::trial::RUN_TRIALS;
use redundancy_sim::{
    chunk_size, parallel_indexed, Campaign, ChaosPlan, CheckpointLog, CheckpointSpec, RunSpec,
    TrialOutcome, TrialSummary,
};

const SEED: u64 = 2008;

/// Checkpoint commit interval of the checkpointed cases.
const INTERVAL: usize = 8;

/// Length and FNV-1a digest of the checkpoint file a traced, uninterrupted
/// 300-trial NVP campaign with commit interval 8 writes.
const CHECKPOINT_BYTES: (usize, u64) = (426_533, 8_485_114_977_649_308_033);

/// Trials a serial traced campaign (300 NVP trials, interval 8) has
/// committed when a chaos kill strikes just after trial 12.
const COMMITTED_AFTER_KILL: usize = 8;

/// The trial the chaos cases kill the worker after: inside the second
/// commit batch, before the trial cap would end its run, so a run that
/// ran on past the commit boundary would leave nothing committed.
const KILLED_TRIAL: usize = 12;

fn golden(x: &u64) -> u64 {
    x * 2
}

/// The benchmark's NVP ensemble: three Bohrbug-carrying versions whose
/// wrong outputs disagree.
fn nvp_pattern() -> ParallelEvaluation<u64, u64> {
    let plan = FaultPlan::bohrbugs(7, 3, 0.25);
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            25,
            golden,
            move |c, _| c + shift,
        ));
        pattern.push_variant(variant);
    }
    pattern
}

/// Which trial a case runs.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One NVP run: 11 events per trial.
    Nvp,
    /// An NVP run after a nested two-item parallel region, during which
    /// the pool's help-drain may run other trials above this one.
    Nested,
}

fn run_trial(
    shape: Shape,
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    seed: u64,
) -> TrialOutcome {
    if let Shape::Nested = shape {
        assert_eq!(parallel_indexed(2, 2, |k| 2 * k), [0, 2]);
    }
    let input = seed >> 8;
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

/// A sink that numbers events as a collector does and notes how many
/// trials each batch it receives carries.
#[derive(Default)]
struct RunSink {
    events: Mutex<Vec<Event>>,
    runs: Mutex<Vec<usize>>,
}

impl RunSink {
    fn stream(&self) -> String {
        to_jsonl(&self.events.lock().unwrap())
    }

    fn runs(&self) -> Vec<usize> {
        self.runs.lock().unwrap().clone()
    }
}

impl Observer for RunSink {
    fn record(&self, event: Event) {
        self.record_batch(&[event]);
    }

    fn record_batch(&self, events: &[Event]) {
        if events.is_empty() {
            // The replay of an empty checkpoint prefix.
            return;
        }
        let mut all = self.events.lock().unwrap();
        let first = all.len() as u64;
        all.extend(
            events
                .iter()
                .zip(first..)
                .map(|(&event, seq)| Event { seq, ..event }),
        );
        let trials = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::SpanStart {
                        kind: SpanKind::Trial { .. }
                    }
                )
            })
            .count();
        self.runs.lock().unwrap().push(trials);
    }
}

/// The serial reference: summary and stream of `run_traced`.
fn serial(shape: Shape, trials: usize) -> (TrialSummary, String) {
    let pattern = nvp_pattern();
    let sink = Arc::new(RunSink::default());
    let summary = Campaign::new(trials).run_traced(SEED, sink.clone(), |ctx, seed, _| {
        run_trial(shape, &pattern, ctx, seed)
    });
    (summary, sink.stream())
}

/// One `execute` attempt into a fresh sink, as a restarted process
/// would make it.
fn attempt(
    shape: Shape,
    trials: usize,
    jobs: usize,
    checkpoint: Option<&CheckpointSpec>,
    chaos: Option<&ChaosPlan>,
) -> std::thread::Result<(TrialSummary, Arc<RunSink>)> {
    let pattern = nvp_pattern();
    let sink = Arc::new(RunSink::default());
    let spec = RunSpec {
        jobs,
        observer: Some(sink.clone()),
        checkpoint,
        chaos,
    };
    catch_unwind(AssertUnwindSafe(|| {
        Campaign::new(trials)
            .execute(SEED, &spec, |ctx, seed, _| {
                run_trial(shape, &pattern, ctx, seed)
            })
            .expect("checkpoint i/o")
    }))
    .map(|summary| (summary, sink))
}

/// The runs a single worker cuts `trials` trials into, by the rule the
/// traced runner documents: a run ends at a chunk end, at `RUN_TRIALS`
/// trials, and every `commit_every` trials.
fn expected_runs(trials: usize, commit_every: usize) -> Vec<usize> {
    let chunk = chunk_size(trials, 1);
    let mut runs = Vec::new();
    let mut open = 0;
    for k in 0..trials {
        open += 1;
        if (k + 1) % chunk == 0
            || k + 1 == trials
            || (k + 1) % commit_every == 0
            || open == RUN_TRIALS
        {
            runs.push(open);
            open = 0;
        }
    }
    runs
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "redundancy_trace_runs_{tag}_{}.ckpt",
        std::process::id()
    ))
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn serial_runs_end_where_documented_and_keep_the_stream() {
    // 300 trials: chunks of 75, cut by the trial cap then the chunk end.
    let trials = 300;
    let (summary, stream) = serial(Shape::Nvp, trials);
    let (got, sink) = attempt(Shape::Nvp, trials, 1, None, None).expect("no fault injected");
    assert_eq!(summary, got);
    assert_eq!(stream, sink.stream());
    let expected = expected_runs(trials, usize::MAX);
    assert_eq!(sink.runs(), expected);
    assert!(expected.contains(&RUN_TRIALS));
    assert!(
        expected.contains(&(75 % RUN_TRIALS)),
        "a chunk end cuts a run short"
    );
}

#[test]
fn parallel_runs_reproduce_the_serial_stream() {
    for (shape, trials) in [(Shape::Nvp, 300), (Shape::Nested, 200)] {
        let (summary, stream) = serial(shape, trials);
        for jobs in [1, 2, 8] {
            let (got, sink) = attempt(shape, trials, jobs, None, None).expect("no fault injected");
            assert_eq!(summary, got, "{shape:?} at jobs={jobs}");
            assert_eq!(stream, sink.stream(), "{shape:?} at jobs={jobs}");
            let runs = sink.runs();
            assert_eq!(runs.iter().sum::<usize>(), trials);
            assert!(runs.iter().all(|&run| (1..=RUN_TRIALS).contains(&run)));
        }
    }
}

#[test]
fn traced_checkpoints_keep_their_bytes_and_commit_points() {
    let trials = 300;
    let (summary, stream) = serial(Shape::Nvp, trials);
    for jobs in [1, 2, 8] {
        let path = temp_path(&format!("bytes_{jobs}"));
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, INTERVAL);
        let (got, sink) =
            attempt(Shape::Nvp, trials, jobs, Some(&spec), None).expect("no fault injected");
        assert_eq!(summary, got, "jobs={jobs}");
        assert_eq!(stream, sink.stream(), "jobs={jobs}");
        if jobs == 1 {
            // Every commit boundary ends a run.
            assert_eq!(sink.runs(), expected_runs(trials, INTERVAL));
        }
        let bytes = std::fs::read(&path).expect("checkpoint written");
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            CHECKPOINT_BYTES,
            "checkpoint bytes at jobs={jobs}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_chaos_kill_mid_run_resumes_to_the_serial_stream() {
    let trials = 300;
    let (summary, stream) = serial(Shape::Nvp, trials);
    for jobs in [1, 2, 8] {
        let path = temp_path(&format!("kill_{jobs}"));
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, INTERVAL);
        let chaos = ChaosPlan::new(3).kill_after_trial(KILLED_TRIAL);
        let mut kills = 0;
        let (got, sink) = loop {
            match attempt(Shape::Nvp, trials, jobs, Some(&spec), Some(&chaos)) {
                Ok(done) => break done,
                Err(payload) => assert!(ChaosPlan::is_chaos_panic(&*payload), "jobs={jobs}"),
            }
            kills += 1;
            if jobs == 1 {
                // The serial run commits in trial order: the kill leaves
                // exactly the batches completed before it.
                let (_, resumed) =
                    CheckpointLog::open(&spec, SEED, trials, true).expect("checkpoint readable");
                assert_eq!(resumed.outcomes.len(), COMMITTED_AFTER_KILL);
            }
            assert!(kills <= 2, "jobs={jobs}: chaos never converged");
        };
        assert_eq!(kills, 1, "jobs={jobs}");
        assert_eq!(summary, got, "jobs={jobs}");
        assert_eq!(stream, sink.stream(), "jobs={jobs}");
        let _ = std::fs::remove_file(&path);
    }
}
